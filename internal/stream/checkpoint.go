// Checkpoint/resume for the streaming engine: a versioned, checksummed
// serialization of the full online state — per-shard sessionizer
// last-activity lists, Welford moments, quantile-sketch ladders, dyadic
// aggregated-variance levels, reservoir Hill state (with RNG replay),
// totals and ingest accounting — written atomically at snapshot
// cadence. A resumed engine continues from the exact raw-line boundary
// the checkpoint recorded and produces output byte-identical to an
// uninterrupted run (DESIGN.md §11). Checkpoints of a sharded run carry
// every shard's state verbatim; merged sketches are never persisted
// (DESIGN.md §12).

package stream

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"fullweb/internal/heavytail"
	"fullweb/internal/lrd"
	"fullweb/internal/obs"
	"fullweb/internal/session"
)

// checkpointMagic and checkpointVersion frame the header line. The
// version bumps on ANY change to the serialized layout; a loader never
// guesses at unknown versions.
//
// v2: per-shard state layout (Shards []shardCheckpoint), mergeable
// quantile sketch replacing the three P² marker sets, and the Shards /
// QuantileCap fingerprint fields.
//
// v3: the optional arrival-ring state (Arrivals) and the ArrivalWindow
// fingerprint field behind the serve-mode what-if layer.
//
// v4: exact integer block moments (partial, blocks, ΣS, ΣS²) in every
// aggregated-variance level, integer tracker counts, and each
// sessionizer's active sessions in last-activity order in place of the
// stored expiry heap.
const (
	checkpointMagic   = "fullweb-checkpoint"
	checkpointVersion = 4
)

// ConfigFingerprint is the engine-config fingerprint embedded in
// every checkpoint and in run reports. Resume requires an exact
// match: these are the parameters that shape the online state itself. Workers and chunk geometry are
// deliberately absent — the determinism contract makes results
// identical across them, so a run may resume with a different pool
// size or chunk shape. Shards, by contrast, shapes the partitioned
// state and must match.
type ConfigFingerprint struct {
	Threshold        time.Duration `json:"threshold"`
	SnapshotEvery    time.Duration `json:"snapshot_every"`
	Shards           int           `json:"shards"`
	ReservoirCap     int           `json:"reservoir_cap"`
	QuantileCap      int           `json:"quantile_cap"`
	Seed             int64         `json:"seed"`
	HillTailFraction float64       `json:"hill_tail_fraction"`
	HillRelTol       float64       `json:"hill_rel_tol"`
	AggVarLevels     int           `json:"agg_var_levels"`
	Mode             string        `json:"mode"`
	Budget           Budget        `json:"budget"`
	MaxFieldBytes    int           `json:"max_field_bytes"`
	ArrivalWindow    int           `json:"arrival_window"`
}

// Fingerprint derives the resume-compatibility fingerprint of the
// config, normalizing defaulted values — also what run reports embed
// as the run's configuration record.
func (cfg Config) Fingerprint() ConfigFingerprint { return fingerprint(cfg) }

// fingerprint derives the resume-compatibility fingerprint of a
// config, normalizing defaulted values.
func fingerprint(cfg Config) ConfigFingerprint {
	levels := cfg.AggVarLevels
	if levels <= 0 {
		levels = lrd.DefaultAggVarLevels
	}
	return ConfigFingerprint{
		Threshold:        cfg.Threshold,
		SnapshotEvery:    cfg.SnapshotEvery,
		Shards:           normalizeShards(cfg.Shards),
		ReservoirCap:     cfg.ReservoirCap,
		QuantileCap:      normalizeQuantileCap(cfg.QuantileCap),
		Seed:             cfg.Seed,
		HillTailFraction: cfg.HillTailFraction,
		HillRelTol:       cfg.HillRelTol,
		AggVarLevels:     levels,
		Mode:             cfg.Mode.String(),
		Budget:           cfg.Budget,
		MaxFieldBytes:    cfg.Chunk.MaxFieldBytes,
		ArrivalWindow:    cfg.ArrivalWindow,
	}
}

// secondState is the checkpointable image of a secondTracker.
type secondState struct {
	Est     lrd.AggVarState `json:"est"`
	Cur     int64           `json:"cur"`
	Count   int64           `json:"count"`
	Started bool            `json:"started"`
	Flushed bool            `json:"flushed"`
}

func (t *secondTracker) state() secondState {
	return secondState{Est: t.est.State(), Cur: t.cur, Count: t.count, Started: t.started, Flushed: t.flushed}
}

func (t *secondTracker) restore(st secondState) error {
	est, err := lrd.RestoreOnlineAggVar(st.Est)
	if err != nil {
		return err
	}
	t.est = est
	t.cur = st.Cur
	t.count = st.Count
	t.started = st.Started
	t.flushed = st.Flushed
	return nil
}

// charCheckpoint is the checkpointable image of one characteristic's
// estimators within one shard.
type charCheckpoint struct {
	Name    string                    `json:"name"`
	Moments WelfordState              `json:"moments"`
	Quant   QuantileSketchState       `json:"quant"`
	Hill    heavytail.OnlineHillState `json:"hill"`
}

// shardCheckpoint is the checkpointable image of one hash partition:
// its sessionizer, totals, per-partition arrival trackers and
// characteristic sketches.
type shardCheckpoint struct {
	Streamer session.StreamerState `json:"streamer"`
	Closed   int64                 `json:"closed"`
	Records  int64                 `json:"records"`
	Bytes    int64                 `json:"bytes"`
	ReqArr   secondState           `json:"req_arr"`
	SessArr  secondState           `json:"sess_arr"`
	Chars    []charCheckpoint      `json:"chars"`
}

// engineState is the full serialized engine: the global clocks, totals
// and arrival estimators, plus every shard verbatim.
type engineState struct {
	Config           ConfigFingerprint `json:"config"`
	Lines            int64             `json:"lines"`
	QuarantineOffset int64             `json:"quarantine_offset"`
	Records          int64             `json:"records"`
	Bytes            int64             `json:"bytes"`
	Started          bool              `json:"started"`
	FirstTime        time.Time         `json:"first_time"`
	LastTime         time.Time         `json:"last_time"`
	NextSnapshot     time.Time         `json:"next_snapshot"`
	Snapshots        int64             `json:"snapshots"`
	Ingest           IngestStats       `json:"ingest"`
	ReqArr           secondState       `json:"req_arr"`
	SessArr          secondState       `json:"sess_arr"`
	Arrivals         *arrivalState     `json:"arrivals,omitempty"`
	Shards           []shardCheckpoint `json:"shards"`
}

// Checkpoint is a loaded, checksum-verified engine checkpoint.
type Checkpoint struct {
	state engineState
}

// SkipLines returns the raw-line resume position: the number of input
// lines the checkpointed run had fully consumed.
func (cp *Checkpoint) SkipLines() int64 { return cp.state.Lines }

// QuarantineOffset returns the quarantine sink's byte offset at the
// checkpoint; resume truncates the quarantine file to this length so
// re-processed rejects are not duplicated.
func (cp *Checkpoint) QuarantineOffset() int64 { return cp.state.QuarantineOffset }

// state captures the engine.
func (e *Engine) state() engineState {
	st := engineState{
		Config:       fingerprint(e.cfg),
		Lines:        e.lines,
		Records:      e.records,
		Bytes:        e.bytes,
		Started:      e.started,
		FirstTime:    e.firstTime,
		LastTime:     e.lastTime,
		NextSnapshot: e.nextSnapshot,
		Snapshots:    e.snapshots,
		Ingest:       e.ingest.detached(),
		ReqArr:       e.reqArr.state(),
		SessArr:      e.sessArr.state(),
	}
	if e.arrivals != nil {
		ast := e.arrivals.state()
		st.Arrivals = &ast
	}
	if e.quar != nil {
		st.QuarantineOffset = e.quar.N
	}
	for _, sh := range e.shards {
		sc := shardCheckpoint{
			Streamer: sh.streamer.State(),
			Closed:   sh.closed,
			Records:  sh.records,
			Bytes:    sh.bytes,
			ReqArr:   sh.reqArr.state(),
			SessArr:  sh.sessArr.state(),
		}
		for _, c := range sh.chars {
			sc.Chars = append(sc.Chars, charCheckpoint{
				Name:    c.name,
				Moments: c.moments.State(),
				Quant:   c.quant.State(),
				Hill:    c.hill.State(),
			})
		}
		st.Shards = append(st.Shards, sc)
	}
	return st
}

// WriteCheckpoint serializes the engine: a one-line header binding the
// format version and the payload's SHA-256, then the JSON payload.
func (e *Engine) WriteCheckpoint(w io.Writer) error {
	payload, err := json.Marshal(e.state())
	if err != nil {
		return fmt.Errorf("stream: encoding checkpoint: %w", err)
	}
	sum := sha256.Sum256(payload)
	if _, err := fmt.Fprintf(w, "%s v%d sha256=%s\n", checkpointMagic, checkpointVersion, hex.EncodeToString(sum[:])); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// SaveCheckpoint writes the checkpoint atomically: a temp file in the
// target directory, fsynced, then renamed over the destination — a
// crash mid-write leaves the previous checkpoint intact.
func (e *Engine) SaveCheckpoint(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("stream: creating checkpoint: %w", err)
	}
	if err := e.WriteCheckpoint(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("stream: syncing checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("stream: closing checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("stream: committing checkpoint: %w", err)
	}
	return nil
}

// saveCheckpointCtx persists the checkpoint to cfg.CheckpointPath,
// first consulting the stream.checkpoint fault site.
func (e *Engine) saveCheckpointCtx(ctx context.Context) error {
	if err := fpCheckpoint.Check(ctx); err != nil {
		return fmt.Errorf("stream: checkpoint at line %d: %w", e.lines, err)
	}
	_, sp := obs.StartSpan(ctx, "stream.checkpoint")
	defer sp.End()
	sp.SetInt("lines", e.lines)
	if err := e.SaveCheckpoint(e.cfg.CheckpointPath); err != nil {
		return err
	}
	e.noteCheckpoint()
	obs.MetricsFrom(ctx).Counter("stream.checkpoints").Inc()
	return nil
}

// ReadCheckpoint parses and verifies a checkpoint stream: magic,
// version, then the SHA-256 of the payload against the header.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("stream: reading checkpoint: %w", err)
	}
	header, payload, ok := bytes.Cut(data, []byte("\n"))
	if !ok {
		return nil, fmt.Errorf("stream: checkpoint has no header line")
	}
	var version int
	var sumHex string
	if n, err := fmt.Sscanf(string(header), checkpointMagic+" v%d sha256=%s", &version, &sumHex); err != nil || n != 2 {
		return nil, fmt.Errorf("stream: malformed checkpoint header %q", string(header))
	}
	if version != checkpointVersion {
		return nil, fmt.Errorf("stream: checkpoint version v%d, this build reads v%d", version, checkpointVersion)
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != sumHex {
		return nil, fmt.Errorf("stream: checkpoint checksum mismatch (corrupt or truncated file)")
	}
	var st engineState
	if err := json.Unmarshal(payload, &st); err != nil {
		return nil, fmt.Errorf("stream: decoding checkpoint: %w", err)
	}
	return &Checkpoint{state: st}, nil
}

// LoadCheckpoint reads and verifies a checkpoint file.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("stream: opening checkpoint: %w", err)
	}
	defer f.Close()
	return ReadCheckpoint(f)
}

// ResumeEngine rebuilds an engine from a verified checkpoint. The
// config must carry the same fingerprint the checkpoint was written
// under (worker count and chunk geometry are free to differ); the
// returned engine's chunk config is primed to skip the already
// consumed lines, so the caller simply re-opens the same input and
// calls ProcessCtx.
func ResumeEngine(cfg Config, cp *Checkpoint) (*Engine, error) {
	if got, want := fingerprint(cfg), cp.state.Config; got != want {
		return nil, fmt.Errorf("stream: config fingerprint mismatch: run has %+v, checkpoint has %+v", got, want)
	}
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	st := cp.state
	if len(st.Shards) != len(e.shards) {
		return nil, fmt.Errorf("stream: checkpoint holds %d shards, engine has %d", len(st.Shards), len(e.shards))
	}
	if err := e.reqArr.restore(st.ReqArr); err != nil {
		return nil, fmt.Errorf("stream: restoring request arrivals: %w", err)
	}
	if err := e.sessArr.restore(st.SessArr); err != nil {
		return nil, fmt.Errorf("stream: restoring session arrivals: %w", err)
	}
	// The fingerprint match above guarantees the ring exists exactly
	// when the checkpoint carries one (ArrivalWindow is part of it).
	if e.arrivals != nil && st.Arrivals != nil {
		if err := e.arrivals.restore(*st.Arrivals); err != nil {
			return nil, err
		}
	}
	for si, sc := range st.Shards {
		sh := e.shards[si]
		streamer, err := session.RestoreStreamer(sc.Streamer)
		if err != nil {
			return nil, fmt.Errorf("stream: restoring shard %d sessionizer: %w", si, err)
		}
		sh.streamer = streamer
		sh.closed = sc.Closed
		sh.records = sc.Records
		sh.bytes = sc.Bytes
		if err := sh.reqArr.restore(sc.ReqArr); err != nil {
			return nil, fmt.Errorf("stream: restoring shard %d request arrivals: %w", si, err)
		}
		if err := sh.sessArr.restore(sc.SessArr); err != nil {
			return nil, fmt.Errorf("stream: restoring shard %d session arrivals: %w", si, err)
		}
		if len(sc.Chars) != len(sh.chars) {
			return nil, fmt.Errorf("stream: checkpoint shard %d holds %d characteristics, engine has %d", si, len(sc.Chars), len(sh.chars))
		}
		for i, cc := range sc.Chars {
			c := sh.chars[i]
			if cc.Name != c.name {
				return nil, fmt.Errorf("stream: characteristic %d is %q in checkpoint, %q in engine", i, cc.Name, c.name)
			}
			c.moments = RestoreWelford(cc.Moments)
			if c.quant, err = RestoreQuantileSketch(cc.Quant); err != nil {
				return nil, fmt.Errorf("stream: restoring shard %d %s quantiles: %w", si, c.name, err)
			}
			if c.hill, err = heavytail.RestoreOnlineHill(cc.Hill); err != nil {
				return nil, err
			}
		}
	}
	e.lines = st.Lines
	e.records = st.Records
	e.bytes = st.Bytes
	e.started = st.Started
	e.firstTime = st.FirstTime
	e.lastTime = st.LastTime
	e.nextSnapshot = st.NextSnapshot
	e.snapshots = st.Snapshots
	e.ingest = st.Ingest
	if e.quar != nil {
		e.quar.N = st.QuarantineOffset
	}
	// ckptReq is runtime supervision state (serve's WAL cadence), never
	// carried in the image: a resumed engine starts with no pending
	// out-of-band checkpoint request.
	e.ckptReq.Store(false)
	e.cfg.Chunk.SkipLines = st.Lines
	return e, nil
}
