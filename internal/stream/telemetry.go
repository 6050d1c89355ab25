package stream

import (
	"strconv"
	"time"

	"fullweb/internal/obs"
)

// Telemetry is the engine's live-publication hook — the feed behind
// `fullweb stream -listen`. The engine calls it from the fold
// goroutine at chunk granularity (never per record, keeping the
// //hot:path fold allocation-free): PublishRuntime after every folded
// chunk and once more at end of stream, PublishSnapshot for every
// assembled snapshot. Implementations must treat the values as
// read-only, must not block, and must not feed anything back into the
// engine — publication cannot perturb the byte-identical output
// contract.
type Telemetry interface {
	// PublishRuntime receives the engine's live counters. The struct is
	// a value copy; slices inside it are freshly allocated per call.
	PublishRuntime(RuntimeStats)
	// PublishSnapshot receives every periodic snapshot and the final
	// one, immediately after assembly. Snapshots are fully detached
	// from engine state and never mutated afterwards, so retaining the
	// pointer is safe.
	PublishSnapshot(*Snapshot)
}

// ShardRuntime is one shard's live counters in a RuntimeStats
// publication.
type ShardRuntime struct {
	// Records and Bytes are the totals folded into this shard.
	Records int64 `json:"records"`
	Bytes   int64 `json:"bytes"`
	// ActiveSessions is the shard's currently open session count;
	// SessionsClosed its finalized count.
	ActiveSessions int64 `json:"active_sessions"`
	SessionsClosed int64 `json:"sessions_closed"`
	// SketchItems is the summed live footprint of the shard's
	// estimator sketches (quantile ladder items + Hill reservoir
	// samples) — the bounded-memory story, observable.
	SketchItems int64 `json:"sketch_items"`
	// NextExpiry is the shard sessionizer's eviction frontier: the
	// exact deadline of its least recently active session, which
	// closes on the first record past it unless its host speaks first
	// (zero when no session is open).
	NextExpiry time.Time `json:"next_expiry"`
}

// RuntimeStats is one copy-on-publish view of the engine's live
// counters, published at chunk-fold granularity. Everything is a value
// snapshot: readers on other goroutines never touch live engine state.
type RuntimeStats struct {
	// Records, Lines and Bytes are the totals folded so far; Lines is
	// raw input lines at chunk granularity (the checkpoint resume
	// position).
	Records int64 `json:"records"`
	Lines   int64 `json:"lines"`
	Bytes   int64 `json:"bytes"`
	// ChunksFolded counts chunks drained into engine state — compare
	// against the parser's chunks_parsed counter for fold lag.
	ChunksFolded int64 `json:"chunks_folded"`
	// Snapshots and checkpoint progress so far.
	Snapshots          int64 `json:"snapshots"`
	Checkpoints        int64 `json:"checkpoints"`
	LastCheckpointLine int64 `json:"last_checkpoint_line"`
	// Session accounting across shards.
	SessionsActive int64 `json:"sessions_active"`
	SessionsOpened int64 `json:"sessions_opened"`
	SessionsClosed int64 `json:"sessions_closed"`
	// Ingest is the live input-health accounting (counters only; the
	// verdict is evaluated by the health rules against the configured
	// budget).
	Ingest IngestStats `json:"ingest"`
	// QuarantineBytes is the quarantine sink's byte offset (0 when no
	// sink is configured).
	QuarantineBytes int64 `json:"quarantine_bytes"`
	// Started reports whether any record has been folded; FirstTime
	// and LastTime delimit the trace-time span so far.
	Started   bool      `json:"started"`
	FirstTime time.Time `json:"first_time"`
	LastTime  time.Time `json:"last_time"`
	// Shards holds the per-shard live counters in shard order.
	Shards []ShardRuntime `json:"shards"`
}

// engineTelemetry carries the engine's live-instrument handles and
// fold/checkpoint accounting. The labeled per-shard gauge handles are
// precomputed at construction so the per-chunk update path does no
// name formatting; on a nil registry every handle is the obs no-op.
// Transient observability state: deliberately not checkpointed — a
// resumed run re-counts folds and checkpoints from its resume point.
type engineTelemetry struct {
	chunksFolded       int64
	checkpoints        int64
	lastCheckpointLine int64
	// arrPubLast and arrPubbed throttle arrival-series publication to
	// once per advanced trace second (transient, like the rest of this
	// struct: a resumed run republishes from its restored ring).
	arrPubLast int64
	arrPubbed  bool

	foldedC      *obs.Counter
	quarBytes    *obs.Gauge
	shardRecords []*obs.Gauge
	shardActive  []*obs.Gauge
	shardSketch  []*obs.Gauge
}

// newEngineTelemetry builds the engine's telemetry state, precomputing
// one labeled gauge handle per shard and quantity.
func newEngineTelemetry(reg *obs.Registry, shards int) *engineTelemetry {
	t := &engineTelemetry{
		chunksFolded:       0,
		checkpoints:        0,
		lastCheckpointLine: 0,
		arrPubLast:         0,
		arrPubbed:          false,
		foldedC:            reg.Counter("stream.chunks_folded"),
		quarBytes:          reg.Gauge("stream.quarantine_bytes"),
	}
	for i := 0; i < shards; i++ {
		shard := strconv.Itoa(i)
		t.shardRecords = append(t.shardRecords, reg.Gauge(obs.LabeledName("stream.shard.records", "shard", shard)))
		t.shardActive = append(t.shardActive, reg.Gauge(obs.LabeledName("stream.shard.active_sessions", "shard", shard)))
		t.shardSketch = append(t.shardSketch, reg.Gauge(obs.LabeledName("stream.shard.sketch_items", "shard", shard)))
	}
	return t
}

// sketchItems sums the live footprint of the shard's estimator
// sketches.
func (sh *engineShard) sketchItems() int64 {
	var total int64
	for _, c := range sh.chars {
		total += int64(c.quant.Stored()) + int64(c.hill.SampleLen())
	}
	return total
}

// noteChunkFolded runs the per-chunk telemetry work: fold accounting,
// the per-shard registry gauges, and a runtime publication. Called
// from the fold callback after a chunk is fully drained — chunk
// granularity, so none of this rides the per-record hot path.
func (e *Engine) noteChunkFolded() {
	e.tele.chunksFolded++
	e.tele.foldedC.Inc()
	if e.cfg.Metrics != nil {
		for i, sh := range e.shards {
			e.tele.shardRecords[i].Set(sh.records)
			e.tele.shardActive[i].Set(int64(sh.streamer.ActiveSessions()))
			e.tele.shardSketch[i].Set(sh.sketchItems())
		}
		if e.quar != nil {
			e.tele.quarBytes.Set(e.quar.N)
		}
	}
	e.publishArrivals(false)
	e.publishRuntime()
}

// noteCheckpoint records one persisted checkpoint for telemetry.
func (e *Engine) noteCheckpoint() {
	e.tele.checkpoints++
	e.tele.lastCheckpointLine = e.lines
}

// publishRuntime hands a copy-on-publish view of the live counters to
// the telemetry hook.
func (e *Engine) publishRuntime() {
	if e.cfg.Telemetry == nil {
		return
	}
	e.cfg.Telemetry.PublishRuntime(e.runtimeStats())
}

// publishArrivals hands a detached copy of the arrival ring to the
// telemetry hook's ArrivalPublisher extension. Chunk-granular like the
// runtime publication, and additionally throttled to rings whose trace
// second advanced since the last publication (at most one copy per
// trace second); force bypasses the throttle for the end-of-stream
// publication.
func (e *Engine) publishArrivals(force bool) {
	if e.arrivals == nil || e.arrPub == nil || !e.arrivals.started {
		return
	}
	if !force && e.tele.arrPubbed && e.tele.arrPubLast == e.arrivals.last {
		return
	}
	e.tele.arrPubbed = true
	e.tele.arrPubLast = e.arrivals.last
	e.arrPub.PublishArrivals(e.arrivals.series())
}

// publishSnapshot hands one assembled snapshot to the telemetry hook.
// Snapshots are built detached from engine state (fresh slices,
// detached ingest stats), so handing out the pointer is safe.
func (e *Engine) publishSnapshot(s *Snapshot) {
	if e.cfg.Telemetry == nil {
		return
	}
	e.cfg.Telemetry.PublishSnapshot(s)
}

// runtimeStats assembles the copy-on-publish runtime view.
func (e *Engine) runtimeStats() RuntimeStats {
	rt := RuntimeStats{
		Records:            e.records,
		Lines:              e.lines,
		Bytes:              e.bytes,
		ChunksFolded:       e.tele.chunksFolded,
		Snapshots:          e.snapshots,
		Checkpoints:        e.tele.checkpoints,
		LastCheckpointLine: e.tele.lastCheckpointLine,
		SessionsActive:     int64(e.activeSessions()),
		SessionsOpened:     e.openedSessions(),
		SessionsClosed:     e.closedSessions(),
		Ingest:             e.ingest.detached(),
		Started:            e.started,
		FirstTime:          e.firstTime,
		LastTime:           e.lastTime,
		Shards:             make([]ShardRuntime, 0, len(e.shards)),
	}
	if e.quar != nil {
		rt.QuarantineBytes = e.quar.N
	}
	for _, sh := range e.shards {
		sr := ShardRuntime{
			Records:        sh.records,
			Bytes:          sh.bytes,
			ActiveSessions: int64(sh.streamer.ActiveSessions()),
			SessionsClosed: sh.closed,
			SketchItems:    sh.sketchItems(),
		}
		if at, ok := sh.streamer.NextExpiry(); ok {
			sr.NextExpiry = at
		}
		rt.Shards = append(rt.Shards, sr)
	}
	return rt
}
