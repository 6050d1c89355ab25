package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"fullweb/internal/core"
	"fullweb/internal/heavytail"
	"fullweb/internal/lrd"
	"fullweb/internal/obs"
	"fullweb/internal/parallel"
	"fullweb/internal/session"
	"fullweb/internal/stream"
	"fullweb/internal/telemetry"
	"fullweb/internal/weblog"
)

// span is one timed call into a layer. Spans of one chunk share the
// chunk's fold span as parent.
type span struct {
	Name    string `json:"name"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// recorder keeps spans in memory; when off it records nothing.
type recorder struct {
	on     bool
	origin time.Time
	spans  []span
}

func (r *recorder) begin(name string, parent int) int {
	if !r.on {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, ID: len(r.spans), Parent: parent, StartNs: int64(time.Since(r.origin))})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if id >= 0 {
		r.spans[id].EndNs = int64(time.Since(r.origin))
	}
}

// total sums the durations of the spans called name.
func (r *recorder) total(name string) time.Duration {
	var d int64
	for _, s := range r.spans {
		if s.Name == name {
			d += s.EndNs - s.StartNs
		}
	}
	return time.Duration(d)
}

// The engine's reservoir seed strides (stream/engine.go), so the
// layered pass samples exactly what the engine samples.
const (
	shardSeedStride = 15485863
	charSeedStride  = 7919
	mergeSeedStride = 32452843
)

// tracker mirrors the engine's per-second arrival tracker: per-second
// counts into lrd.OnlineAggVar, idle seconds as zero runs.
type tracker struct {
	est     *lrd.OnlineAggVar
	cur     int64
	count   float64
	started bool
}

func (t *tracker) observe(sec int64) {
	switch {
	case !t.started:
		t.started, t.cur, t.count = true, sec, 1
	case sec == t.cur:
		t.count++
	default:
		t.est.Add(t.count)
		t.est.AddZeros(sec - t.cur - 1)
		t.cur, t.count = sec, 1
	}
}

func (t *tracker) flush() {
	if t.started {
		t.est.Add(t.count)
	}
}

type charSketch struct {
	name    string
	moments stream.Welford
	quant   *stream.QuantileSketch
	hill    *heavytail.OnlineHill
}

type layerShard struct {
	streamer *session.Streamer
	chars    []*charSketch
	closed   []session.Session
	// req and sess are the shard's own arrival trackers, which the
	// engine feeds only when it has more than one shard.
	req, sess tracker
}

// layerState is the engine's fold state rebuilt from the modules'
// public types, so each layer's calls can be timed on their own.
type layerState struct {
	cfg     stream.Config
	shards  []*layerShard
	req     tracker
	sess    tracker
	started bool
	next    time.Time
	shardOf []int
	opened  []bool
	// sessions counts sessions folded into the sketches.
	sessions int64
}

func newLayerState(cfg stream.Config) (*layerState, error) {
	st := &layerState{cfg: cfg}
	var err error
	if st.req.est, err = lrd.NewOnlineAggVar(cfg.AggVarLevels); err != nil {
		return nil, err
	}
	if st.sess.est, err = lrd.NewOnlineAggVar(cfg.AggVarLevels); err != nil {
		return nil, err
	}
	for s := 0; s < max(cfg.Shards, 1); s++ {
		streamer, err := session.NewStreamer(cfg.Threshold)
		if err != nil {
			return nil, err
		}
		sh := &layerShard{streamer: streamer}
		if cfg.Shards > 1 {
			if sh.req.est, err = lrd.NewOnlineAggVar(cfg.AggVarLevels); err != nil {
				return nil, err
			}
			if sh.sess.est, err = lrd.NewOnlineAggVar(cfg.AggVarLevels); err != nil {
				return nil, err
			}
		}
		for i, name := range core.AllCharacteristics() {
			seed := cfg.Seed + int64(s)*shardSeedStride + int64(i)*charSeedStride
			hill, err := heavytail.NewOnlineHill(cfg.ReservoirCap, seed, cfg.HillTailFraction, cfg.HillRelTol)
			if err != nil {
				return nil, err
			}
			quant, err := stream.NewQuantileSketch(stream.DefaultQuantileCap)
			if err != nil {
				return nil, err
			}
			sh.chars = append(sh.chars, &charSketch{name: name, quant: quant, hill: hill})
		}
		st.shards = append(st.shards, sh)
	}
	return st, nil
}

// route assigns each record its shard (FNV-1a of the host, as the
// engine does) and counts the snapshot boundaries the chunk crosses.
func (st *layerState) route(recs []weblog.Record) int {
	st.shardOf = st.shardOf[:0]
	crossed := 0
	every := st.cfg.SnapshotEvery
	for _, r := range recs {
		if !st.started {
			st.started, st.next = true, r.Time.Add(every)
		}
		if every > 0 && !r.Time.Before(st.next) {
			crossed++
			for !r.Time.Before(st.next) {
				st.next = st.next.Add(every)
			}
		}
		h := uint64(14695981039346656037)
		for i := 0; i < len(r.Host); i++ {
			h ^= uint64(r.Host[i])
			h *= 1099511628211
		}
		st.shardOf = append(st.shardOf, int(h%uint64(len(st.shards))))
	}
	if cap(st.opened) < len(recs) {
		st.opened = make([]bool, len(recs))
	}
	st.opened = st.opened[:len(recs)]
	return crossed
}

func (st *layerState) observe(recs []weblog.Record) error {
	for i, r := range recs {
		sh := st.shards[st.shardOf[i]]
		before := sh.streamer.OpenedTotal()
		closed, err := sh.streamer.ObserveClamped(r)
		if err != nil {
			return err
		}
		st.opened[i] = sh.streamer.OpenedTotal() > before
		sh.closed = append(sh.closed, closed...)
	}
	return nil
}

func (st *layerState) flushSessions() {
	for _, sh := range st.shards {
		sh.closed = append(sh.closed, sh.streamer.Flush()...)
	}
}

func (st *layerState) foldSketches() {
	for _, sh := range st.shards {
		for _, s := range sh.closed {
			for _, c := range sh.chars {
				v := core.CharacteristicValue(c.name, s)
				c.moments.Observe(v)
				c.quant.Observe(v)
				c.hill.Observe(v)
			}
		}
		st.sessions += int64(len(sh.closed))
		sh.closed = sh.closed[:0]
	}
}

// feedTrackers feeds the global arrival trackers and, in a sharded
// run, each record's shard trackers, as the engine does.
func (st *layerState) feedTrackers(recs []weblog.Record) {
	multi := len(st.shards) > 1
	for i, r := range recs {
		sec := r.Time.Unix()
		sh := st.shards[st.shardOf[i]]
		if st.opened[i] {
			st.sess.observe(sec)
			if multi {
				sh.sess.observe(sec)
			}
		}
		st.req.observe(sec)
		if multi {
			sh.req.observe(sec)
		}
	}
}

// flushTrackers pushes every tracker's open second at end of stream.
func (st *layerState) flushTrackers() {
	if len(st.shards) > 1 {
		for _, sh := range st.shards {
			sh.req.flush()
			sh.sess.flush()
		}
	}
	st.req.flush()
	st.sess.flush()
}

// assemble times the estimator reads of one snapshot boundary. A
// sharded engine merges the shard sketches first; a single-shard
// engine reads shard 0 directly, so there heavytail.merge times a
// merge the engine skips.
func (st *layerState) assemble(rec *recorder, parent int) error {
	sp := rec.begin("lrd.estimate", parent)
	_, _ = st.req.est.Estimate() // too few levels early on is an answer, not a failure
	_, _ = st.sess.est.Estimate()
	rec.end(sp)
	multi := len(st.shards) > 1
	for i, c0 := range st.shards[0].chars {
		sp = rec.begin("stream.quantile", parent)
		q, m := c0.quant, c0.moments
		if multi {
			var err error
			if q, err = stream.NewQuantileSketch(c0.quant.Cap()); err != nil {
				return err
			}
			m = stream.Welford{}
			for _, sh := range st.shards {
				m.Merge(sh.chars[i].moments)
				if err := q.Merge(sh.chars[i].quant); err != nil {
					return err
				}
			}
		}
		_, _, _ = q.Quantile(0.5), q.Quantile(0.9), q.Quantile(0.99)
		_ = m.StdDev()
		rec.end(sp)

		sp = rec.begin("heavytail.merge", parent)
		hills := make([]*heavytail.OnlineHill, 0, len(st.shards))
		for _, sh := range st.shards {
			hills = append(hills, sh.chars[i].hill)
		}
		merged, err := heavytail.MergeOnlineHills(st.cfg.Seed+mergeSeedStride+int64(i)*charSeedStride, hills...)
		if err != nil {
			return err
		}
		rec.end(sp)
		hill := c0.hill
		if multi {
			hill = merged
		}
		sp = rec.begin("heavytail.hill_estimate", parent)
		_, _ = hill.Estimate() // too small a sample is an answer, not a failure
		rec.end(sp)
	}
	return nil
}

// layerPass is one layered run over the input.
type layerPass struct {
	rec        *recorder
	wall       time.Duration
	fold       time.Duration
	boundaries int
	sessions   int64
	peakActive int
	// weblogMallocs and sessionMallocs count heap objects allocated by
	// the parse rounds and by the session calls (passAllocs only).
	weblogMallocs, sessionMallocs uint64
}

// passMode selects what a layered pass instruments.
type passMode int

const (
	// passUntraced records nothing: the reference for the overhead.
	passUntraced passMode = iota
	// passTimed records one span per chunk per layer.
	passTimed
	// passAllocs counts heap allocations around the same calls. It is
	// a pass of its own because runtime.ReadMemStats stops the world,
	// which would land in the timed spans.
	passAllocs
)

// runLayers folds the input through the layers one chunk at a time,
// with one span per chunk per layer: weblog.ReadChunksCtx parses
// (everything outside the fold spans), then session, sketch and lrd
// calls run over the chunk in turn, then the estimators of every
// snapshot boundary the chunk crossed.
func runLayers(ctx context.Context, cfg stream.Config, data []byte, mode passMode) (*layerPass, error) {
	st, err := newLayerState(cfg)
	if err != nil {
		return nil, err
	}
	rec := &recorder{on: mode == passTimed, origin: time.Now()}
	var ms runtime.MemStats
	mallocs := func() uint64 {
		if mode != passAllocs {
			return 0
		}
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	p := &layerPass{rec: rec}
	var foldMallocs uint64
	// fold folds one chunk, or with recs nil the end of stream: the
	// flush and the final snapshot.
	fold := func(recs []weblog.Record) error {
		final := recs == nil
		m0 := mallocs()
		f := rec.begin("stream.fold_chunk", -1)
		defer func() {
			rec.end(f)
			foldMallocs += mallocs() - m0
		}()
		crossed := 1
		if !final {
			crossed = st.route(recs)
		}
		sm := mallocs()
		sp := rec.begin("session.observe", f)
		if final {
			st.flushSessions()
		} else if err := st.observe(recs); err != nil {
			return err
		}
		rec.end(sp)
		p.sessionMallocs += mallocs() - sm
		sp = rec.begin("stream.sketch_fold", f)
		st.foldSketches()
		rec.end(sp)
		sp = rec.begin("lrd.aggvar", f)
		if final {
			st.flushTrackers()
		} else {
			st.feedTrackers(recs)
		}
		rec.end(sp)
		for ; crossed > 0; crossed-- {
			p.boundaries++
			if err := st.assemble(rec, f); err != nil {
				return err
			}
		}
		return nil
	}
	runtime.GC()
	start := time.Now()
	m0 := mallocs()
	err = weblog.ReadChunksCtx(ctx, bytes.NewReader(data), parallel.NewPool(cfg.Workers), cfg.Chunk, func(ch weblog.Chunk) error {
		return fold(ch.Records)
	})
	if err == nil {
		err = fold(nil)
	}
	if err != nil {
		return nil, err
	}
	p.wall = time.Since(start)
	p.weblogMallocs = mallocs() - m0 - foldMallocs
	p.fold = rec.total("stream.fold_chunk")
	p.sessions = st.sessions
	for _, sh := range st.shards {
		p.peakActive += sh.streamer.PeakActiveSessions()
	}
	return p, nil
}

// enginePass is one timed Engine.ProcessCtx.
type enginePass struct {
	wall       time.Duration
	allocBytes uint64
	gcs        uint32
	eng        *stream.Engine
	final      *stream.Snapshot
}

func timeEngine(ctx context.Context, cfg stream.Config, data []byte) (enginePass, error) {
	var p enginePass
	eng, err := stream.NewEngine(cfg)
	if err != nil {
		return p, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	final, err := eng.ProcessCtx(ctx, bytes.NewReader(data), nil)
	p.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	p.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	p.gcs = m1.NumGC - m0.NumGC
	p.eng, p.final = eng, final
	return p, err
}

// engineConfig is the engine configuration the workload's child runs
// with; serve adds the arrival ring, a registry and the holder.
func engineConfig(sp spec) stream.Config {
	cfg := stream.DefaultConfig()
	cfg.Shards = sp.shards
	if sp.live {
		cfg.ArrivalWindow = stream.DefaultArrivalWindow
		cfg.Metrics = obs.NewRegistry()
		cfg.Telemetry = telemetry.NewHolder(obs.SystemClock())
	}
	return cfg
}

// countingWriter counts bytes written and discards them.
type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

// measureLayers is the traced run: the per-layer metrics, in process.
func measureLayers(ctx context.Context, e *env) (*outcome, error) {
	out := newOutcome()
	in := e.in
	n := float64(in.info.Records)
	var engine, engineZero, allocBytes, gcs []float64
	var weblogNs, sessionNs, sketchNs, lrdNs, overhead []float64
	est := map[string][]float64{}
	var last enginePass // the latest cadence pass; its engine is checkpointed below
	var lp *layerPass
	start := time.Now()
	var lastRound time.Duration
	for round := 0; round == 0 || time.Since(start)+lastRound/2 < e.seconds; round++ {
		began := time.Now()
		cfg := engineConfig(e.spec)
		ep, err := timeEngine(ctx, cfg, in.data)
		if err != nil {
			return nil, err
		}
		got := totals{requests: ep.final.Records, sessions: ep.final.SessionsClosed, bytes: ep.final.Bytes}
		want := totals{requests: in.info.Records, sessions: in.info.Sessions, bytes: in.refBytes}
		out.check(got == want, "engine round %d: final totals %+v, batch reference %+v", round, got, want)
		engine = append(engine, float64(ep.wall))
		allocBytes = append(allocBytes, float64(ep.allocBytes)/n)
		gcs = append(gcs, float64(ep.gcs))
		last = ep

		cfg0 := engineConfig(e.spec)
		cfg0.SnapshotEvery = 0
		ep0, err := timeEngine(ctx, cfg0, in.data)
		if err != nil {
			return nil, err
		}
		engineZero = append(engineZero, float64(ep0.wall))

		lu, err := runLayers(ctx, engineConfig(e.spec), in.data, passUntraced)
		if err != nil {
			return nil, err
		}
		if lp, err = runLayers(ctx, engineConfig(e.spec), in.data, passTimed); err != nil {
			return nil, err
		}
		if int64(lp.boundaries) != ep.eng.Snapshots() || lp.sessions != in.info.Sessions {
			return nil, fmt.Errorf("layered pass drifted from the engine: %d boundaries vs %d snapshots, %d sessions vs %d",
				lp.boundaries, ep.eng.Snapshots(), lp.sessions, in.info.Sessions)
		}
		overhead = append(overhead, float64(lp.wall)/float64(lu.wall)-1)
		weblogNs = append(weblogNs, float64(lp.wall-lp.fold))
		sessionNs = append(sessionNs, float64(lp.rec.total("session.observe")))
		sketchNs = append(sketchNs, float64(lp.rec.total("stream.sketch_fold")))
		lrdNs = append(lrdNs, float64(lp.rec.total("lrd.aggvar")))
		for _, name := range []string{"lrd.estimate", "stream.quantile", "heavytail.merge", "heavytail.hill_estimate"} {
			est[name] = append(est[name], float64(lp.rec.total(name))/float64(lp.boundaries))
		}
		lastRound = time.Since(began)
	}
	la, err := runLayers(ctx, engineConfig(e.spec), in.data, passAllocs)
	if err != nil {
		return nil, err
	}
	snapshots := float64(last.eng.Snapshots())
	eNs := median(engine) / n
	wNs, sNs, kNs, lNs := median(weblogNs)/n, median(sessionNs)/n, median(sketchNs)/n, median(lrdNs)/n
	pNs := (median(engine) - median(engineZero)) / n
	glue := eNs - wNs - sNs - kNs - lNs - pNs

	out.set("weblog.parse_ns_per_line", "ns", wNs)
	out.set("weblog.allocs_per_line", "count", float64(la.weblogMallocs)/n)
	out.set("weblog.lines_per_distinct_ts", "ratio", in.info.LinesPerDistinctTS)
	out.set("session.observe_ns_per_record", "ns", sNs)
	out.set("session.allocs_per_record", "count", float64(la.sessionMallocs)/n)
	out.set("session.peak_active", "count", float64(lp.peakActive))
	out.set("stream.sketch_ns_per_session", "ns", median(sketchNs)/float64(in.info.Sessions))
	out.set("lrd.aggvar_ns_per_trace_second", "ns", median(lrdNs)/float64(in.info.TraceSeconds))
	out.set("lrd.zero_seconds_per_record", "ratio", in.info.ZeroSecondsPerRecord)
	out.set("stream.snapshot_ms", "ms", pNs*n/snapshots/1e6)
	out.set("stream.snapshots", "count", snapshots)
	out.set("lrd.estimate_us", "us", median(est["lrd.estimate"])/1e3)
	out.set("heavytail.hill_estimate_us", "us", median(est["heavytail.hill_estimate"])/1e3)
	out.set("heavytail.merge_us", "us", median(est["heavytail.merge"])/1e3)
	out.set("stream.quantile_us", "us", median(est["stream.quantile"])/1e3)
	out.set("stream.engine_ns_per_record", "ns", eNs)
	out.set("stream.glue_ns_per_record", "ns", glue)
	out.set("stream.alloc_bytes_per_record", "B", median(allocBytes))
	out.set("stream.gc_cycles", "count", median(gcs))
	for name, v := range map[string]float64{"weblog": wNs, "session": sNs, "sketch": kNs, "lrd": lNs, "snapshot": pNs, "glue": glue} {
		out.set("share."+name, "fraction", v/eNs)
	}
	out.set("trace.overhead_frac", "fraction", median(overhead))

	var cw countingWriter
	var ckpt []float64
	for i := 0; i < 5; i++ {
		cw = 0
		t := time.Now()
		if err := last.eng.WriteCheckpoint(&cw); err != nil {
			return nil, err
		}
		ckpt = append(ckpt, ms(time.Since(t)))
	}
	out.set("stream.checkpoint_bytes", "B", float64(cw))
	out.set("stream.checkpoint_write_ms", "ms", median(ckpt))

	if err := measureServeLayers(ctx, e, out); err != nil {
		return nil, err
	}
	out.detail["rounds"] = len(engine)
	out.detail["spans"] = len(lp.rec.spans)
	return out, writeSpans(e, lp.rec.spans)
}
