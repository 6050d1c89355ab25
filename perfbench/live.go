package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fullweb/internal/weblog"
)

// The live load: an open-loop writer on one connection delivers the
// workload's pace; a reader on its own connection polls the query
// surface on a fixed schedule.
const (
	// liveLines is the live-paced input: the first liveLines lines of
	// the dense-offline trace.
	liveLines = 512_000
	// visibleLimit is the visibility limit: a delivery not visible on
	// /readyz within it of its ack is a miss.
	visibleLimit = time.Second
	// quietFor is how long the writer stays silent after the last
	// delivery before completing the source; longer than visibleLimit,
	// so a round the deliveries leave unfilled shows as misses.
	quietFor      = 1200 * time.Millisecond
	readyzEvery   = 2 * time.Millisecond
	whatifEvery   = 5 * time.Millisecond
	snapshotEvery = 100 * time.Millisecond
	metricsEvery  = time.Second
	whatifPath    = "/whatif?scale=1.5&capacity=500&servers=3"
)

// pace is one workload's live load: the first lines lines of its
// trace in deliveryLines-line deliveries at recordsPerS, a fixed rate
// below what fullweb serve folds on that trace, so latencies measure
// the server rather than a growing backlog.
type pace struct {
	lines, deliveryLines int
	recordsPerS          float64
}

// period is the time between two deliveries.
func (p pace) period() time.Duration {
	return time.Duration(float64(time.Second) * float64(p.deliveryLines) / p.recordsPerS)
}

// roundLines is the engine's parse round: records become visible a
// round at a time.
const roundLines = weblog.DefaultChunkLines * weblog.DefaultChunkWindow

// delivery is one timed POST /ingest.
type delivery struct {
	due, sent, acked time.Time
	// cum is the accepted record count through this delivery.
	cum int64
	ok  bool
}

// readyObs is one /readyz answer: when it arrived and how many records
// it reported folded.
type readyObs struct {
	at      time.Time
	records int64
}

// readerLog is what the reader saw.
type readerLog struct {
	probes        []readyObs
	whatif        []time.Duration
	whatifCalls   int
	whatifErrs    int
	snapshotCalls int
	metricsCalls  int
	// skipped counts /readyz slots dropped because the reader was late.
	skipped int
	lateMax time.Duration
}

// liveRun is one fullweb serve process fed to completion.
type liveRun struct {
	child       childRun
	deliveries  []delivery
	completeAck time.Time
	reader      readerLog
	writerLate  time.Duration
	final       string
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// call issues one request and drains the answer.
func call(c *http.Client, method, url string, body []byte, into any) (int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if into != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			return resp.StatusCode, err
		}
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

// runLive starts fullweb serve under dir, delivers the live input on
// schedule, stays quiet, completes the source and waits for the
// process to print its final block and exit.
func runLive(ctx context.Context, e *env, dir string) (*liveRun, error) {
	writer, reader := newClient(), newClient()
	defer writer.CloseIdleConnections()
	defer reader.CloseIdleConnections()
	sc, setup, err := startServe(ctx, e.bin, dir, reader)
	if err != nil {
		return nil, err
	}
	in, p := e.in, e.spec.pace
	n := in.info.LiveLines
	lr := &liveRun{}
	t0 := time.Now().Add(5 * time.Millisecond)

	var completing atomic.Bool
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	//lint:allow rawgo the benchmark's reader connection, joined via the WaitGroup before runLive returns
	go func() {
		defer wg.Done()
		lr.reader = readLoop(reader, sc.base, t0, int64(n), &completing, stop)
	}()

	var cum int64
	for i := 0; i*p.deliveryLines < n; i++ {
		lo, hi := i*p.deliveryLines, min((i+1)*p.deliveryLines, n)
		d := delivery{due: t0.Add(time.Duration(i) * p.period())}
		sleepUntil(d.due)
		d.sent = time.Now()
		lr.writerLate = max(lr.writerLate, d.sent.Sub(d.due))
		url := fmt.Sprintf("%s/ingest?source=a&delivery=%d", sc.base, i)
		status, err := call(writer, http.MethodPost, url, in.live[in.liveLineStarts[lo]:in.liveLineStarts[hi]], nil)
		d.acked = time.Now()
		d.ok = err == nil && status == http.StatusOK
		if d.ok {
			cum += int64(hi - lo)
		}
		d.cum = cum
		lr.deliveries = append(lr.deliveries, d)
	}
	sleepUntil(lr.deliveries[len(lr.deliveries)-1].acked.Add(quietFor))
	completing.Store(true)
	status, cerr := call(writer, http.MethodPost, sc.base+"/ingest?source=a&complete=1", nil, nil)
	lr.completeAck = time.Now()
	if cerr == nil && status != http.StatusOK {
		cerr = fmt.Errorf("status %d", status)
	}
	if cerr != nil {
		sc.kill()
	} else {
		lr.child, cerr = sc.wait(60 * time.Second)
		lr.child.setup = setup
	}
	close(stop)
	wg.Wait()
	if cerr != nil {
		return nil, fmt.Errorf("completing the live source: %w", cerr)
	}
	lr.final = finalBlock(lr.child.stdout)
	return lr, nil
}

// burstLines is the delivery size of a burst run: large enough that
// the per-request round trip does not bound the rate.
const burstLines = 8192

// runBurst starts fullweb serve under dir, delivers the live input in
// burstLines-line deliveries on one connection, each as soon as the
// last is acknowledged (a full intake buffer's 429 is flow control:
// the delivery is sent again), completes the source and waits for the
// process to exit. It measures serve's own throughput, which the
// paced runs cannot show.
func runBurst(ctx context.Context, e *env, dir string) (childRun, string, error) {
	c := newClient()
	defer c.CloseIdleConnections()
	sc, setup, err := startServe(ctx, e.bin, dir, c)
	if err != nil {
		return childRun{}, "", err
	}
	in := e.in
	n := in.info.LiveLines
	for i := 0; i*burstLines < n; i++ {
		lo, hi := i*burstLines, min((i+1)*burstLines, n)
		url := fmt.Sprintf("%s/ingest?source=a&delivery=%d", sc.base, i)
		status, err := call(c, http.MethodPost, url, in.live[in.liveLineStarts[lo]:in.liveLineStarts[hi]], nil)
		for err == nil && status == http.StatusTooManyRequests {
			time.Sleep(time.Millisecond)
			status, err = call(c, http.MethodPost, url, in.live[in.liveLineStarts[lo]:in.liveLineStarts[hi]], nil)
		}
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d", status)
		}
		if err != nil {
			sc.kill()
			return childRun{}, "", fmt.Errorf("burst delivery %d: %w", i, err)
		}
	}
	status, err := call(c, http.MethodPost, sc.base+"/ingest?source=a&complete=1", nil, nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d", status)
	}
	if err != nil {
		sc.kill()
		return childRun{}, "", fmt.Errorf("completing the burst source: %w", err)
	}
	r, err := sc.wait(60 * time.Second)
	r.setup = setup
	return r, finalBlock(r.stdout), err
}

// readLoop polls the query surface on a fixed schedule until stop
// closes, every record is visible, or the server goes away after
// completion. /readyz runs from t0; /whatif, /snapshot and /metrics
// start once the first records fold (before that /whatif has no
// arrival series to answer from) and stop when the writer completes
// the source. Requests are timed from when they were due.
func readLoop(c *http.Client, base string, t0 time.Time, total int64, completing *atomic.Bool, stop <-chan struct{}) readerLog {
	var lg readerLog
	nextReady := t0
	gated := false
	var nextWhatif, nextSnap, nextMetrics time.Time
	for {
		select {
		case <-stop:
			return lg
		default:
		}
		due, kind := nextReady, "/readyz"
		if gated && !completing.Load() {
			for _, next := range []struct {
				t    time.Time
				kind string
			}{{nextWhatif, whatifPath}, {nextSnap, "/snapshot"}, {nextMetrics, "/metrics"}} {
				if next.t.Before(due) {
					due, kind = next.t, next.kind
				}
			}
		}
		sleepUntil(due)
		lg.lateMax = max(lg.lateMax, time.Since(due))
		switch kind {
		case "/readyz":
			// The probe samples state, so slots missed while the reader
			// was held up are dropped rather than sent in a burst that
			// would queue the timed requests behind them.
			nextReady = nextReady.Add(readyzEvery)
			if behind := time.Since(nextReady); behind > readyzEvery {
				missed := behind / readyzEvery
				nextReady = nextReady.Add(missed * readyzEvery)
				lg.skipped += int(missed)
			}
			var body struct {
				Records int64 `json:"records"`
			}
			status, err := call(c, http.MethodGet, base+kind, nil, &body)
			at := time.Now()
			if err != nil {
				if completing.Load() {
					return lg // the server exits once the source completes
				}
				continue
			}
			if status != http.StatusOK {
				continue
			}
			lg.probes = append(lg.probes, readyObs{at: at, records: body.Records})
			if !gated && body.Records > 0 {
				gated = true
				nextWhatif, nextSnap, nextMetrics = at, at, at
			}
			if body.Records >= total {
				return lg
			}
		case whatifPath:
			nextWhatif = nextWhatif.Add(whatifEvery)
			lg.whatifCalls++
			status, err := call(c, http.MethodGet, base+kind, nil, nil)
			if err != nil || status != http.StatusOK {
				lg.whatifErrs++
				continue
			}
			lg.whatif = append(lg.whatif, time.Since(due))
		case "/snapshot":
			nextSnap = nextSnap.Add(snapshotEvery)
			lg.snapshotCalls++
			_, _ = call(c, http.MethodGet, base+kind, nil, nil) // 503 until the first trace-time snapshot; not a failure
		case "/metrics":
			nextMetrics = nextMetrics.Add(metricsEvery)
			lg.metricsCalls++
			_, _ = call(c, http.MethodGet, base+kind, nil, nil) // scrape load only
		}
	}
}

// visibility returns each delivery's latency from its ack to the first
// /readyz whose records cover it, or -1 for a miss: a refused
// delivery, or one not visible within limit. A probe that already
// covered the delivery before its ack arrived counts as zero latency.
func visibility(dels []delivery, probes []readyObs, limit time.Duration) []time.Duration {
	// Records only grow; the running maximum guards the search against
	// a reordered answer.
	seen := make([]int64, len(probes))
	var hi int64
	for i, p := range probes {
		hi = max(hi, p.records)
		seen[i] = hi
	}
	out := make([]time.Duration, len(dels))
	for i, d := range dels {
		out[i] = -1
		if !d.ok {
			continue
		}
		j := sort.Search(len(seen), func(j int) bool { return seen[j] >= d.cum })
		if j == len(seen) {
			continue
		}
		lat := max(probes[j].at.Sub(d.acked), 0)
		if lat <= limit {
			out[i] = lat
		}
	}
	return out
}

// roundWaits returns, per accepted delivery, the time from its ack to
// the ack of the delivery that completes its parse round; a round the
// deliveries never complete waits for the source completion's ack.
func roundWaits(dels []delivery, round int64, complete time.Time) []time.Duration {
	out := make([]time.Duration, len(dels))
	for i, d := range dels {
		if !d.ok {
			out[i] = -1
			continue
		}
		need := ((d.cum-1)/round + 1) * round
		j := i + sort.Search(len(dels)-i, func(k int) bool { return dels[i+k].cum >= need })
		if j == len(dels) {
			out[i] = complete.Sub(d.acked)
		} else {
			out[i] = dels[j].acked.Sub(d.acked)
		}
	}
	return out
}

// liveSummary gathers the latency samples of several live runs, run by
// run.
type liveSummary struct {
	// ack, visible and whatif hold each run's latency samples in ms.
	ack, visible, whatif [][]float64
	deliveries, refused  int
	misses               int
	whatifCalls          int
	whatifErrs           int
	// waits and folds split the visible latency at the parse round.
	waits, folds []float64 // ms
	lateMax      time.Duration
	probes       int
	skipped      int
	// snapshots and scrapes count the /snapshot and /metrics reads.
	snapshots, scrapes int
}

func summarizeLive(runs []*liveRun) liveSummary {
	var s liveSummary
	for _, lr := range runs {
		vis := visibility(lr.deliveries, lr.reader.probes, visibleLimit)
		waits := roundWaits(lr.deliveries, roundLines, lr.completeAck)
		var ack, visible []float64
		for i, d := range lr.deliveries {
			s.deliveries++
			if !d.ok {
				s.refused++
			} else {
				ack = append(ack, ms(d.acked.Sub(d.due)))
				s.waits = append(s.waits, ms(waits[i]))
			}
			if vis[i] < 0 {
				s.misses++
				continue
			}
			visible = append(visible, ms(vis[i]))
			s.folds = append(s.folds, ms(vis[i]-waits[i]))
		}
		s.ack = append(s.ack, ack)
		s.visible = append(s.visible, visible)
		s.whatif = append(s.whatif, msAll(lr.reader.whatif))
		s.whatifCalls += lr.reader.whatifCalls
		s.whatifErrs += lr.reader.whatifErrs
		s.probes += len(lr.reader.probes)
		s.skipped += lr.reader.skipped
		s.snapshots += lr.reader.snapshotCalls
		s.scrapes += lr.reader.metricsCalls
		s.lateMax = max(s.lateMax, lr.writerLate, lr.reader.lateMax)
	}
	return s
}

// perRun returns the q-th percentile of each run's samples.
func perRun(runs [][]float64, q float64) []float64 {
	out := make([]float64, 0, len(runs))
	for _, xs := range runs {
		if len(xs) > 0 {
			out = append(out, percentile(xs, q))
		}
	}
	return out
}

// report adds the live latencies to the ledger detail. They are not
// end-to-end metrics: on a 2-CPU shared host the ack and /whatif tails
// follow the dozen parse-round bursts of a run and the hypervisor's
// steal, and visible_miss_frac drops to 0 once the stranded final round
// is flushed (see README.md). A latency percentile is the median over
// the runs of each run's own percentile, so one run a stall or a noisy
// neighbour hit does not move it; the ledger also keeps the per-run
// values, the pooled tails, the sample counts and the highest
// percentile the smallest run supports.
func (s liveSummary) report(o *outcome) {
	samples := map[string]int{"deliveries": s.deliveries, "misses": s.misses, "readyz": s.probes, "readyz_skipped": s.skipped,
		"snapshot": s.snapshots, "metrics": s.scrapes}
	supported := map[string]float64{}
	tails := map[string]map[string]float64{}
	runs := map[string][]float64{}
	latency := map[string]float64{}
	for _, m := range []struct {
		name string
		runs [][]float64
	}{{"ack", s.ack}, {"visible", s.visible}, {"whatif", s.whatif}} {
		var all []float64
		fewest := -1
		for _, xs := range m.runs {
			all = append(all, xs...)
			if fewest < 0 || len(xs) < fewest {
				fewest = len(xs)
			}
		}
		for _, q := range []float64{50, 99} {
			name := fmt.Sprintf("%s_p%g_ms", m.name, q)
			rs := perRun(m.runs, q)
			latency[name] = median(rs)
			runs[name] = rs
		}
		samples[m.name] = len(all)
		supported[m.name] = highestSupported(max(fewest, 0))
		tails[m.name] = map[string]float64{}
		for _, q := range []float64{90, 99, 99.9} {
			tails[m.name][fmt.Sprint(q)] = percentile(all, q)
		}
	}
	latency["visible_miss_frac"] = float64(s.misses) / float64(s.deliveries)
	o.ops("delivery", s.deliveries, s.refused)
	o.ops("whatif", s.whatifCalls, s.whatifErrs)
	o.detail["live"] = latency
	o.detail["live_samples"] = samples
	o.detail["live_per_run_ms"] = runs
	o.detail["live_highest_supported_percentile_per_run"] = supported
	o.detail["live_pooled_tails_ms"] = tails
	o.detail["generator_late_max_ms"] = ms(s.lateMax)
}
