package main

import (
	"cmp"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"
)

// setupProbes is how many extra times a run execs the workload's
// process only to time its set-up; setup_s is the median over these
// and the measured runs.
const setupProbes = 25

// burstShare is the part of live-paced's measured window that goes to
// the unpaced burst runs of fullweb serve; the paced runs get the
// rest. An offline workload gives its whole window to fullweb stream.
const burstShare = 0.25

// minLiveRuns is how many paced live runs a latency percentile's
// median over runs needs; minThroughputRuns is the same for
// records_per_s.
const (
	minLiveRuns       = 3
	minThroughputRuns = 3
)

// maxSteal is the share of host CPU time the hypervisor may give to
// other guests during a measured run before the run is set aside: its
// timings would measure the neighbours, not the program.
const maxSteal = 0.02

// streamArgs is the workload's fullweb stream command line: CLI
// defaults apart from the shard count.
func streamArgs(e *env) []string {
	args := []string{"-log", e.in.path}
	if e.spec.shards > 1 {
		args = append(args, "-shards", strconv.Itoa(e.spec.shards))
	}
	return args
}

// measured is one run's result and the steal the host saw during it.
type measured[T any] struct {
	v     T
	steal float64
}

// repeat runs run at least least times, then again while the window
// still has room for at least half of one more.
func repeat[T any](window time.Duration, least int, run func(i int) (T, error)) ([]measured[T], error) {
	var out []measured[T]
	start := time.Now()
	var last time.Duration
	for i := 0; i < least || time.Since(start)+last/2 < window; i++ {
		began, cpu0 := time.Now(), readCPUTimes()
		v, err := run(i)
		if err != nil {
			return nil, err
		}
		last = time.Since(began)
		out = append(out, measured[T]{v: v, steal: stealSince(cpu0)})
	}
	return out, nil
}

// unstolen returns the runs within maxSteal, topped up with the least
// stolen of the rest until enough(used) holds, and every run's steal
// for the ledger.
func unstolen[T any](ms []measured[T], enough func([]T) bool) (used []T, steal []float64) {
	byLeast := slices.Clone(ms)
	slices.SortStableFunc(byLeast, func(a, b measured[T]) int { return cmp.Compare(a.steal, b.steal) })
	for _, m := range byLeast {
		if m.steal > maxSteal && enough(used) {
			break
		}
		used = append(used, m.v)
	}
	for _, m := range ms {
		steal = append(steal, m.steal)
	}
	return used, steal
}

// measureEndToEnd runs the workload's child processes for the measured
// window. Offline, that is fullweb stream over the whole trace, again
// and again. Live, it is unpaced fullweb serve bursts, which give
// records_per_s, and paced fullweb serve runs, which give the per-record
// costs and the latencies the ledger keeps. Runs the hypervisor stole
// CPU from are set aside (unstolen).
func measureEndToEnd(ctx context.Context, e *env) (*outcome, error) {
	out := newOutcome()
	// Settle the benchmark's own heap first, so its collector does not
	// compete with the starts being timed.
	runtime.GC()
	var setups []float64
	for i := 0; i < setupProbes; i++ {
		d, err := setupOnce(ctx, e, filepath.Join(e.dir, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		setups = append(setups, d.Seconds())
	}

	throughputWindow := e.seconds
	if e.spec.live {
		throughputWindow = time.Duration(float64(e.seconds) * burstShare)
	}
	runs, err := repeat(throughputWindow, minThroughputRuns, func(i int) (childRun, error) {
		if e.spec.live {
			dir := filepath.Join(e.dir, fmt.Sprintf("burst-%d", i))
			r, final, err := runBurst(ctx, e, dir)
			if err != nil {
				return r, err
			}
			_ = os.RemoveAll(dir)
			out.check(final == e.in.liveFinal, "burst run %d: serve final block differs from fullweb stream over the delivered bytes", i)
			return r, nil
		}
		r, err := runStream(ctx, e.bin, streamArgs(e))
		if err != nil {
			return r, err
		}
		got, err := parseTotals(finalBlock(r.stdout))
		want := totals{requests: e.in.info.Records, sessions: e.in.info.Sessions, bytes: e.in.refBytes}
		out.check(err == nil && got == want, "stream run %d: final totals %+v, batch reference %+v (%v)", i, got, want, err)
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	used, runSteal := unstolen(runs, func(runs []childRun) bool { return len(runs) >= minThroughputRuns })
	// records_per_s comes from the throughput runs. The per-record
	// costs come from the stream child offline and from the paced serve
	// child live: the load the live workload is defined by.
	children, records := used, e.in.info.Records
	if e.spec.live {
		lives, err := repeat(e.seconds-throughputWindow, minLiveRuns, func(i int) (*liveRun, error) {
			dir := filepath.Join(e.dir, fmt.Sprintf("live-%d", i))
			lr, err := runLive(ctx, e, dir)
			if err != nil {
				return nil, err
			}
			_ = os.RemoveAll(dir) // the journal is tens of MB; free it now
			out.check(lr.final == e.in.liveFinal, "live run %d: serve final block differs from fullweb stream over the delivered bytes", i)
			return lr, nil
		})
		if err != nil {
			return nil, err
		}
		usedLives, liveSteal := unstolen(lives, func(runs []*liveRun) bool { return len(runs) >= minLiveRuns })
		children, records = nil, int64(e.in.info.LiveLines)
		for _, lr := range usedLives {
			children = append(children, lr.child)
			setups = append(setups, lr.child.setup.Seconds())
		}
		summarizeLive(usedLives).report(out)
		out.detail["live_runs"] = map[string]int{"run": len(lives), "used": len(usedLives)}
		out.detail["live_steal_frac"] = liveSteal
	}
	var perRec, cpuPerRec, rss []float64
	for _, c := range used {
		perRec = append(perRec, float64(records)/c.wall.Seconds())
		setups = append(setups, c.setup.Seconds())
	}
	n := float64(records)
	for _, c := range children {
		cpuPerRec = append(cpuPerRec, float64(c.cpu.Microseconds())/n)
		rss = append(rss, float64(c.maxRSSKB)/1024)
	}
	out.set("records_per_s", "1/s", median(perRec))
	out.set("cpu_us_per_record", "us", median(cpuPerRec))
	out.set("peak_rss_mib", "MiB", median(rss))
	out.set("setup_s", "s", median(setups))
	out.detail["throughput_runs"] = map[string]int{"run": len(runSteal), "used": len(used)}
	out.detail["throughput_steal_frac"] = runSteal
	out.detail["records_per_s_samples"] = perRec
	out.detail["cpu_us_per_record_samples"] = cpuPerRec
	out.detail["peak_rss_mib_samples"] = rss
	out.detail["setup_samples"] = len(setups)
	return out, nil
}

// setupOnce times one start of the workload's process to its first
// sign of life and stops it.
func setupOnce(ctx context.Context, e *env, dir string) (time.Duration, error) {
	if !e.spec.live {
		return streamSetup(ctx, e.bin, streamArgs(e))
	}
	c := newClient()
	defer c.CloseIdleConnections()
	sc, d, err := startServe(ctx, e.bin, dir, c)
	if err != nil {
		return 0, err
	}
	sc.kill()
	return d, os.RemoveAll(dir)
}
