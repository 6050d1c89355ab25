// Command perfbench is the layered benchmark of the fullweb pipeline.
// It runs one named workload against the built fullweb binary as a
// child process (end-to-end metrics, --trace 0) or times calls into
// each module's public functions in process (per-layer metrics,
// --trace 1), checks the outputs against a reference on every run,
// appends one ledger entry and prints the result as the last line of
// standard output.
//
//	bash perfbench/run.sh --workload dense-offline --seed 1 --seconds 20 --trace 0
//
// README.md in this directory describes the workloads and the metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"fullweb/internal/workload"
)

// spec is one named workload: the trace it generates from the seed and
// the configuration the child process runs with.
type spec struct {
	name string
	why  string
	// profile, scale and days parameterize the generated trace.
	profile func() workload.Profile
	scale   float64
	days    int
	// records, when set, thins the trace to exactly that many records,
	// so every seed offers the same per-record and per-trace-second
	// load: the record count of an LRD trace varies widely by seed.
	records int
	// limitLines keeps only the first limitLines lines (0 = all).
	limitLines int
	// shards is the engine's -shards setting.
	shards int
	// live selects the fullweb serve workload; otherwise fullweb
	// stream runs over the whole trace.
	live bool
	// pace is the load of the workload's fullweb serve runs: the paced
	// runs of live-paced and, on every workload, the traced run's serve
	// layers.
	pace pace
}

var specs = []spec{
	{
		name: "dense-offline", profile: workload.ClarkNet, scale: 1, days: 7, shards: 1,
		pace: pace{lines: 440_000, deliveryLines: 256, recordsPerS: 100_000},
		why:  "per-record work dominates: parse, timestamps, sessionizer, sketch fold",
	},
	{
		name: "sparse-offline", profile: workload.NASAPub2, scale: 0.5, days: 60, records: 140_000, shards: 4,
		pace: pace{lines: 112_000, deliveryLines: 64, recordsPerS: 20_000},
		why:  "per-trace-second work dominates: zero-fill, per-shard trackers, snapshot merges",
	},
	{
		name: "live-paced", profile: workload.ClarkNet, scale: 1, days: 7, limitLines: liveLines, shards: 1, live: true,
		pace: pace{lines: liveLines, deliveryLines: 256, recordsPerS: 100_000},
		why:  "paced HTTP intake with WAL and concurrent readers: ack and visibility latency",
	},
}

func lookup(name string) (spec, error) {
	var names []string
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
		names = append(names, s.name)
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line printed last on standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a measurement returns: the result plus the ledger
// detail that does not belong in the contract line.
type outcome struct {
	result
	// failedBy splits Failed by cause.
	failedBy map[string]int64
	// mismatches describes each failed correctness check.
	mismatches []string
	// detail holds extra figures for the ledger: sample counts,
	// supported percentiles, generator lateness, layer shares.
	detail map[string]any
}

func newOutcome() *outcome {
	return &outcome{
		result:   result{Correct: true, Metrics: map[string]metric{}},
		failedBy: map[string]int64{},
		detail:   map[string]any{},
	}
}

func (o *outcome) set(name, unit string, v float64) { o.Metrics[name] = metric{Value: v, Unit: unit} }

// check records one correctness check; a failed one fails the run.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.Attempted++
	if !ok {
		o.Correct = false
		o.Failed++
		o.failedBy["mismatch"]++
		o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
	}
}

// ops records attempted operations of one kind and how many failed.
func (o *outcome) ops(kind string, attempted, failed int) {
	o.Attempted += int64(attempted)
	o.Failed += int64(failed)
	if failed > 0 {
		o.failedBy[kind] += int64(failed)
	}
}

// env is everything a measurement needs about this invocation.
type env struct {
	spec    spec
	seed    int64
	seconds time.Duration
	bin     string
	dir     string
	in      *input
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "seconds to measure")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics from the child process, 1 = per-layer metrics in process")
	bin := flag.String("bin", "", "fullweb binary")
	work := flag.String("work", ".bench_build", "directory for inputs, run artifacts and the ledger")
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *trace, *bin, *work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func mainErr(name string, seed int64, seconds, trace int, bin, work string) error {
	sp, err := lookup(name)
	if err != nil {
		return err
	}
	if seconds < 1 || (trace != 0 && trace != 1) || bin == "" {
		return fmt.Errorf("need --seconds >= 1, --trace 0|1 and -bin")
	}
	if bin, err = filepath.Abs(bin); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(work, "run-"+name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	ctx := context.Background()
	in, err := prepareInput(ctx, sp, seed, dir, bin)
	if err != nil {
		return fmt.Errorf("preparing input: %w", err)
	}
	e := &env{spec: sp, seed: seed, seconds: time.Duration(seconds) * time.Second, bin: bin, dir: dir, in: in}
	var out *outcome
	if trace == 0 {
		out, err = measureEndToEnd(ctx, e)
	} else {
		out, err = measureLayers(ctx, e)
	}
	if err != nil {
		return err
	}
	entry := ledgerEntry{
		At:         time.Now().UTC().Format(time.RFC3339),
		Workload:   sp.name,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
		GitSHA:     gitSHA(),
		Host:       hostInfo(),
		Input:      in.info,
		Correct:    out.Correct,
		Attempted:  out.Attempted,
		Failed:     out.Failed,
		FailedBy:   out.failedBy,
		Mismatches: out.mismatches,
		Metrics:    out.Metrics,
		Detail:     out.detail,
	}
	line, err := json.Marshal(entry)
	if err != nil {
		return err
	}
	if err := appendLedger(filepath.Join(work, "ledger.jsonl"), line); err != nil {
		return err
	}
	res, err := json.Marshal(out.result)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", line, res)
	if !out.Correct {
		return fmt.Errorf("correctness check failed: %s", strings.Join(out.mismatches, "; "))
	}
	return nil
}

// ledgerEntry is one line of the append-only ledger: the result with
// the commit, the host fingerprint and the input fingerprint, so
// entries from different hosts or inputs are never compared blindly.
type ledgerEntry struct {
	At         string            `json:"at"`
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    int               `json:"seconds"`
	Trace      int               `json:"trace"`
	GitSHA     string            `json:"git_sha"`
	Host       map[string]any    `json:"host"`
	Input      inputInfo         `json:"input"`
	Correct    bool              `json:"correct"`
	Attempted  int64             `json:"attempted"`
	Failed     int64             `json:"failed"`
	FailedBy   map[string]int64  `json:"failed_by"`
	Mismatches []string          `json:"mismatches,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
	Detail     map[string]any    `json:"detail"`
}

func appendLedger(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// gitSHA names the measured commit, or "unknown" outside a git
// checkout.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func hostInfo() map[string]any {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"cpu_model":  model,
		"nproc":      runtime.NumCPU(),
		"go_version": runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}
