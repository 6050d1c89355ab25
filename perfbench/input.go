package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime/debug"
	"strconv"
	"strings"

	"fullweb/internal/session"
	"fullweb/internal/weblog"
	"fullweb/internal/workload"
)

// inputInfo fingerprints a workload's generated input for the ledger:
// any change to the generator or the seed shows in sha256, and the
// counts let rates be derived per record and per trace-second.
type inputInfo struct {
	SHA256       string `json:"sha256"`
	Bytes        int64  `json:"bytes"`
	Records      int64  `json:"records"`
	TraceSeconds int64  `json:"trace_seconds"`
	Hosts        int64  `json:"hosts"`
	Sessions     int64  `json:"sessions"`
	// LinesPerDistinctTS is records per distinct timestamp second: the
	// reuse a last-second timestamp cache would exploit.
	LinesPerDistinctTS float64 `json:"lines_per_distinct_ts"`
	// ZeroSecondsPerRecord is idle trace-seconds per record: the
	// zero-fill work the arrival trackers do per record.
	ZeroSecondsPerRecord float64 `json:"zero_seconds_per_record"`
	// LiveLines is how many leading lines the live runs deliver.
	LiveLines int `json:"live_lines"`
}

// input is a generated workload input plus its batch reference.
type input struct {
	info inputInfo
	path string
	data []byte
	// refBytes is the batch reference's total response bytes.
	refBytes int64
	// live is what a live run delivers: the first info.LiveLines lines,
	// cut at lineStarts, and the final block fullweb stream prints over
	// exactly those bytes.
	live           []byte
	liveLineStarts []int
	liveFinal      string
}

// regenerations bounds how many further traces generate draws when a
// trace is too short to thin to the workload's record count.
const regenerations = 8

// generate renders the workload's trace for seed as CLF bytes. The
// same seed always gives the same bytes.
func generate(sp spec, seed int64) ([]byte, error) {
	var recs []weblog.Record
	for i := int64(0); ; i++ {
		tr, err := workload.Generate(sp.profile(), workload.Config{Scale: sp.scale, Seed: seed + i<<32, Days: sp.days})
		if err != nil {
			return nil, err
		}
		recs = tr.Records
		if len(recs) >= sp.records {
			break
		}
		if i == regenerations {
			return nil, fmt.Errorf("seed %d: no trace of %d records in %d draws", seed, sp.records, regenerations+1)
		}
	}
	if sp.records > 0 {
		recs = thin(recs, sp.records, seed)
	}
	if sp.limitLines > 0 && len(recs) > sp.limitLines {
		recs = recs[:sp.limitLines]
	}
	var buf bytes.Buffer
	if err := weblog.WriteAll(&buf, recs); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// thin keeps exactly n of recs (n <= len(recs)), in order, each n-subset
// equally likely, chosen from seed (selection sampling).
func thin(recs []weblog.Record, n int, seed int64) []weblog.Record {
	rng := rand.New(rand.NewSource(seed))
	out := make([]weblog.Record, 0, n)
	for i, r := range recs {
		if rng.Int63n(int64(len(recs)-i)) < int64(n-len(out)) {
			out = append(out, r)
		}
	}
	return out
}

// prepareInput generates the input, writes it under dir, computes the
// fingerprint and the references every run is checked against.
func prepareInput(ctx context.Context, sp spec, seed int64, dir, bin string) (*input, error) {
	// The trace and the batch reference hold every record at once; a
	// tight GC target keeps the benchmark's own footprint near that.
	defer debug.SetGCPercent(debug.SetGCPercent(25))
	data, err := generate(sp, seed)
	if err != nil {
		return nil, err
	}
	debug.FreeOSMemory()
	in := &input{path: filepath.Join(dir, "input.log"), data: data}
	if err := os.WriteFile(in.path, data, 0o644); err != nil {
		return nil, err
	}
	sum := sha256.Sum256(data)
	in.info.SHA256 = hex.EncodeToString(sum[:])
	in.info.Bytes = int64(len(data))
	if err := in.reference(); err != nil {
		return nil, err
	}
	debug.FreeOSMemory()

	// Live runs deliver the leading lines the workload's pace names.
	liveLines := min(int(in.info.Records), sp.pace.lines)
	in.info.LiveLines = liveLines
	in.liveLineStarts = lineStarts(data, liveLines)
	in.live = data[:in.liveLineStarts[liveLines]]
	livePath := in.path
	if len(in.live) != len(data) {
		livePath = filepath.Join(dir, "live.log")
		if err := os.WriteFile(livePath, in.live, 0o644); err != nil {
			return nil, err
		}
	}
	out, err := exec.CommandContext(ctx, bin, "stream", "-log", livePath).Output()
	if err != nil {
		return nil, fmt.Errorf("reference stream over the live input: %w", err)
	}
	if in.liveFinal = finalBlock(out); in.liveFinal == "" {
		return nil, fmt.Errorf("reference stream over the live input printed no final block")
	}
	return in, nil
}

// reference computes the batch reference (weblog.ReadAll +
// session.Sessionize) and the input's shape.
func (in *input) reference() error {
	recs, perrs, err := weblog.ReadAll(bytes.NewReader(in.data))
	if err != nil {
		return err
	}
	if len(perrs) > 0 || len(recs) == 0 {
		return fmt.Errorf("generated input has %d records and %d unparseable lines", len(recs), len(perrs))
	}
	sessions, err := session.Sessionize(recs, session.DefaultThreshold)
	if err != nil {
		return err
	}
	hosts := make(map[string]struct{})
	distinct := int64(0)
	last := int64(-1 << 62)
	for _, r := range recs {
		in.refBytes += r.Bytes
		hosts[r.Host] = struct{}{}
		if sec := r.Time.Unix(); sec != last {
			distinct++
			last = sec
		}
	}
	in.info.Records = int64(len(recs))
	in.info.Sessions = int64(len(sessions))
	in.info.Hosts = int64(len(hosts))
	in.info.TraceSeconds = recs[len(recs)-1].Time.Unix() - recs[0].Time.Unix() + 1
	in.info.LinesPerDistinctTS = float64(len(recs)) / float64(distinct)
	in.info.ZeroSecondsPerRecord = float64(in.info.TraceSeconds-distinct) / float64(len(recs))
	return nil
}

// lineStarts returns the byte offsets where each of the first n lines
// starts, followed by the offset just past line n.
func lineStarts(data []byte, n int) []int {
	starts := make([]int, 0, n+1)
	off := 0
	for len(starts) < n && off < len(data) {
		starts = append(starts, off)
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			off = len(data)
			break
		}
		off += nl + 1
	}
	return append(starts, off)
}

// finalBlock cuts the final snapshot block out of a stream or serve
// report ("" when there is none).
func finalBlock(out []byte) string {
	s := string(out)
	i := strings.Index(s, "-- final @")
	if i < 0 {
		return ""
	}
	return s[i:]
}

var totalsRE = regexp.MustCompile(`requests=([\d,]+) sessions=([\d,]+) bytes=([\d,]+)`)

// totals are the final block's headline counts.
type totals struct{ requests, sessions, bytes int64 }

func parseTotals(final string) (totals, error) {
	m := totalsRE.FindStringSubmatch(final)
	if m == nil {
		return totals{}, fmt.Errorf("no totals line in final block")
	}
	var v [3]int64
	for i := range v {
		n, err := strconv.ParseInt(strings.ReplaceAll(m[i+1], ",", ""), 10, 64)
		if err != nil {
			return totals{}, err
		}
		v[i] = n
	}
	return totals{requests: v[0], sessions: v[1], bytes: v[2]}, nil
}
