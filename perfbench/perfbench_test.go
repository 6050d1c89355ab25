package main

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"fullweb/internal/weblog"
)

func TestVisibilityMatchesAcksToReadyz(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	dels := []delivery{
		{acked: at(0), cum: 256, ok: true},     // visible at 40 ms
		{acked: at(10), cum: 512, ok: true},    // covered by a probe before its ack: 0
		{acked: at(20), cum: 768, ok: false},   // refused: miss
		{acked: at(30), cum: 768, ok: true},    // visible at 1500 ms, past the limit: miss
		{acked: at(2000), cum: 1024, ok: true}, // never visible: miss
	}
	probes := []readyObs{
		{at: at(5), records: 512}, // already covers the second delivery
		{at: at(40), records: 512},
		{at: at(1500), records: 768},
		{at: at(1600), records: 700}, // a stale answer never lowers what was seen
	}
	got := visibility(dels, probes, time.Second)
	want := []time.Duration{5 * time.Millisecond, 0, -1, -1, -1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("delivery %d: visibility %v, want %v", i, got[i], want[i])
		}
	}
}

func TestVisibilityFirstCoveringProbeWins(t *testing.T) {
	t0 := time.Unix(1000, 0)
	dels := []delivery{{acked: t0, cum: 100, ok: true}}
	probes := []readyObs{
		{at: t0.Add(1 * time.Millisecond), records: 99},
		{at: t0.Add(3 * time.Millisecond), records: 100},
		{at: t0.Add(5 * time.Millisecond), records: 200},
	}
	if got := visibility(dels, probes, time.Second); got[0] != 3*time.Millisecond {
		t.Fatalf("visibility %v, want 3ms", got[0])
	}
}

func TestRoundWaits(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// Rounds of 4 records, deliveries of 2: every second delivery
	// completes a round; the last round is left half full until the
	// completion at 100 ms.
	dels := []delivery{
		{acked: at(0), cum: 2, ok: true},
		{acked: at(10), cum: 4, ok: true},
		{acked: at(20), cum: 6, ok: true},
		{acked: at(30), cum: 8, ok: true},
		{acked: at(40), cum: 10, ok: true},
	}
	got := roundWaits(dels, 4, at(100))
	want := []time.Duration{10, 0, 10, 0, 60}
	for i := range want {
		if got[i] != want[i]*time.Millisecond {
			t.Errorf("delivery %d: wait %v, want %v", i, got[i], want[i]*time.Millisecond)
		}
	}
}

func TestHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// The rule's premise: at the supported percentile, at least ten
	// samples lie beyond the nearest rank.
	if b := beyond(1000, 99); b != 10 {
		t.Errorf("beyond(1000, 99) = %d, want 10", b)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	if got := percentile(xs, 50); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := percentile(xs, 99); got != 10 {
		t.Errorf("p99 = %v, want 10", got)
	}
}

func TestSameSeedSameInputBytes(t *testing.T) {
	sp, err := lookup("sparse-offline")
	if err != nil {
		t.Fatal(err)
	}
	a, err := generate(sp, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate(sp, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed generated different input bytes")
	}
	c, err := generate(sp, 8)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds generated identical input bytes")
	}
}

func TestThinKeepsExactlyNInOrder(t *testing.T) {
	var recs []weblog.Record
	for i := 0; i < 1000; i++ {
		recs = append(recs, weblog.Record{Bytes: int64(i)})
	}
	a, b := thin(recs, 300, 5), thin(recs, 300, 5)
	if len(a) != 300 {
		t.Fatalf("kept %d records, want 300", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("the same seed thinned differently")
		}
		if i > 0 && a[i].Bytes <= a[i-1].Bytes {
			t.Fatal("thinning reordered the records")
		}
	}
	if all := thin(recs, len(recs), 5); len(all) != len(recs) {
		t.Fatalf("thinning to the full count kept %d", len(all))
	}
}

func TestLiveInputIsAPrefixOfTheDenseTrace(t *testing.T) {
	live, err := lookup("live-paced")
	if err != nil {
		t.Fatal(err)
	}
	dense, err := lookup("dense-offline")
	if err != nil {
		t.Fatal(err)
	}
	if live.profile().Name != dense.profile().Name || live.scale != dense.scale || live.days != dense.days {
		t.Fatal("live-paced must deliver the dense-offline trace")
	}
	if live.limitLines != liveLines || dense.limitLines != 0 {
		t.Fatalf("limits %d/%d, want %d/0", live.limitLines, dense.limitLines, liveLines)
	}
}

func TestLineStartsAndFinalBlock(t *testing.T) {
	data := []byte("a\nbb\nccc\n")
	if got := lineStarts(data, 2); len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 5 {
		t.Fatalf("lineStarts = %v, want [0 2 5]", got)
	}
	out := []byte("streaming x\n\n-- snapshot @ t --\n  requests=1 sessions=1 bytes=1 span=0s\n" +
		"-- final @ t --\n  requests=1,234 sessions=56 bytes=7,890 span=1s\n")
	final := finalBlock(out)
	got, err := parseTotals(final)
	if err != nil {
		t.Fatal(err)
	}
	if got != (totals{requests: 1234, sessions: 56, bytes: 7890}) {
		t.Fatalf("totals %+v", got)
	}
	if finalBlock([]byte("no final")) != "" {
		t.Fatal("finalBlock found a block in output without one")
	}
}

func TestUnstolenSetsAsideStolenRunsButKeepsEnough(t *testing.T) {
	ms := []measured[int]{{v: 1, steal: 0.001}, {v: 2, steal: 0.30}, {v: 3, steal: 0.05}, {v: 4, steal: 0.01}}
	atLeast := func(n int) func([]int) bool { return func(used []int) bool { return len(used) >= n } }
	used, steal := unstolen(ms, atLeast(1))
	if fmt.Sprint(used) != "[1 4]" || len(steal) != 4 {
		t.Fatalf("used %v (steal %v), want the two unstolen runs [1 4]", used, steal)
	}
	// Too few unstolen runs: top up with the least stolen.
	if used, _ := unstolen(ms, atLeast(3)); fmt.Sprint(used) != "[1 4 3]" {
		t.Fatalf("used %v, want [1 4 3]", used)
	}
	// Every run stolen: the least stolen one still measures.
	if used, _ := unstolen(ms[1:3], atLeast(1)); fmt.Sprint(used) != "[3]" {
		t.Fatalf("used %v, want [3]", used)
	}
}
