package stream

import (
	"math"
	"math/rand"
	"testing"
)

// relClose reports |a-b| <= tol*max(1,|a|,|b|) — the documented 1e-9
// relative tolerance for floating-point merge association.
func relClose(a, b, tol float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

// TestWelfordMergeMatchesSequential: for random split points, merging
// the two halves' accumulators reproduces the sequential fold — counts
// and extremes exactly, mean and variance within 1e-9 relative
// (Chan's formula reassociates the floating-point sums).
func TestWelfordMergeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	x := make([]float64, 4000)
	var whole Welford
	for i := range x {
		x[i] = math.Exp(rng.NormFloat64() * 2)
		whole.Observe(x[i])
	}
	for trial := 0; trial < 50; trial++ {
		cut := rng.Intn(len(x) + 1)
		var a, b Welford
		for _, v := range x[:cut] {
			a.Observe(v)
		}
		for _, v := range x[cut:] {
			b.Observe(v)
		}
		a.Merge(b)
		if a.N() != whole.N() || a.Min() != whole.Min() || a.Max() != whole.Max() {
			t.Fatalf("cut=%d: exact fields differ: n %d/%d min %v/%v max %v/%v",
				cut, a.N(), whole.N(), a.Min(), whole.Min(), a.Max(), whole.Max())
		}
		if !relClose(a.Mean(), whole.Mean(), 1e-9) {
			t.Fatalf("cut=%d: mean %v vs %v", cut, a.Mean(), whole.Mean())
		}
		if !relClose(a.Variance(), whole.Variance(), 1e-9) {
			t.Fatalf("cut=%d: variance %v vs %v", cut, a.Variance(), whole.Variance())
		}
	}
}

// TestWelfordMergeEmptyExact: an empty operand on either side is
// bit-exact — the identity element of the merge.
func TestWelfordMergeEmptyExact(t *testing.T) {
	var filled Welford
	for _, v := range []float64{3, 1, 4, 1, 5, 9, 2, 6} {
		filled.Observe(v)
	}
	want := filled
	var empty Welford
	filled.Merge(empty)
	if filled != want {
		t.Fatalf("merging empty changed state: %+v vs %+v", filled, want)
	}
	empty.Merge(want)
	if empty != want {
		t.Fatalf("merging into empty is not the operand: %+v vs %+v", empty, want)
	}
}

// TestWelfordMergeAssociativeCommutative: grouping and order hold
// within the documented tolerance, and the exact fields exactly.
func TestWelfordMergeAssociativeCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	mk := func(n int) Welford {
		var w Welford
		for i := 0; i < n; i++ {
			w.Observe(rng.NormFloat64() * 100)
		}
		return w
	}
	a, b, c := mk(100), mk(57), mk(213)
	ab := a
	ab.Merge(b)
	abc := ab
	abc.Merge(c)
	bc := b
	bc.Merge(c)
	aBC := a
	aBC.Merge(bc)
	cba := c
	cba.Merge(b)
	cba.Merge(a)
	for _, pair := range [][2]Welford{{abc, aBC}, {abc, cba}} {
		l, r := pair[0], pair[1]
		if l.N() != r.N() || l.Min() != r.Min() || l.Max() != r.Max() {
			t.Fatalf("exact fields differ: %+v vs %+v", l, r)
		}
		if !relClose(l.Mean(), r.Mean(), 1e-9) || !relClose(l.Variance(), r.Variance(), 1e-9) {
			t.Fatalf("moments differ beyond tolerance: %+v vs %+v", l, r)
		}
	}
}

// TestWelfordEmptyRestoreNormalized: restoring an n==0 state yields the
// zero accumulator regardless of stray min/max/mean fields a hand-built
// or corrupted checkpoint might carry, so a restored engine's first
// observation initializes extremes exactly like a fresh engine's.
func TestWelfordEmptyRestoreNormalized(t *testing.T) {
	got := RestoreWelford(WelfordState{N: 0, Mean: 7, M2: 3, Min: 5, Max: -2})
	if got != (Welford{}) {
		t.Fatalf("empty state restored to %+v, want zero value", got)
	}
	var fresh Welford
	fresh.Observe(42)
	got.Observe(42)
	if got != fresh {
		t.Fatalf("first observation diverged: %+v vs %+v", got, fresh)
	}
	if got.State() != fresh.State() {
		t.Fatalf("serialized state diverged: %+v vs %+v", got.State(), fresh.State())
	}
}
