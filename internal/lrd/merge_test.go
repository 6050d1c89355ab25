package lrd

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestOnlineAggVarMergeAlignedExact: splitting one series at a multiple
// of the widest block keeps every level's blocks aligned, so the merged
// estimator reproduces the whole-series estimator's full state exactly.
func TestOnlineAggVarMergeAlignedExact(t *testing.T) {
	const levels = 6 // widths 1..32
	rng := rand.New(rand.NewSource(59))
	series := make([]float64, 8192)
	for i := range series {
		series[i] = float64(rng.Intn(10))
	}
	whole, err := NewOnlineAggVar(levels)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range series {
		whole.Add(v)
	}
	for _, cut := range []int{32, 2048, 4096, 8160} {
		a, _ := NewOnlineAggVar(levels)
		b, _ := NewOnlineAggVar(levels)
		for _, v := range series[:cut] {
			a.Add(v)
		}
		for _, v := range series[cut:] {
			b.Add(v)
		}
		if err := a.Merge(b); err != nil {
			t.Fatal(err)
		}
		if got, want := a.State(), whole.State(); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut=%d: merged state %+v, whole %+v", cut, got, want)
		}
	}
}

// TestOnlineAggVarMergeUnaligned: an arbitrary split realigns blocks
// and discards at most one partial tail block per level (the documented
// rule); the observation count still adds exactly and the estimate
// stays within a loose tolerance of the whole-series one.
func TestOnlineAggVarMergeUnaligned(t *testing.T) {
	const levels = 6
	rng := rand.New(rand.NewSource(61))
	series := make([]float64, 8192)
	for i := range series {
		series[i] = float64(rng.Intn(10))
	}
	whole, _ := NewOnlineAggVar(levels)
	for _, v := range series {
		whole.Add(v)
	}
	wantEst, err := whole.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		cut := 1 + rng.Intn(len(series)-1)
		a, _ := NewOnlineAggVar(levels)
		b, _ := NewOnlineAggVar(levels)
		for _, v := range series[:cut] {
			a.Add(v)
		}
		for _, v := range series[cut:] {
			b.Add(v)
		}
		if err := a.Merge(b); err != nil {
			t.Fatal(err)
		}
		if a.N() != int64(len(series)) {
			t.Fatalf("cut=%d: merged n %d", cut, a.N())
		}
		gotEst, err := a.Estimate()
		if err != nil {
			t.Fatalf("cut=%d: merged estimate failed: %v", cut, err)
		}
		// IID input, H ≈ 0.5 for both; block realignment shifts the
		// variances slightly, never wildly.
		if math.Abs(gotEst.H-wantEst.H) > 0.1 {
			t.Fatalf("cut=%d: merged H %v drifted from whole-series %v", cut, gotEst.H, wantEst.H)
		}
	}
}

// TestOnlineAggVarMergeCommutative: the block moments merge by integer
// addition; with both operands' partials empty (aligned feeds) the two
// merge orders leave identical state.
func TestOnlineAggVarMergeCommutative(t *testing.T) {
	const levels = 5 // widths 1..16
	rng := rand.New(rand.NewSource(67))
	feed := func(n int) *OnlineAggVar {
		o, _ := NewOnlineAggVar(levels)
		for i := 0; i < n; i++ {
			o.Add(float64(rng.Intn(10)))
		}
		return o
	}
	a, b := feed(1024), feed(2048)
	ab, _ := RestoreOnlineAggVar(a.State())
	if err := ab.Merge(b); err != nil {
		t.Fatal(err)
	}
	ba, _ := RestoreOnlineAggVar(b.State())
	if err := ba.Merge(a); err != nil {
		t.Fatal(err)
	}
	if s1, s2 := ab.State(), ba.State(); !reflect.DeepEqual(s1, s2) {
		t.Fatalf("merge order changed state:\n%+v\n%+v", s1, s2)
	}
}

// TestOnlineAggVarMergeThreeOperandOrders: three estimators fed counts
// and zero runs (padded to whole top-level blocks, so no partial is
// discarded) merge to the identical state in all six orders, with a
// zero run folded into the accumulator after every merge.
func TestOnlineAggVarMergeThreeOperandOrders(t *testing.T) {
	const levels = 6 // widths 1..32
	rng := rand.New(rand.NewSource(73))
	feed := func() *OnlineAggVar {
		o, _ := NewOnlineAggVar(levels)
		for step := 0; step < 30; step++ {
			if rng.Intn(2) == 0 {
				o.Add(float64(rng.Intn(50)))
			} else {
				o.AddZeros(rng.Int63n(200))
			}
		}
		o.AddZeros((32 - o.N()%32) % 32)
		return o
	}
	ops := []*OnlineAggVar{feed(), feed(), feed()}
	var want AggVarState
	for i, order := range [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		acc, err := RestoreOnlineAggVar(ops[order[0]].State())
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range order[1:] {
			if err := acc.Merge(ops[k]); err != nil {
				t.Fatal(err)
			}
			acc.AddZeros(64)
		}
		if i == 0 {
			want = acc.State()
			continue
		}
		if got := acc.State(); !reflect.DeepEqual(got, want) {
			t.Fatalf("order %v: state %+v, want %+v", order, got, want)
		}
	}
}

// TestOnlineAggVarMergeLevelMismatch: differing ladders are rejected.
func TestOnlineAggVarMergeLevelMismatch(t *testing.T) {
	a, _ := NewOnlineAggVar(5)
	b, _ := NewOnlineAggVar(6)
	if err := a.Merge(b); err == nil || !errors.Is(err, ErrBadParam) {
		t.Fatalf("level mismatch accepted: %v", err)
	}
}

// TestOnlineAggVarEstimateShortStream: levels with fewer than two
// complete blocks must never reach the regression — a one-block level
// has identically zero variance and its log would poison the fit. On a
// stream short enough that only degenerate levels exist the estimator
// reports ErrTooShort instead of emitting garbage.
func TestOnlineAggVarEstimateShortStream(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, n := range []int{1, 2, 3, 33, 65} {
		o, err := NewOnlineAggVar(6)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			o.Add(float64(rng.Intn(10)))
		}
		if _, err := o.Estimate(); !errors.Is(err, ErrTooShort) {
			t.Fatalf("n=%d: want ErrTooShort, got %v", n, err)
		}
	}
}
