package lrd

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"fullweb/internal/fgn"
	"fullweb/internal/stats"
	"fullweb/internal/timeseries"
)

// TestOnlineAggVarLevelVariancesExact checks the core bookkeeping: after
// n observations, each dyadic level holds exactly the block count and
// block-sum total of the m-aggregated series over its complete blocks,
// and its variance is the population variance the batch path computes
// with timeseries.Aggregate.
func TestOnlineAggVarLevelVariancesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 4096
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Round(rng.ExpFloat64() * 10)
	}
	o, err := NewOnlineAggVar(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range x {
		o.Add(v)
	}
	if o.N() != int64(n) {
		t.Fatalf("N = %d, want %d", o.N(), n)
	}
	for j := 0; j < 8; j++ {
		m := 1 << j
		agg, err := timeseries.Aggregate(x, m)
		if err != nil {
			t.Fatal(err)
		}
		want, err := stats.PopulationVariance(agg)
		if err != nil {
			t.Fatal(err)
		}
		l := o.levels[j]
		if l.blocks != int64(len(agg)) {
			t.Fatalf("level %d has %d blocks, want %d", j, l.blocks, len(agg))
		}
		var sum float64
		for _, a := range agg {
			sum += a * float64(m)
		}
		if float64(l.sum) != sum {
			t.Fatalf("level %d block sums total %d, want %v", j, l.sum, sum)
		}
		got := l.variance()
		if math.Abs(got-want) > 1e-9*math.Max(1, want) {
			t.Errorf("level %d variance %v, want %v", j, got, want)
		}
	}
}

// TestOnlineAggVarWhiteNoise: iid counts have H = 0.5; the streaming
// estimator must land close to it.
func TestOnlineAggVarWhiteNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	o, err := NewOnlineAggVar(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1<<14; i++ {
		o.Add(float64(rng.Intn(100)))
	}
	est, err := o.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if est.Method != AggregatedVariance {
		t.Errorf("method %v", est.Method)
	}
	if est.HasCI {
		t.Error("HasCI should be false, matching the batch estimator")
	}
	if math.Abs(est.H-0.5) > 0.08 {
		t.Errorf("white-noise H = %v, want ~0.5", est.H)
	}
}

// TestOnlineAggVarMatchesBatchOnFGN is the tolerance contract of
// DESIGN.md §10: on a long-range dependent count series (fGn with
// H = 0.8 shifted and scaled into whole per-second counts) the
// streaming dyadic estimate agrees with the batch log-spaced-grid
// estimate on the same counts within |ΔH| <= 0.1, and both sit near
// the planted H.
func TestOnlineAggVarMatchesBatchOnFGN(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x, err := fgn.Generate(rng, 0.8, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		x[i] = math.Max(0, math.Round(1000+100*v))
	}
	batch, err := EstimateAggregatedVariance(x)
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewOnlineAggVar(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range x {
		o.Add(v)
	}
	online, err := o.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(online.H - batch.H); d > 0.1 {
		t.Errorf("streaming H %v vs batch %v: |ΔH| = %v > 0.1", online.H, batch.H, d)
	}
	if math.Abs(online.H-0.8) > 0.15 {
		t.Errorf("streaming H %v too far from planted 0.8", online.H)
	}
}

// TestOnlineAggVarEstimateIsRepeatable: Estimate must not mutate state,
// so calling it at every snapshot is safe.
func TestOnlineAggVarEstimateIsRepeatable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	o, _ := NewOnlineAggVar(0)
	for i := 0; i < 2048; i++ {
		o.Add(float64(rng.Intn(10)))
	}
	a, err := o.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := o.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("repeated Estimate differs: %+v vs %+v", a, b)
	}
	// And keeps accepting data afterwards.
	o.Add(1)
	if o.N() != 2049 {
		t.Errorf("N after post-estimate Add = %d", o.N())
	}
}

func TestOnlineAggVarErrors(t *testing.T) {
	if _, err := NewOnlineAggVar(41); !errors.Is(err, ErrBadParam) {
		t.Errorf("41 levels accepted: %v", err)
	}
	o, err := NewOnlineAggVar(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.levels) != DefaultAggVarLevels {
		t.Errorf("default levels = %d", len(o.levels))
	}
	// Too few observations for three usable levels.
	for i := 0; i < 40; i++ {
		o.Add(float64(i % 3))
	}
	if _, err := o.Estimate(); !errors.Is(err, ErrTooShort) {
		t.Errorf("want ErrTooShort on short stream, got %v", err)
	}
	// A constant series has zero variance at every level: degenerate.
	c, _ := NewOnlineAggVar(0)
	for i := 0; i < 1024; i++ {
		c.Add(5)
	}
	if _, err := c.Estimate(); err == nil {
		t.Error("constant series produced an estimate")
	}
}

func TestOnlineAggVarLevelsCounter(t *testing.T) {
	o, _ := NewOnlineAggVar(6)
	if o.Levels() != 0 {
		t.Fatalf("fresh estimator reports %d levels", o.Levels())
	}
	rng := rand.New(rand.NewSource(2))
	// 32 blocks at width 4 need 128 observations; width 8 needs 256.
	for i := 0; i < 128; i++ {
		o.Add(float64(rng.Intn(10)))
	}
	if got := o.Levels(); got != 3 {
		t.Errorf("after 128 observations Levels = %d, want 3 (m=1,2,4)", got)
	}
	for i := 0; i < 128; i++ {
		o.Add(float64(rng.Intn(10)))
	}
	if got := o.Levels(); got != 4 {
		t.Errorf("after 256 observations Levels = %d, want 4", got)
	}
}

// TestOnlineAggVarAddZerosBitIdentical is the contract AddZeros ships
// under: any interleaving of Add and AddZeros must leave every level's
// full state — partial, filled, blocks, ΣS, ΣS² — equal to the same run
// with AddZeros(k) spelled as k sequential Add(0) calls.
func TestOnlineAggVarAddZerosBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 50; trial++ {
		fast, err := NewOnlineAggVar(10)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := NewOnlineAggVar(10)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 40; step++ {
			if rng.Intn(2) == 0 {
				v := float64(rng.Intn(40))
				fast.Add(v)
				slow.Add(v)
				continue
			}
			// Gap lengths spanning sub-block to many-block at every
			// level, including the zero-length no-op.
			k := rng.Int63n(1 << uint(rng.Intn(13)))
			fast.AddZeros(k)
			for i := int64(0); i < k; i++ {
				slow.Add(0)
			}
		}
		if fast.n != slow.n {
			t.Fatalf("trial %d: n = %d, want %d", trial, fast.n, slow.n)
		}
		for j := range fast.levels {
			f, s := fast.levels[j], slow.levels[j]
			if f != s {
				t.Fatalf("trial %d level %d: AddZeros state %+v, sequential Add(0) state %+v", trial, j, f, s)
			}
		}
	}
}

// TestOnlineAggVarAddZerosHugeGap: a zero run costs O(levels) whatever
// its length, so a 2^50-second gap folds at once and counts its blocks
// exactly.
func TestOnlineAggVarAddZerosHugeGap(t *testing.T) {
	o, err := NewOnlineAggVar(0)
	if err != nil {
		t.Fatal(err)
	}
	o.Add(3)
	o.AddZeros(1 << 50)
	if o.N() != 1<<50+1 {
		t.Fatalf("N = %d", o.N())
	}
	for j, l := range o.levels {
		if want := int64(1<<50+1) / l.width; l.blocks != want {
			t.Fatalf("level %d holds %d blocks, want %d", j, l.blocks, want)
		}
		if l.sum != 3 || l.sumSq != (uint128{lo: 9}) {
			t.Fatalf("level %d moments ΣS=%d ΣS²=%+v, want 3 and 9", j, l.sum, l.sumSq)
		}
	}
}

// TestOnlineAggVarAddRejectsNonCounts: Add takes per-second counts;
// fractions, negatives, NaN and values past 2^53 are caller bugs and
// panic rather than corrupt the integer moments.
func TestOnlineAggVarAddRejectsNonCounts(t *testing.T) {
	for _, v := range []float64{0.5, -1, math.NaN(), math.Inf(1), 1 << 53} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%v) did not panic", v)
				}
			}()
			o, _ := NewOnlineAggVar(4)
			o.Add(v)
		}()
	}
	o, _ := NewOnlineAggVar(4)
	o.Add(0)
	o.Add(1<<53 - 1)
	if o.N() != 2 {
		t.Fatalf("N = %d after two valid counts", o.N())
	}
}
