package stream

import (
	"fmt"
	"math"
	"sort"
)

// MinQuantileCap is the smallest accepted quantile-sketch capacity.
const MinQuantileCap = 16

// DefaultQuantileCap is the engine's default level-0 buffer size,
// matching the Hill reservoir default so the exact regimes of the two
// sketches coincide.
const DefaultQuantileCap = 8192

// QuantileSketch is a deterministic mergeable quantile sketch in the
// Munro–Paterson / MRL family: a flat buffer of weight-1 observations
// plus a ladder of sorted buffers whose items carry weight 2^h. When
// the level-0 buffer fills it is sorted and promoted; when two buffers
// of equal weight meet they are merge-sorted and compacted to half
// size by keeping alternating elements (the alternation offset flips
// deterministically per height, so the sketch is a pure function of
// the observation sequence — no randomness, unlike sampled KLL).
//
// While fewer than 2×capacity observations have arrived no compaction
// has happened and every quantile is exact, computed with the same
// interpolation convention as stats.Quantile — so below capacity the
// streaming quantiles coincide with the batch pipeline's exactly, and
// merging shard sketches is both exact and partition-independent.
// Beyond that the rank error of a query is bounded by roughly
// log2(n/capacity)/(2·capacity) of the stream length per compacted
// level; the engine-facing tolerance is documented in DESIGN.md §12.
//
// The sketch has an associative Merge, which is what makes sharded and
// map-reduce analysis possible. Not safe for concurrent use.
type QuantileSketch struct {
	cap    int
	n      int64
	buf    []float64   // weight-1 items in arrival order, len < cap
	levels [][]float64 // levels[h]: nil, or exactly cap sorted items of weight 2^h
	flips  []bool      // per-height compaction offset alternation
}

// NewQuantileSketch returns a sketch whose level-0 buffer holds
// capacity observations (even, >= MinQuantileCap).
func NewQuantileSketch(capacity int) (*QuantileSketch, error) {
	if capacity < MinQuantileCap {
		return nil, fmt.Errorf("%w: quantile sketch capacity %d (need >= %d)", ErrBadConfig, capacity, MinQuantileCap)
	}
	if capacity%2 != 0 {
		return nil, fmt.Errorf("%w: quantile sketch capacity %d must be even", ErrBadConfig, capacity)
	}
	return &QuantileSketch{cap: capacity, buf: make([]float64, 0, capacity)}, nil
}

// Cap returns the level-0 buffer capacity.
func (s *QuantileSketch) Cap() int { return s.cap }

// N returns the observation count.
func (s *QuantileSketch) N() int64 { return s.n }

// Stored returns the number of retained items across the level-0
// buffer and the compacted ladder — the sketch's live memory footprint
// in items, surfaced as a telemetry gauge.
func (s *QuantileSketch) Stored() int {
	n := len(s.buf)
	for _, lv := range s.levels {
		n += len(lv)
	}
	return n
}

// Observe feeds one value.
func (s *QuantileSketch) Observe(v float64) {
	s.n++
	s.add(v)
}

// add appends to the level-0 buffer, promoting it when full; the
// caller accounts n (Observe per value, Merge in one step).
func (s *QuantileSketch) add(v float64) {
	s.buf = append(s.buf, v)
	if len(s.buf) == s.cap {
		full := make([]float64, s.cap)
		copy(full, s.buf)
		sort.Float64s(full)
		s.buf = s.buf[:0]
		s.place(full, 0)
	}
}

// place inserts a sorted buffer of weight 2^h at height h, cascading
// compactions while the slot is occupied.
func (s *QuantileSketch) place(carry []float64, h int) {
	for {
		for len(s.levels) <= h {
			s.levels = append(s.levels, nil)
			s.flips = append(s.flips, false)
		}
		if s.levels[h] == nil {
			s.levels[h] = carry
			return
		}
		merged := mergeSorted(s.levels[h], carry)
		s.levels[h] = nil
		carry = compactHalf(merged, s.flips[h])
		s.flips[h] = !s.flips[h]
		h++
	}
}

// mergeSorted merges two sorted slices into a fresh sorted slice.
func mergeSorted(a, b []float64) []float64 {
	out := make([]float64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// compactHalf keeps every other element of a sorted slice, starting at
// index 1 when odd is set — the deterministic replacement for KLL's
// coin flip. Alternating the offset per height cancels the systematic
// rank bias a fixed offset would accumulate.
func compactHalf(m []float64, odd bool) []float64 {
	start := 0
	if odd {
		start = 1
	}
	out := make([]float64, 0, len(m)/2)
	for i := start; i < len(m); i += 2 {
		out = append(out, m[i])
	}
	return out
}

// Merge folds another sketch into s. The operand's partial buffer is
// replayed in its arrival order, then its full buffers are placed
// height by height (descending), so the result is a deterministic
// function of the two states. Merging is exact — identical to having
// fed one sketch the concatenated stream — while the combined count
// stays below 2×capacity, and partition-independent in that regime;
// past it, results depend on the documented merge order with the same
// rank-error bound as sequential feeding. The operand is not modified.
func (s *QuantileSketch) Merge(o *QuantileSketch) error {
	if o == nil {
		return nil
	}
	if s.cap != o.cap {
		return fmt.Errorf("%w: merging quantile sketches with capacities %d and %d", ErrBadConfig, s.cap, o.cap)
	}
	s.n += o.n
	for _, v := range o.buf {
		s.add(v)
	}
	for h := len(o.levels) - 1; h >= 0; h-- {
		if o.levels[h] == nil {
			continue
		}
		carry := make([]float64, len(o.levels[h]))
		copy(carry, o.levels[h])
		s.place(carry, h)
	}
	return nil
}

// Quantile returns the current estimate of the p-quantile (0 <= p <=
// 1): NaN before any observation, otherwise the weighted-rank read-off
// using the stats.Quantile interpolation convention, which makes the
// pre-compaction regime exactly the batch quantile.
func (s *QuantileSketch) Quantile(p float64) float64 {
	if s.n == 0 || math.IsNaN(p) || p < 0 || p > 1 {
		return math.NaN()
	}
	pts := make([]weightedVal, 0, len(s.buf)+len(s.levels)*s.cap)
	for _, v := range s.buf {
		pts = append(pts, weightedVal{v, 1})
	}
	for h, lvl := range s.levels {
		w := int64(1) << uint(h)
		for _, v := range lvl {
			pts = append(pts, weightedVal{v, w})
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].v < pts[j].v })
	// Weighted analogue of stats.Quantile: item k of the expanded
	// multiset occupies ranks [cum, cum+w); interpolate between the
	// values at ranks floor(h) and floor(h)+1 for h = p*(n-1).
	h := p * float64(s.n-1)
	lo := int64(math.Floor(h))
	vLo := rankValue(pts, lo)
	hi := lo + 1
	if hi >= s.n {
		return vLo
	}
	frac := h - float64(lo)
	if frac == 0 {
		return vLo
	}
	return vLo*(1-frac) + rankValue(pts, hi)*frac
}

// weightedVal is one sketch point during a quantile read-off: a value
// standing in for w observations.
type weightedVal struct {
	v float64
	w int64
}

// rankValue returns the value at integer rank r of the expanded
// weighted multiset (pts sorted by value).
func rankValue(pts []weightedVal, r int64) float64 {
	var cum int64
	for _, pt := range pts {
		cum += pt.w
		if r < cum {
			return pt.v
		}
	}
	return pts[len(pts)-1].v
}

// QuantileSketchState is the checkpointable image of a QuantileSketch:
// the partial buffer in arrival order, every full level verbatim and
// the compaction parities — enough to make a restored sketch
// byte-identical to the live one.
type QuantileSketchState struct {
	Cap    int         `json:"cap"`
	N      int64       `json:"n"`
	Buf    []float64   `json:"buf,omitempty"`
	Levels [][]float64 `json:"levels,omitempty"`
	Flips  []bool      `json:"flips,omitempty"`
}

// State captures the sketch for checkpointing.
func (s *QuantileSketch) State() QuantileSketchState {
	st := QuantileSketchState{Cap: s.cap, N: s.n}
	st.Buf = append([]float64(nil), s.buf...)
	for _, lvl := range s.levels {
		if lvl == nil {
			st.Levels = append(st.Levels, nil)
			continue
		}
		st.Levels = append(st.Levels, append([]float64(nil), lvl...))
	}
	st.Flips = append([]bool(nil), s.flips...)
	return st
}

// RestoreQuantileSketch rebuilds a sketch from a checkpointed state,
// verifying the structural invariants (level sizes, sortedness, and
// that the total weight accounts for exactly N observations) so a
// corrupted checkpoint is rejected instead of silently skewing
// quantiles.
func RestoreQuantileSketch(st QuantileSketchState) (*QuantileSketch, error) {
	s, err := NewQuantileSketch(st.Cap)
	if err != nil {
		return nil, err
	}
	if len(st.Buf) >= st.Cap {
		return nil, fmt.Errorf("%w: quantile sketch buffer holds %d of %d", ErrBadConfig, len(st.Buf), st.Cap)
	}
	if len(st.Flips) != len(st.Levels) {
		return nil, fmt.Errorf("%w: quantile sketch has %d levels, %d parities", ErrBadConfig, len(st.Levels), len(st.Flips))
	}
	weight := int64(len(st.Buf))
	for h, lvl := range st.Levels {
		if lvl == nil {
			continue
		}
		if len(lvl) != st.Cap {
			return nil, fmt.Errorf("%w: quantile sketch level %d holds %d of %d", ErrBadConfig, h, len(lvl), st.Cap)
		}
		if !sort.Float64sAreSorted(lvl) {
			return nil, fmt.Errorf("%w: quantile sketch level %d not sorted", ErrBadConfig, h)
		}
		weight += int64(st.Cap) << uint(h)
	}
	if weight != st.N {
		return nil, fmt.Errorf("%w: quantile sketch weight %d for n %d", ErrBadConfig, weight, st.N)
	}
	s.n = st.N
	s.buf = append(s.buf, st.Buf...)
	for _, lvl := range st.Levels {
		if lvl == nil {
			s.levels = append(s.levels, nil)
			continue
		}
		s.levels = append(s.levels, append([]float64(nil), lvl...))
	}
	s.flips = append([]bool(nil), st.Flips...)
	return s, nil
}
