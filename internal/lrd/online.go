package lrd

import (
	"fmt"
	"math"
	"math/bits"

	"fullweb/internal/stats"
)

// OnlineAggVar is the streaming counterpart of
// EstimateAggregatedVariance: it maintains the variance-time statistics
// of a counting series incrementally, folding each new one-second count
// into dyadic aggregation levels m = 1, 2, 4, ..., 2^(L-1). Level j
// accumulates consecutive blocks of 2^j counts into integer block sums
// S and keeps exact integer moments of the completed blocks: their
// number, ΣS and ΣS². After n observations each level therefore holds
// the exact population variance of the m-aggregated series over its
// complete blocks — the quantity the variance-time regression
// log Var(X^(m)) ~ (2H-2) log m reads off — in O(L) memory,
// independent of n. Faÿ/Roueff/Soulier (arXiv:math/0509371) show the
// memory parameter of an arrival process is identifiable from exactly
// such aggregated counts.
//
// Because the state is integer, it is exact by construction: zero runs
// fold in O(levels), merges are integer additions (associative and
// commutative), and a checkpoint restores it bit for bit. Floating
// point enters only in Estimate.
//
// The estimate differs from the batch estimator only in the aggregation
// grid (dyadic levels versus ~25 log-spaced ones) and block alignment;
// the documented tolerance between the two is |ΔH| <= 0.1 on series the
// batch estimator accepts (DESIGN.md §10).
//
// Not safe for concurrent use; the stream engine feeds it from one
// goroutine.
type OnlineAggVar struct {
	levels []aggLevel
	n      int64
}

// aggLevel tracks one dyadic aggregation level: the partially filled
// current block and the integer moments of the completed block sums.
// The moments cannot overflow while the total of all counts fed stays
// below 2^64: ΣS is bounded by that total and ΣS² by its square.
type aggLevel struct {
	width   int64  // block size m = 2^j
	partial uint64 // sum of the current block's counts so far
	filled  int64  // counts in the current block
	blocks  int64  // completed blocks
	sum     uint64 // ΣS over completed blocks
	sumSq   uint128
}

// uint128 is an unsigned 128-bit integer, the width ΣS² needs.
type uint128 struct{ hi, lo uint64 }

// add returns x + y modulo 2^128.
func (x uint128) add(y uint128) uint128 {
	lo, carry := bits.Add64(x.lo, y.lo, 0)
	return uint128{hi: x.hi + y.hi + carry, lo: lo}
}

// square returns v² as a uint128.
func square(v uint64) uint128 {
	hi, lo := bits.Mul64(v, v)
	return uint128{hi: hi, lo: lo}
}

// DefaultAggVarLevels is the default number of dyadic levels: level 17
// aggregates 2^17 seconds (~36 hours), beyond the coarsest scale a
// one-week trace can support with enough blocks.
const DefaultAggVarLevels = 18

// aggVarMinBlocks is the minimum number of completed blocks a level
// needs before its variance enters the regression — the streaming
// analogue of the batch estimator capping m at n/32.
const aggVarMinBlocks = 32

// maxCount bounds the counts Add accepts: every whole number below it
// converts to uint64 and back to float64 exactly.
const maxCount = 1 << 53

// errNotCount is Add's panic message: a value that is not a per-second
// count is a caller bug, not an input condition.
const errNotCount = "lrd: OnlineAggVar.Add needs a whole-number count in [0, 2^53)"

// NewOnlineAggVar returns a streaming aggregated-variance estimator
// with the given number of dyadic levels (DefaultAggVarLevels when
// maxLevels <= 0; capped at 40).
func NewOnlineAggVar(maxLevels int) (*OnlineAggVar, error) {
	if maxLevels <= 0 {
		maxLevels = DefaultAggVarLevels
	}
	if maxLevels > 40 {
		return nil, fmt.Errorf("%w: %d aggregation levels", ErrBadParam, maxLevels)
	}
	o := &OnlineAggVar{levels: make([]aggLevel, maxLevels)}
	for j := range o.levels {
		o.levels[j].width = 1 << j
	}
	return o, nil
}

// Add folds one observation — the next one-second count, a whole number
// in [0, 2^53) — into every aggregation level. Any other value panics.
//
//hot:path — one call per trace second that saw an event.
func (o *OnlineAggVar) Add(v float64) {
	if !(v >= 0 && v < maxCount) || float64(uint64(v)) != v {
		panic(errNotCount)
	}
	c := uint64(v)
	o.n++
	for j := range o.levels {
		l := &o.levels[j]
		l.partial += c
		l.filled++
		if l.filled == l.width {
			l.complete()
		}
	}
}

// complete folds the finished current block into the level's moments
// and starts an empty block.
func (l *aggLevel) complete() {
	l.blocks++
	l.sum += l.partial
	l.sumSq = l.sumSq.add(square(l.partial))
	l.partial = 0
	l.filled = 0
}

// AddZeros folds k consecutive zero observations into every aggregation
// level, with the same resulting state as calling Add(0) k times. A
// zero block adds nothing to ΣS or ΣS², so past the in-progress block a
// gap only counts whole blocks: O(levels) work whatever the gap length.
// Idle gaps in sparse traces are exactly such zero runs.
//
//hot:path — one call per idle gap between event seconds.
func (o *OnlineAggVar) AddZeros(k int64) {
	if k <= 0 {
		return
	}
	o.n += k
	for j := range o.levels {
		l := &o.levels[j]
		left := k
		if l.filled > 0 {
			// Finish the in-progress block first: it still owes the
			// pre-gap partial sum.
			need := l.width - l.filled
			if left < need {
				l.filled += left
				continue
			}
			left -= need
			l.complete()
		}
		l.blocks += left / l.width
		l.filled = left % l.width
	}
}

// N returns the number of observations folded in so far.
func (o *OnlineAggVar) N() int64 { return o.n }

// Merge folds another estimator's dyadic levels into o, pairwise by
// level: the completed-block moments and the observation counts add,
// and — the documented tail rule — the operand's partially filled tail
// block at every level is discarded (the receiver keeps its own
// partial). Both estimators must have the same number of levels. The
// additions are integer, so merging is associative and commutative in
// the completed-block state exactly.
//
// Two merge semantics share this one operation. Merging estimators fed
// consecutive segments of ONE series approximates the whole-series
// estimator: at levels where the segment lengths are multiples of the
// block width the blocks are identical and the merge is exact;
// elsewhere blocks realign and at most one partial block per level per
// operand is lost (tolerance in DESIGN.md §12). Merging estimators fed
// DIFFERENT series (per-shard arrival processes) pools their block
// populations — the per-partition aggregate view that the Rolls (2010)
// reduced-LRD comparison reads against the true summed-series
// estimate, not a substitute for it.
func (o *OnlineAggVar) Merge(other *OnlineAggVar) error {
	if len(o.levels) != len(other.levels) {
		return fmt.Errorf("%w: merging aggregated-variance estimators with %d and %d levels",
			ErrBadParam, len(o.levels), len(other.levels))
	}
	o.n += other.n
	for j := range o.levels {
		a, b := &o.levels[j], &other.levels[j]
		a.blocks += b.blocks
		a.sum += b.sum
		a.sumSq = a.sumSq.add(b.sumSq)
	}
	return nil
}

// spread returns blocks·ΣS² − (ΣS)², the exact numerator of the block
// sums' population variance blocks²·Var(S), and whether it is
// non-negative (it is for any state Add, AddZeros and Merge produce).
// The product needs 192 bits; the result is converted to float64 only
// at the end.
func (l *aggLevel) spread() (float64, bool) {
	// blocks·ΣS² as a 192-bit (p2, p1, p0).
	b := uint64(l.blocks)
	h1, p0 := bits.Mul64(b, l.sumSq.lo)
	h2, m := bits.Mul64(b, l.sumSq.hi)
	p1, carry := bits.Add64(m, h1, 0)
	p2 := h2 + carry
	// Subtract (ΣS)², a 128-bit value.
	sq := square(l.sum)
	var borrow uint64
	p0, borrow = bits.Sub64(p0, sq.lo, 0)
	p1, borrow = bits.Sub64(p1, sq.hi, borrow)
	p2, borrow = bits.Sub64(p2, 0, borrow)
	if borrow != 0 {
		return 0, false
	}
	return math.Ldexp(float64(p2), 128) + math.Ldexp(float64(p1), 64) + float64(p0), true
}

// variance returns the population variance of the level's completed
// block means S/m: (blocks·ΣS² − (ΣS)²) / (blocks·m)².
func (l *aggLevel) variance() float64 {
	num, _ := l.spread()
	bm := float64(l.blocks) * float64(l.width)
	return num / bm / bm
}

// Estimate runs the variance-time regression over the levels that have
// accumulated enough complete blocks and returns the Hurst estimate
// H = 1 + slope/2, exactly as the batch estimator does. It needs at
// least three usable levels (ErrTooShort otherwise) and a non-degenerate
// series (ErrDegenerate). The estimator keeps accumulating afterwards;
// Estimate can be called at every snapshot.
func (o *OnlineAggVar) Estimate() (Estimate, error) {
	var logM, logV []float64
	for j := range o.levels {
		l := &o.levels[j]
		// A level needs at least 2 complete blocks before its variance
		// means anything at all — with one block the spread is
		// identically zero, and log-transforming such a degenerate
		// point would poison the regression. The min-blocks policy
		// below is stricter today, but this invariant must hold even if
		// that policy is tuned down, so it is enforced on its own.
		if l.blocks < 2 {
			continue
		}
		if l.blocks < aggVarMinBlocks {
			continue
		}
		v := l.variance()
		if v <= 0 {
			continue
		}
		logM = append(logM, math.Log10(float64(l.width)))
		logV = append(logV, math.Log10(v))
	}
	if len(logM) < 3 {
		return Estimate{}, fmt.Errorf("%w: %d usable aggregation levels after %d observations", ErrTooShort, len(logM), o.n)
	}
	fit, err := stats.LinearRegression(logM, logV)
	if err != nil {
		return Estimate{}, ErrDegenerate
	}
	h := 1 + fit.Slope/2
	se := fit.SlopeSE / 2
	return Estimate{
		Method:   AggregatedVariance,
		H:        h,
		StdErr:   se,
		CI95Low:  h - 1.96*se,
		CI95High: h + 1.96*se,
		HasCI:    false, // same convention as the batch estimator
		R2:       fit.R2,
	}, nil
}

// Levels returns how many aggregation levels currently have enough
// complete blocks to contribute to the regression.
func (o *OnlineAggVar) Levels() int {
	n := 0
	for j := range o.levels {
		if o.levels[j].blocks >= aggVarMinBlocks {
			n++
		}
	}
	return n
}
