package lrd

import "fmt"

// AggVarState is the checkpointable image of an OnlineAggVar: every
// dyadic level's partially filled block and integer block moments.
type AggVarState struct {
	Levels []AggLevelState `json:"levels"`
	N      int64           `json:"n"`
}

// AggLevelState is one dyadic aggregation level. ΣS² is split into
// its high and low 64-bit words.
type AggLevelState struct {
	Width   int64  `json:"width"`
	Partial uint64 `json:"partial"`
	Filled  int64  `json:"filled"`
	Blocks  int64  `json:"blocks"`
	Sum     uint64 `json:"sum"`
	SumSqHi uint64 `json:"sum_sq_hi"`
	SumSqLo uint64 `json:"sum_sq_lo"`
}

// State captures the estimator for checkpointing.
func (o *OnlineAggVar) State() AggVarState {
	st := AggVarState{Levels: make([]AggLevelState, len(o.levels)), N: o.n}
	for j, l := range o.levels {
		st.Levels[j] = AggLevelState{
			Width:   l.width,
			Partial: l.partial,
			Filled:  l.filled,
			Blocks:  l.blocks,
			Sum:     l.sum,
			SumSqHi: l.sumSq.hi,
			SumSqLo: l.sumSq.lo,
		}
	}
	return st
}

// RestoreOnlineAggVar rebuilds an OnlineAggVar from a checkpointed
// state, rejecting level states no sequence of Add, AddZeros and Merge
// can produce.
func RestoreOnlineAggVar(st AggVarState) (*OnlineAggVar, error) {
	if len(st.Levels) == 0 {
		return nil, fmt.Errorf("%w: aggregated-variance state has no levels", ErrBadParam)
	}
	o, err := NewOnlineAggVar(len(st.Levels))
	if err != nil {
		return nil, err
	}
	for j, s := range st.Levels {
		l := &o.levels[j]
		if s.Width != l.width {
			return nil, fmt.Errorf("%w: level %d width %d, want %d", ErrBadParam, j, s.Width, l.width)
		}
		if s.Filled < 0 || s.Filled >= l.width || s.Blocks < 0 {
			return nil, fmt.Errorf("%w: level %d holds %d filled seconds and %d blocks", ErrBadParam, j, s.Filled, s.Blocks)
		}
		if s.Filled == 0 && s.Partial != 0 {
			return nil, fmt.Errorf("%w: level %d has partial sum %d in an empty block", ErrBadParam, j, s.Partial)
		}
		l.partial = s.Partial
		l.filled = s.Filled
		l.blocks = s.Blocks
		l.sum = s.Sum
		l.sumSq = uint128{hi: s.SumSqHi, lo: s.SumSqLo}
		if _, ok := l.spread(); !ok {
			return nil, fmt.Errorf("%w: level %d moments have blocks·ΣS² < (ΣS)²", ErrBadParam, j)
		}
	}
	o.n = st.N
	return o, nil
}
