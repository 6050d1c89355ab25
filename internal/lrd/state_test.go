package lrd

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

// TestOnlineAggVarRestoreBitExact: checkpoint mid-stream (with
// partially filled blocks at every level), restore, feed the same
// tail, and require identical moments — bit for bit, since resumed
// runs must render byte-identical snapshots.
func TestOnlineAggVarRestoreBitExact(t *testing.T) {
	orig, err := NewOnlineAggVar(10)
	if err != nil {
		t.Fatal(err)
	}
	val := func(i int) float64 { return math.Round(math.Sin(float64(i)*0.7)*5 + 10) }
	for i := 0; i < 12345; i++ { // not a power of two: partial blocks everywhere
		orig.Add(val(i))
	}
	restored, err := RestoreOnlineAggVar(orig.State())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig.State(), restored.State()) {
		t.Fatal("restore does not reproduce the captured state")
	}
	for i := 12345; i < 40000; i++ {
		orig.Add(val(i))
		restored.Add(val(i))
	}
	if !reflect.DeepEqual(orig.State(), restored.State()) {
		t.Fatal("restored estimator diverged on the tail")
	}
	a, errA := orig.Estimate()
	b, errB := restored.Estimate()
	if (errA == nil) != (errB == nil) {
		t.Fatalf("estimate availability diverged: %v vs %v", errA, errB)
	}
	if errA == nil && a != b {
		t.Fatalf("estimates diverged: %+v vs %+v", a, b)
	}
}

func TestRestoreOnlineAggVarRejectsBadState(t *testing.T) {
	if _, err := RestoreOnlineAggVar(AggVarState{}); err == nil {
		t.Fatal("empty state accepted")
	}
	st := AggVarState{Levels: []AggLevelState{{Width: 3}, {Width: 2}, {Width: 4}}}
	if _, err := RestoreOnlineAggVar(st); err == nil {
		t.Fatal("non-dyadic widths accepted")
	}
	o, _ := NewOnlineAggVar(3)
	for i := 0; i < 13; i++ { // 13 = 0b1101: level 1 has a filled, nonzero partial
		o.Add(float64(i%4 + 1))
	}
	for name, corrupt := range map[string]func(*AggLevelState){
		"filled == width":        func(l *AggLevelState) { l.Filled = l.Width },
		"negative filled":        func(l *AggLevelState) { l.Filled = -1 },
		"partial in empty block": func(l *AggLevelState) { l.Filled = 0 },
		"ΣS² below (ΣS)²/blocks": func(l *AggLevelState) { l.SumSqLo = 1 },
		"negative blocks":        func(l *AggLevelState) { l.Blocks = -1 },
	} {
		st := o.State()
		if st.Levels[1].Partial == 0 {
			t.Fatal("fixture lost its nonzero level-1 partial")
		}
		corrupt(&st.Levels[1])
		if _, err := RestoreOnlineAggVar(st); !errors.Is(err, ErrBadParam) {
			t.Errorf("%s: corrupt level accepted: %v", name, err)
		}
	}
	if _, err := RestoreOnlineAggVar(o.State()); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
}
