package session

import (
	"fmt"
	"time"
)

// StreamerState is the checkpointable image of a Streamer. Active
// sessions are stored in last-activity order, least recently active
// first — the order the streamer closes equal-time sessions in — so
// restoring the list restores the close order with it.
type StreamerState struct {
	Threshold  time.Duration `json:"threshold"`
	Active     []Session     `json:"active"`
	LastTime   time.Time     `json:"last_time"`
	SawAny     bool          `json:"saw_any"`
	Opened     int64         `json:"opened"`
	PeakActive int           `json:"peak_active"`
	Clamped    int64         `json:"clamped"`
}

// State captures the streamer for checkpointing.
func (s *Streamer) State() StreamerState {
	st := StreamerState{
		Threshold:  s.threshold,
		Active:     make([]Session, 0, len(s.active)),
		LastTime:   s.lastTime,
		SawAny:     s.sawAny,
		Opened:     s.opened,
		PeakActive: s.peakActive,
		Clamped:    s.clamped,
	}
	for cur := s.head; cur != nil; cur = cur.next {
		st.Active = append(st.Active, cur.Session)
	}
	return st
}

// RestoreStreamer rebuilds a streamer from a checkpointed state,
// relinking the active sessions in their stored last-activity order.
// A list whose End times decrease, or that names a host twice, is
// rejected: no sequence of records produces it.
func RestoreStreamer(st StreamerState) (*Streamer, error) {
	s, err := NewStreamer(st.Threshold)
	if err != nil {
		return nil, fmt.Errorf("session: restoring streamer: %w", err)
	}
	for i, sess := range st.Active {
		if _, dup := s.active[sess.Host]; dup {
			return nil, fmt.Errorf("session: restoring streamer: duplicate active host %q", sess.Host)
		}
		if i > 0 && sess.End.Before(st.Active[i-1].End) {
			return nil, fmt.Errorf("session: restoring streamer: active host %q ends at %v, before its predecessor's %v",
				sess.Host, sess.End, st.Active[i-1].End)
		}
		cur := &activeSession{Session: sess}
		s.active[sess.Host] = cur
		s.pushBack(cur)
	}
	s.lastTime = st.LastTime
	s.sawAny = st.SawAny
	s.opened = st.Opened
	s.peakActive = st.PeakActive
	s.clamped = st.Clamped
	return s, nil
}
