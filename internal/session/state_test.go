package session

import (
	"reflect"
	"testing"
	"time"

	"fullweb/internal/weblog"
)

func recAt(host string, at time.Time) weblog.Record {
	return weblog.Record{Host: host, Time: at, Method: "GET", Path: "/", Proto: "HTTP/1.0", Status: 200, Bytes: 10}
}

func TestObserveClamped(t *testing.T) {
	s, err := NewStreamer(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2004, 1, 12, 10, 0, 0, 0, time.UTC)
	if _, err := s.ObserveClamped(recAt("a", t0)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ObserveClamped(recAt("b", t0.Add(5*time.Second))); err != nil {
		t.Fatal(err)
	}
	// A record 3s in the past: clamped to the stream clock, not rejected.
	if _, err := s.ObserveClamped(recAt("a", t0.Add(2*time.Second))); err != nil {
		t.Fatalf("backwards record rejected: %v", err)
	}
	if s.Clamped() != 1 {
		t.Fatalf("Clamped() = %d, want 1", s.Clamped())
	}
	if !s.LastTime().Equal(t0.Add(5 * time.Second)) {
		t.Fatalf("stream clock moved backwards: %v", s.LastTime())
	}
	// The clamped record landed at the clock: host a's session now ends
	// at t0+5s, so it survives eviction until threshold past that.
	closed := s.Flush()
	if len(closed) != 2 {
		t.Fatalf("flushed %d sessions, want 2", len(closed))
	}
	for _, sess := range closed {
		if sess.Host == "a" {
			if !sess.End.Equal(t0.Add(5 * time.Second)) {
				t.Fatalf("clamped session ends at %v, want clock", sess.End)
			}
			if sess.Requests != 2 {
				t.Fatalf("clamped session has %d requests, want 2", sess.Requests)
			}
		}
	}
	// Plain Observe still rejects backwards time.
	if _, err := s.Observe(recAt("c", t0)); err != nil {
		t.Fatalf("post-flush observe: %v", err)
	}
	if _, err := s.Observe(recAt("c", t0.Add(-time.Second))); err == nil {
		t.Fatal("Observe accepted backwards time")
	}
}

// TestStreamerStateRoundTrip: checkpoint mid-stream, restore, and
// require the restored streamer to emit exactly what the original
// emits for the remaining records — including the close order of
// sessions that end at the same time, which is last-activity order
// (the input order of each host's last record), live and after
// restore.
func TestStreamerStateRoundTrip(t *testing.T) {
	t0 := time.Date(2004, 1, 12, 10, 0, 0, 0, time.UTC)
	feed := []weblog.Record{
		recAt("a", t0),
		recAt("b", t0.Add(2*time.Second)),
		recAt("c", t0.Add(2*time.Second)),
		recAt("a", t0.Add(20*time.Second)),
		// Four sessions end at t0+25s; c's last record comes last.
		recAt("d", t0.Add(25*time.Second)),
		recAt("f", t0.Add(25*time.Second)),
		recAt("g", t0.Add(25*time.Second)),
		recAt("c", t0.Add(25*time.Second)),
	}
	tail := []weblog.Record{
		recAt("b", t0.Add(50*time.Second)),
		recAt("e", t0.Add(90*time.Second)),
		recAt("a", t0.Add(400*time.Second)),
	}
	run := func(s *Streamer, recs []weblog.Record) []Session {
		var out []Session
		for _, r := range recs {
			closed, err := s.ObserveClamped(r)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, closed...)
		}
		return out
	}
	orig, err := NewStreamer(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	run(orig, feed)
	st := orig.State()
	restored, err := RestoreStreamer(st)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, restored.State()) {
		t.Fatal("restore does not reproduce the captured state")
	}
	if got, want := hostsOf(st.Active), []string{"b", "a", "d", "f", "g", "c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("checkpointed active list %v, want last-activity order %v", got, want)
	}
	a, b := run(orig, tail), run(restored, tail)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("restored streamer diverged:\norig     %+v\nrestored %+v", a, b)
	}
	// b closes at t0+50s; the record at t0+90s closes a, then the four
	// t0+25s ties in the order their hosts last spoke, then b's second
	// session; e closes at t0+400s.
	if got, want := hostsOf(a), []string{"b", "a", "d", "f", "g", "c", "b", "e"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("close order %v, want %v", got, want)
	}
	af, bf := orig.Flush(), restored.Flush()
	if !reflect.DeepEqual(af, bf) {
		t.Fatalf("flush diverged:\norig     %+v\nrestored %+v", af, bf)
	}
	if orig.OpenedTotal() != restored.OpenedTotal() || orig.PeakActiveSessions() != restored.PeakActiveSessions() {
		t.Fatalf("counters diverged: opened %d/%d peak %d/%d",
			orig.OpenedTotal(), restored.OpenedTotal(), orig.PeakActiveSessions(), restored.PeakActiveSessions())
	}
}

func hostsOf(sessions []Session) []string {
	hosts := make([]string, len(sessions))
	for i, s := range sessions {
		hosts[i] = s.Host
	}
	return hosts
}

func TestRestoreStreamerRejectsBadState(t *testing.T) {
	if _, err := RestoreStreamer(StreamerState{Threshold: 0}); err == nil {
		t.Fatal("zero threshold accepted")
	}
	st := StreamerState{
		Threshold: time.Second,
		Active: []Session{
			{Host: "a", Requests: 1},
			{Host: "a", Requests: 2},
		},
	}
	if _, err := RestoreStreamer(st); err == nil {
		t.Fatal("duplicate active host accepted")
	}
	t0 := time.Date(2004, 1, 12, 10, 0, 0, 0, time.UTC)
	st.Active = []Session{
		{Host: "a", Start: t0, End: t0.Add(2 * time.Second), Requests: 2},
		{Host: "b", Start: t0, End: t0.Add(time.Second), Requests: 2},
	}
	if _, err := RestoreStreamer(st); err == nil {
		t.Fatal("active list with decreasing End times accepted")
	}
	st.Active[0], st.Active[1] = st.Active[1], st.Active[0]
	if _, err := RestoreStreamer(st); err != nil {
		t.Fatalf("active list in End order rejected: %v", err)
	}
}
