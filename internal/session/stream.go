package session

import (
	"fmt"
	"time"

	"fullweb/internal/weblog"
)

// Streamer sessionizes a log incrementally in a single time-ordered
// pass, holding only the currently open sessions in memory. Sessions are
// emitted as soon as their inactivity gap is provably exceeded, so
// arbitrarily long logs can be processed with memory proportional to
// the number of concurrently active users — the production counterpart
// of the batch Sessionize used by the analyses.
type Streamer struct {
	threshold time.Duration
	active    map[string]*activeSession
	// head and tail delimit the active sessions in last-activity order:
	// head is the least recently active. Record times never decrease,
	// so the list is also in non-decreasing End order, and eviction
	// only ever looks at its head.
	head, tail *activeSession
	lastTime   time.Time
	sawAny     bool
	opened     int64
	// peakActive is the high-water mark of concurrently open sessions —
	// the quantity that bounds the streamer's live memory, tracked so
	// bounded-memory regression tests can assert it stays flat as trace
	// length grows.
	peakActive int
	// clamped counts records whose timestamps ran backwards and were
	// clamped to the stream clock by ObserveClamped.
	clamped int64
}

// activeSession is an open session and its links in the streamer's
// last-activity list.
type activeSession struct {
	Session
	prev, next *activeSession
}

// unlink removes a from the last-activity list.
//
//hot:path — once per returning host's record and per closed session.
func (s *Streamer) unlink(a *activeSession) {
	if a.prev != nil {
		a.prev.next = a.next
	} else {
		s.head = a.next
	}
	if a.next != nil {
		a.next.prev = a.prev
	} else {
		s.tail = a.prev
	}
	a.prev, a.next = nil, nil
}

// pushBack appends a to the last-activity list as the most recently
// active session.
//
//hot:path — once per record.
func (s *Streamer) pushBack(a *activeSession) {
	a.prev = s.tail
	if s.tail != nil {
		s.tail.next = a
	} else {
		s.head = a
	}
	s.tail = a
}

// NewStreamer returns a streaming sessionizer with the given inactivity
// threshold.
func NewStreamer(threshold time.Duration) (*Streamer, error) {
	if threshold <= 0 {
		return nil, fmt.Errorf("%w: %v", ErrBadThreshold, threshold)
	}
	return &Streamer{
		threshold: threshold,
		active:    make(map[string]*activeSession),
	}, nil
}

// ActiveSessions returns the number of currently open sessions.
func (s *Streamer) ActiveSessions() int { return len(s.active) }

// PeakActiveSessions returns the high-water mark of concurrently open
// sessions since the streamer was created or last reset by Flush.
func (s *Streamer) PeakActiveSessions() int { return s.peakActive }

// OpenedTotal returns the number of sessions opened so far (closed and
// still active alike). A caller that compares the value before and
// after Observe learns whether the record initiated a session — the
// streaming source of the sessions-initiated-per-second arrival series,
// known at open time rather than at close time.
func (s *Streamer) OpenedTotal() int64 { return s.opened }

// NextExpiry returns the expiry deadline of the least recently active
// session and whether any session is open — the eviction frontier a
// live telemetry view shows next to the stream clock. It is exact: that
// session closes on the first record (or Advance) strictly after the
// returned time, unless its host speaks first.
func (s *Streamer) NextExpiry() (time.Time, bool) {
	if s.head == nil {
		return time.Time{}, false
	}
	return s.head.End.Add(s.threshold), true
}

// Clamped returns how many records ObserveClamped pulled forward to
// the stream clock because their timestamps ran backwards.
func (s *Streamer) Clamped() int64 { return s.clamped }

// LastTime returns the stream clock — the largest timestamp observed
// so far (zero before any record).
func (s *Streamer) LastTime() time.Time { return s.lastTime }

// ObserveClamped feeds one record, tolerating non-monotonic input:
// a record timestamped before the current stream clock is clamped
// forward to the clock and counted (Clamped), never rejected. This is
// the deterministic policy for the clock skew real multi-server traces
// carry — the record keeps its host/bytes/status contribution, its
// arrival lands in the current second, and sessions can only extend,
// never rewind. Callers budget-track the clamp count to decide whether
// the input degraded beyond tolerance.
func (s *Streamer) ObserveClamped(r weblog.Record) ([]Session, error) {
	if s.sawAny && r.Time.Before(s.lastTime) {
		r.Time = s.lastTime
		s.clamped++
	}
	return s.Observe(r)
}

// Observe feeds one record. Records must arrive in non-decreasing time
// order (access logs are written that way). It returns any sessions
// whose inactivity window closed at or before this record's timestamp.
// Moving the host to the tail of the last-activity list is pointer
// surgery, so this path allocates only the node of a newly opened
// session (DESIGN.md §13).
//
//hot:path — one call per record.
func (s *Streamer) Observe(r weblog.Record) ([]Session, error) {
	if s.sawAny && r.Time.Before(s.lastTime) {
		return nil, fmt.Errorf("session: streamer requires time-ordered input: %v after %v", r.Time, s.lastTime)
	}
	s.lastTime = r.Time
	s.sawAny = true
	// evict closes every session idle longer than the threshold at
	// r.Time, so a session still open for this host absorbs r.
	closed := s.evict(r.Time)
	cur, ok := s.active[r.Host]
	if ok {
		cur.absorb(r)
		s.unlink(cur)
	} else {
		cur = &activeSession{Session: open(r)}
		s.active[r.Host] = cur
		s.opened++
		if len(s.active) > s.peakActive {
			s.peakActive = len(s.active)
		}
	}
	s.pushBack(cur)
	return closed, nil
}

// Advance moves the eviction frontier to now without observing a
// record, closing every session whose inactivity window provably ended
// (expiry strictly before now), in the same last-activity order
// Observe would close them. The stream clock is untouched, so records
// timestamped between the streamer's own last observation and now
// remain acceptable afterwards.
//
// This is how a sharded analysis keeps host-partitioned streamers
// synchronized: a shard only sees its own hosts' records, so its clock
// lags the global stream, and sessions a single global streamer would
// already have closed still look active. Advancing every shard to the
// global clock at a snapshot boundary makes the merged session
// accounting independent of the partition (DESIGN.md §12).
func (s *Streamer) Advance(now time.Time) []Session {
	return s.evict(now)
}

// evict closes every session whose inactivity window ended strictly
// before now, least recently active first: equal-time closes come out
// in the input order of each host's last record. It only inspects the
// head of the last-activity list, and every session it visits closes.
//
//hot:path — called from Observe on every record.
func (s *Streamer) evict(now time.Time) []Session {
	var closed []Session
	for s.head != nil && s.head.End.Add(s.threshold).Before(now) {
		cur := s.head
		s.unlink(cur)
		delete(s.active, cur.Host)
		// Growth is per closed session, not per record: eviction
		// bursts are bounded by the active-session count and most
		// calls close zero or one session, so a presized buffer would
		// be pure waste.
		closed = append(closed, cur.Session) //lint:allow hotalloc amortized per closed session, not per record
	}
	return closed
}

// Flush closes and returns all still-open sessions; call it after the
// last record. The streamer is reusable afterwards.
func (s *Streamer) Flush() []Session {
	out := make([]Session, 0, len(s.active))
	for cur := s.head; cur != nil; cur = cur.next {
		out = append(out, cur.Session)
	}
	s.active = make(map[string]*activeSession)
	s.head, s.tail = nil, nil
	s.sawAny = false
	sortSessions(out)
	return out
}
