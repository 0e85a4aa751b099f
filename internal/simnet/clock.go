// Package simnet provides the virtual network substrate for the crawl
// simulation: a deterministic discrete-event clock, a DNS resolver with
// the failure modes observed in the paper's crawls, a latency model,
// message-level dial/request semantics for HTTP(S) and WebSocket
// endpoints, and the one host model (host.go: URL splitting and address
// spaces) that the browser, the detector and the conditions decide with.
//
// The paper's substrate was the live Internet observed through Chrome's
// network stack; this package is the offline substitution. Everything is
// deterministic: all jitter derives from seeded hashes and all time is
// virtual, so a full tri-OS crawl of 100K domains reproduces bit-for-bit.
package simnet

import "time"

// Scheduler is a single-threaded discrete-event scheduler over virtual
// time. Callbacks run in timestamp order (ties broken by scheduling
// order); a callback may schedule further events, including at the
// current instant. The queue is a binary heap of values, so a
// scheduler that is Reset and reused schedules without allocating.
type Scheduler struct {
	now   time.Duration
	seq   uint64
	queue []schedEvent
}

type schedEvent struct {
	at  time.Duration
	seq uint64
	fn  func()
}

// before orders events by (time, scheduling order), a total order.
func (e *schedEvent) before(o *schedEvent) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// NewScheduler returns a scheduler positioned at virtual time zero.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// At schedules fn to run at the given absolute virtual time. Times in the
// past are clamped to the present.
func (s *Scheduler) At(t time.Duration, fn func()) {
	s.seq++
	q := append(s.queue, schedEvent{at: max(t, s.now), seq: s.seq, fn: fn})
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q[i].before(&q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	s.queue = q
}

// After schedules fn to run after the given delay from the present.
func (s *Scheduler) After(d time.Duration, fn func()) { s.At(s.now+d, fn) }

// RunUntil executes all events scheduled at or before the deadline,
// advancing the clock as it goes, then sets the clock to the deadline.
// Events scheduled beyond the deadline remain queued.
func (s *Scheduler) RunUntil(deadline time.Duration) {
	for len(s.queue) > 0 && s.queue[0].at <= deadline {
		s.runNext()
	}
	s.now = max(s.now, deadline)
}

// Run executes all queued events to exhaustion.
func (s *Scheduler) Run() {
	for len(s.queue) > 0 {
		s.runNext()
	}
}

// runNext pops the earliest event, advances the clock to it and runs it.
func (s *Scheduler) runNext() {
	q := s.queue
	e, n := q[0], len(q)-1
	q[0], q[n] = q[n], schedEvent{}
	q = q[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c+1 < n && q[c+1].before(&q[c]) {
			c++
		}
		if c >= n || !q[c].before(&q[i]) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	s.queue = q
	s.now = e.at
	e.fn()
}

// Pending reports the number of queued events.
func (s *Scheduler) Pending() int { return len(s.queue) }

// Reset discards queued events and rewinds the clock to zero, keeping
// the queue's storage, so that one scheduler serves many page visits.
func (s *Scheduler) Reset() {
	clear(s.queue)
	s.now, s.seq, s.queue = 0, 0, s.queue[:0]
}
