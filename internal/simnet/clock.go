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

import (
	"container/heap"
	"time"
)

// Scheduler is a single-threaded discrete-event scheduler over virtual
// time. Callbacks run in timestamp order (ties broken by scheduling
// order); a callback may schedule further events, including at the
// current instant.
type Scheduler struct {
	now   time.Duration
	seq   uint64
	queue eventQueue
}

type schedEvent struct {
	at  time.Duration
	seq uint64
	fn  func()
}

type eventQueue []*schedEvent

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*schedEvent)) }
func (q *eventQueue) Pop() any     { old := *q; n := len(old); e := old[n-1]; *q = old[:n-1]; return e }

// NewScheduler returns a scheduler positioned at virtual time zero.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// At schedules fn to run at the given absolute virtual time. Times in the
// past are clamped to the present.
func (s *Scheduler) At(t time.Duration, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	heap.Push(&s.queue, &schedEvent{at: t, seq: s.seq, fn: fn})
}

// After schedules fn to run after the given delay from the present.
func (s *Scheduler) After(d time.Duration, fn func()) { s.At(s.now+d, fn) }

// RunUntil executes all events scheduled at or before the deadline,
// advancing the clock as it goes, then sets the clock to the deadline.
// Events scheduled beyond the deadline remain queued.
func (s *Scheduler) RunUntil(deadline time.Duration) {
	for s.queue.Len() > 0 && s.queue[0].at <= deadline {
		e := heap.Pop(&s.queue).(*schedEvent)
		s.now = e.at
		e.fn()
	}
	if deadline > s.now {
		s.now = deadline
	}
}

// Run executes all queued events to exhaustion.
func (s *Scheduler) Run() {
	for s.queue.Len() > 0 {
		e := heap.Pop(&s.queue).(*schedEvent)
		s.now = e.at
		e.fn()
	}
}

// Pending reports the number of queued events.
func (s *Scheduler) Pending() int { return s.queue.Len() }

// Reset discards queued events and rewinds the clock to zero, allowing a
// scheduler to be reused across page visits.
func (s *Scheduler) Reset() {
	s.now = 0
	s.seq = 0
	s.queue = s.queue[:0]
}
