package netlog

import (
	"sync"
	"time"
)

// Recorder accumulates NetLog events for one page visit. It allocates
// serial source IDs (as Chrome does: "when a new network request is
// initiated, it is assigned a new source ID (in serial order)") and is
// safe for concurrent use by the browser's fetch workers.
type Recorder struct {
	mu     sync.Mutex
	nextID uint32
	events []Event
	// limit bounds the capture, as Chrome's bounded NetLog modes do;
	// 0 means unbounded. Events beyond the limit are counted, not kept.
	limit   int
	dropped int
}

// eventBufPool recycles event backing arrays between visits: a crawl
// allocates one capture per page, and recycling the buffers (see
// Log.Recycle) keeps that churn out of the garbage collector.
var eventBufPool = sync.Pool{
	New: func() any {
		s := make([]Event, 0, 128) // pre-sized for a typical page visit
		return &s
	},
}

// NewRecorder returns an empty, unbounded recorder. Source IDs start at
// 1; ID 0 is reserved for the unattributed source.
func NewRecorder() *Recorder {
	buf := eventBufPool.Get().(*[]Event)
	return &Recorder{nextID: 1, events: (*buf)[:0]}
}

// NewBoundedRecorder returns a recorder that retains at most limit
// events, mirroring Chrome's bounded capture modes. Further events are
// dropped and counted (Dropped).
func NewBoundedRecorder(limit int) *Recorder {
	return &Recorder{nextID: 1, limit: limit}
}

// Dropped reports how many events were discarded by the bound.
func (r *Recorder) Dropped() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// NewSource allocates the next serial source ID for the given type.
func (r *Recorder) NewSource(t SourceType) Source {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Source{Type: t, ID: r.nextID}
	r.nextID++
	return s
}

// Add appends a fully formed event, unless the capture bound is
// reached.
func (r *Recorder) Add(e Event) {
	r.mu.Lock()
	if r.limit > 0 && len(r.events) >= r.limit {
		r.dropped++
	} else {
		r.events = append(r.events, e)
	}
	r.mu.Unlock()
}

// Emit appends an event assembled from its parts; Params{} records an
// event with no parameters.
func (r *Recorder) Emit(at time.Duration, t EventType, src Source, phase Phase, params Params) {
	r.Add(Event{Time: at, Type: t, Source: src, Phase: phase, Params: params})
}

// Begin emits a PHASE_BEGIN event.
func (r *Recorder) Begin(at time.Duration, t EventType, src Source, params Params) {
	r.Emit(at, t, src, PhaseBegin, params)
}

// End emits a PHASE_END event.
func (r *Recorder) End(at time.Duration, t EventType, src Source, params Params) {
	r.Emit(at, t, src, PhaseEnd, params)
}

// Point emits a PHASE_NONE (instantaneous) event.
func (r *Recorder) Point(at time.Duration, t EventType, src Source, params Params) {
	r.Emit(at, t, src, PhaseNone, params)
}

// Len reports the number of events recorded so far.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Log snapshots the recorded events into a Log. The returned log shares no
// state with the recorder and further recording does not affect it.
func (r *Recorder) Log() *Log {
	r.mu.Lock()
	defer r.mu.Unlock()
	events := make([]Event, len(r.events))
	copy(events, r.events)
	return &Log{Events: events}
}

// TakeLog moves the recorded events into a Log without copying, leaving
// the recorder empty. Use it when the recorder is done for (the end of a
// visit): it avoids duplicating the capture, which for a crawl means one
// less full event-stream allocation per page.
func (r *Recorder) TakeLog() *Log {
	r.mu.Lock()
	defer r.mu.Unlock()
	events := r.events
	r.events = nil
	return &Log{Events: events}
}

// Recycle returns the log's event buffer to the recorder pool and empties
// the log. Call it only when nothing else references the log or slices of
// its events (e.g. at the end of a crawl visit, after extraction and
// retention are done); the buffer is reused by later recorders.
func (l *Log) Recycle() {
	if cap(l.Events) > 0 {
		buf := l.Events[:0]
		eventBufPool.Put(&buf)
	}
	l.Events = nil
}
