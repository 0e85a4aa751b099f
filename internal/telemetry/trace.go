package telemetry

import (
	"bufio"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

// Span is one timed step of a visit: browser load ("visit"), capture
// retention ("netlog"), the pipeline stages ("detect", "infer",
// "classify"), and the store commit ("commit"). StartNS is the offset
// from the visit's start, so a waterfall renders without wall-clock
// arithmetic; DurNS carries the exact measured nanoseconds — the same
// value the metrics registry accumulates, which is what lets knocktrace
// reproduce /metrics busy time from a trace file alone.
type Span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	Items   int    `json:"items,omitempty"`
	Err     string `json:"err,omitempty"`
}

// VisitRecord is one JSONL line of a trace file: one page visit
// (crawled or ingested) with its identity, outcome, and spans.
type VisitRecord struct {
	Crawl  string `json:"crawl,omitempty"`
	OS     string `json:"os,omitempty"`
	Domain string `json:"domain"`
	URL    string `json:"url,omitempty"`
	Rank   int    `json:"rank,omitempty"`
	// StartUS is the visit's wall-clock start in Unix microseconds.
	StartUS int64 `json:"start_us"`
	// DurNS is the visit's total wall time from StartVisit to End.
	DurNS int64 `json:"dur_ns"`
	// Outcome is "ok" or the load/ingest error string.
	Outcome string `json:"outcome"`
	// Events is the visit's telemetry volume (NetLog events).
	Events int `json:"events,omitempty"`
	// TraceID, SpanID, and ParentID place the record in a distributed
	// trace: the 32-hex trace identity shared across processes, this
	// record's own 16-hex span, and the 16-hex span that caused it
	// (empty for a root). All three are optional — untraced records
	// omit them, keeping the JSONL format backward-compatible.
	TraceID  string `json:"trace_id,omitempty"`
	SpanID   string `json:"span_id,omitempty"`
	ParentID string `json:"parent_id,omitempty"`
	Spans    []Span `json:"spans,omitempty"`
	// Source is the file the record was read from, set by
	// ReadTraceFiles so cross-process assembly can attribute spans to
	// processes. Never serialized.
	Source string `json:"-"`
}

// MetricTraceDropped counts visit records the trace sink discarded
// because its writer queue was full (or the sink already closed).
const MetricTraceDropped = "trace_dropped_records_total"

// TracerOptions tune a Tracer; the zero value picks defaults.
type TracerOptions struct {
	// Buffer is the number of finished visit records queued for the
	// writer goroutine before End starts dropping (default 1024).
	Buffer int
	// Registry, when set, mirrors the sink's dropped-record count into
	// the MetricTraceDropped counter so drops surface on /metrics, not
	// only through the health watchdog.
	Registry *Registry
}

// Tracer is an append-only JSONL trace sink. Visits record spans
// locally (no synchronization) and enqueue one finished record on End;
// a single writer goroutine marshals and writes. The queue is bounded:
// when the writer cannot keep up, End drops the record and counts it
// instead of stalling the crawl hot path.
type Tracer struct {
	ch       chan *VisitRecord
	done     chan struct{}
	dropped  atomic.Uint64
	written  atomic.Uint64
	mDropped *Counter
	werr     atomic.Pointer[error]
	// closeMu guards the channel close against concurrent End sends
	// (an in-flight ingest may finish while the server shuts the
	// tracer down). End takes the read side — uncontended in steady
	// state.
	closeMu sync.RWMutex
	closed  bool
}

// NewTracer starts a trace sink writing JSONL to w. Close flushes and
// stops the writer; w is not closed.
func NewTracer(w io.Writer, opts TracerOptions) *Tracer {
	if opts.Buffer <= 0 {
		opts.Buffer = 1024
	}
	t := &Tracer{
		ch:   make(chan *VisitRecord, opts.Buffer),
		done: make(chan struct{}),
	}
	if opts.Registry != nil {
		t.mDropped = opts.Registry.Counter(MetricTraceDropped)
	}
	go t.run(w)
	return t
}

// drop counts one discarded record in the sink's atomic and, when
// wired, the registry counter.
func (t *Tracer) drop() {
	t.dropped.Add(1)
	if t.mDropped != nil {
		t.mDropped.Inc()
	}
}

func (t *Tracer) run(w io.Writer) {
	defer close(t.done)
	bw := bufio.NewWriterSize(w, 1<<16)
	// The writer shares the machine with the crawl workers, so each
	// record is encoded by hand into a reused buffer instead of through
	// reflection-based marshaling.
	buf := make([]byte, 0, 1<<10)
	for rec := range t.ch {
		buf = appendVisitRecord(buf[:0], rec)
		if _, err := bw.Write(buf); err != nil {
			t.werr.CompareAndSwap(nil, &err)
			continue
		}
		t.written.Add(1)
	}
	if err := bw.Flush(); err != nil {
		t.werr.CompareAndSwap(nil, &err)
	}
}

// appendVisitRecord encodes rec as one JSONL line, matching the
// encoding/json output for VisitRecord field for field (the reader
// round-trips through encoding/json, and external consumers may too).
func appendVisitRecord(b []byte, rec *VisitRecord) []byte {
	b = append(b, '{')
	if rec.Crawl != "" {
		b = appendKey(b, "crawl")
		b = appendJSONString(b, rec.Crawl)
	}
	if rec.OS != "" {
		b = appendKey(b, "os")
		b = appendJSONString(b, rec.OS)
	}
	b = appendKey(b, "domain")
	b = appendJSONString(b, rec.Domain)
	if rec.URL != "" {
		b = appendKey(b, "url")
		b = appendJSONString(b, rec.URL)
	}
	if rec.Rank != 0 {
		b = appendKey(b, "rank")
		b = strconv.AppendInt(b, int64(rec.Rank), 10)
	}
	b = appendKey(b, "start_us")
	b = strconv.AppendInt(b, rec.StartUS, 10)
	b = appendKey(b, "dur_ns")
	b = strconv.AppendInt(b, rec.DurNS, 10)
	b = appendKey(b, "outcome")
	b = appendJSONString(b, rec.Outcome)
	if rec.Events != 0 {
		b = appendKey(b, "events")
		b = strconv.AppendInt(b, int64(rec.Events), 10)
	}
	if rec.TraceID != "" {
		b = appendKey(b, "trace_id")
		b = appendJSONString(b, rec.TraceID)
	}
	if rec.SpanID != "" {
		b = appendKey(b, "span_id")
		b = appendJSONString(b, rec.SpanID)
	}
	if rec.ParentID != "" {
		b = appendKey(b, "parent_id")
		b = appendJSONString(b, rec.ParentID)
	}
	if len(rec.Spans) > 0 {
		b = appendKey(b, "spans")
		b = append(b, '[')
		for i := range rec.Spans {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendSpan(b, &rec.Spans[i])
		}
		b = append(b, ']')
	}
	b = append(b, '}', '\n')
	return b
}

func appendSpan(b []byte, s *Span) []byte {
	b = append(b, '{')
	b = appendKey(b, "name")
	b = appendJSONString(b, s.Name)
	b = appendKey(b, "start_ns")
	b = strconv.AppendInt(b, s.StartNS, 10)
	b = appendKey(b, "dur_ns")
	b = strconv.AppendInt(b, s.DurNS, 10)
	if s.Items != 0 {
		b = appendKey(b, "items")
		b = strconv.AppendInt(b, int64(s.Items), 10)
	}
	if s.Err != "" {
		b = appendKey(b, "err")
		b = appendJSONString(b, s.Err)
	}
	return append(b, '}')
}

// appendKey appends `"key":`, preceded by a comma unless the key opens
// its object.
func appendKey(b []byte, key string) []byte {
	if n := len(b); n > 0 && b[n-1] != '{' {
		b = append(b, ',')
	}
	b = append(b, '"')
	b = append(b, key...)
	return append(b, '"', ':')
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string, escaping exactly the
// characters encoding/json escapes by default: the quote, the
// backslash, control characters, '<', '>', '&' (HTML-safe escaping),
// and the line separators U+2028/U+2029. Invalid UTF-8 bytes become
// U+FFFD, as encoding/json emits.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"':
				b = append(b, '\\', '"')
			case '\\':
				b = append(b, '\\', '\\')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if r == ' ' || r == ' ' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// Emit enqueues a caller-built record — the path for server-side
// request spans whose timing was measured outside a VisitTrace (fleet
// control-plane RPCs). Same bounded, drop-don't-stall queue as End;
// nil-safe. The record must not be mutated after Emit.
func (t *Tracer) Emit(rec *VisitRecord) {
	if t == nil || rec == nil {
		return
	}
	t.closeMu.RLock()
	defer t.closeMu.RUnlock()
	if t.closed {
		t.drop()
		return
	}
	select {
	case t.ch <- rec:
	default:
		t.drop()
	}
}

// StartVisit opens a per-visit trace. A nil Tracer returns a nil
// VisitTrace, whose methods are all no-ops — call sites never branch on
// whether tracing is enabled.
func (t *Tracer) StartVisit(crawl, os, domain, url string, rank int) *VisitTrace {
	if t == nil {
		return nil
	}
	now := time.Now()
	vt := &VisitTrace{
		t:     t,
		start: now,
		rec: VisitRecord{
			Crawl: crawl, OS: os, Domain: domain, URL: url, Rank: rank,
			StartUS: now.UnixMicro(),
		},
	}
	vt.rec.Spans = vt.spanBuf[:0]
	return vt
}

// Close stops accepting visits, flushes buffered records, and returns
// the first write error (if any). Safe to call more than once.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.closeMu.Lock()
	if !t.closed {
		t.closed = true
		close(t.ch)
	}
	t.closeMu.Unlock()
	<-t.done
	if perr := t.werr.Load(); perr != nil {
		return *perr
	}
	return nil
}

// Dropped reports how many finished visits were discarded because the
// writer queue was full (the sink's backpressure is drop, not stall).
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Written reports how many visit records reached the sink.
func (t *Tracer) Written() uint64 {
	if t == nil {
		return 0
	}
	return t.written.Load()
}

// VisitTrace accumulates one visit's spans. It is owned by a single
// goroutine (the crawl worker or the ingest handler) and needs no
// locking; End hands the finished record to the tracer. All methods
// are nil-receiver safe.
type VisitTrace struct {
	t     *Tracer
	start time.Time
	rec   VisitRecord
	sc    SpanContext
	ended bool
	// spanBuf backs rec.Spans up to a typical visit's span count
	// (visit, parse, detect, infer, classify, netlog, commit), so
	// recording spans costs no allocations beyond the trace itself.
	spanBuf [8]Span
}

// Add records a completed span. start is the span's own start time and
// dur its measured wall time — pass the exact duration fed to the
// metrics registry so trace and registry agree.
func (v *VisitTrace) Add(name string, start time.Time, dur time.Duration, items int) {
	v.AddErr(name, start, dur, items, "")
}

// AddErr records a completed span carrying an error string.
func (v *VisitTrace) AddErr(name string, start time.Time, dur time.Duration, items int, errStr string) {
	if v == nil {
		return
	}
	v.rec.Spans = append(v.rec.Spans, Span{
		Name:    name,
		StartNS: start.Sub(v.start).Nanoseconds(),
		DurNS:   dur.Nanoseconds(),
		Items:   items,
		Err:     errStr,
	})
}

// End finishes the visit and enqueues its record. Calling End again is
// a no-op, so error paths can defer it.
func (v *VisitTrace) End(outcome string, events int) {
	if v == nil || v.ended {
		return
	}
	v.ended = true
	v.rec.DurNS = time.Since(v.start).Nanoseconds()
	v.rec.Outcome = outcome
	v.rec.Events = events
	t := v.t
	t.closeMu.RLock()
	defer t.closeMu.RUnlock()
	if t.closed {
		t.drop()
		return
	}
	select {
	case t.ch <- &v.rec:
	default:
		t.drop()
	}
}

// SetSpanContext assigns the visit's distributed-trace identity: its
// own span context plus the parent span that caused it (the zero
// SpanID marks a root). Invalid contexts are ignored, so propagation
// loss degrades to an untraced or root record, never a corrupt link.
func (v *VisitTrace) SetSpanContext(sc SpanContext, parent SpanID) {
	if v == nil || !sc.Valid() {
		return
	}
	v.sc = sc
	v.rec.TraceID = sc.TraceID.String()
	v.rec.SpanID = sc.SpanID.String()
	if parent.IsZero() {
		v.rec.ParentID = ""
	} else {
		v.rec.ParentID = parent.String()
	}
}

// SpanContext returns the visit's assigned span context (zero when the
// visit is untraced or v is nil).
func (v *VisitTrace) SpanContext() SpanContext {
	if v == nil {
		return SpanContext{}
	}
	return v.sc
}

// TraceIDString returns the visit's 32-hex trace ID, or "" when
// untraced — the form histogram exemplars carry.
func (v *VisitTrace) TraceIDString() string {
	if v == nil {
		return ""
	}
	return v.rec.TraceID
}
