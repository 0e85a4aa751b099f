package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/knockandtalk/knockandtalk/internal/telemetry"
)

// spanLog records one span per timed call of a traced run, in the trace
// record form knocktrace reads: each span is a record whose parent link
// places it in the tree (campaign → leg → build/run, campaign → save;
// phase → checkpoint; iteration → open/index/render), so
// `knocktrace -assemble` renders it and a span's self time is its
// duration minus its children's. Records stay in memory until write.
// A nil *spanLog records nothing.
type spanLog struct {
	workload string
	seed     uint64
	buf      bytes.Buffer
	tracer   *telemetry.Tracer
	next     atomic.Uint64
}

// span is one open span.
type span struct {
	log    *spanLog
	trace  telemetry.TraceID
	id     telemetry.SpanID
	parent telemetry.SpanID
	name   string
	label  string
	start  time.Time
}

func newSpanLog(workload string, seed uint64) *spanLog {
	l := &spanLog{workload: workload, seed: seed}
	// The queue holds a whole run's spans, so a slow writer never drops
	// one; the writer only appends to memory.
	l.tracer = telemetry.NewTracer(&l.buf, telemetry.TracerOptions{Buffer: 1 << 16})
	return l
}

// start opens a span under parent; a nil parent starts a new trace.
func (l *spanLog) start(parent *span, name, label string) *span {
	if l == nil {
		return nil
	}
	n := strconv.FormatUint(l.next.Add(1), 10)
	s := &span{log: l, name: name, label: label, start: time.Now()}
	if parent == nil {
		s.trace = telemetry.DeriveTraceID(l.seed, "knockbench", l.workload, name, label, n)
	} else {
		s.trace, s.parent = parent.trace, parent.id
	}
	s.id = telemetry.DeriveSpanID(s.trace, name+":"+n)
	return s
}

// end closes the span and hands its record to the tracer.
func (s *span) end() {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	rec := &telemetry.VisitRecord{
		Crawl:   "knockbench",
		OS:      s.log.workload,
		Domain:  s.label,
		StartUS: s.start.UnixMicro(),
		DurNS:   d.Nanoseconds(),
		Outcome: "ok",
		TraceID: s.trace.String(),
		SpanID:  s.id.String(),
		Spans:   []telemetry.Span{{Name: s.name, DurNS: d.Nanoseconds()}},
	}
	if !s.parent.IsZero() {
		rec.ParentID = s.parent.String()
	}
	s.log.tracer.Emit(rec)
}

// write flushes the recorded spans to dir/<workload>-<seed>.trace.jsonl.
func (l *spanLog) write(dir string) (string, error) {
	if err := l.tracer.Close(); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, l.workload+"-"+strconv.FormatUint(l.seed, 10)+".trace.jsonl")
	return path, os.WriteFile(path, l.buf.Bytes(), 0o644)
}
