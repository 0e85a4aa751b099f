// Package netlog implements a model of Chrome's network logging system
// (NetLog), the telemetry source used by the Knock and Talk measurement
// pipeline. The paper records "all network events (i.e., any network
// requests sent and responses received) on Chrome's network stack" and
// later parses those logs; this package provides the event model, a
// recorder for producing event streams, a JSON encoding compatible in
// shape with Chrome's NetLog export format, and utilities for grouping
// events into logical network flows by source ID.
//
// Each event carries four fields mirroring Chrome's design document:
//
//   - time:   a timestamp on the crawl's virtual clock
//   - type:   the kind of network event (e.g. URL_REQUEST_START_JOB)
//   - source: the entity that generated the event; a new network request
//     is assigned a fresh serial source ID and dependent events share it
//   - phase:  BEGIN, END, or NONE
//
// Events additionally carry typed parameters with event-specific details
// (URLs, error codes, byte counts, and so on); see Params.
package netlog

import (
	"fmt"
	"time"
)

// Phase indicates whether an event marks the start or end of an activity,
// or is instantaneous. The integer values match Chrome's NetLog export.
type Phase int

// Phases, numbered as in Chrome's logging constants.
const (
	PhaseNone  Phase = 0
	PhaseBegin Phase = 1
	PhaseEnd   Phase = 2
)

// String returns the Chrome constant name for the phase.
func (p Phase) String() string {
	switch p {
	case PhaseNone:
		return "PHASE_NONE"
	case PhaseBegin:
		return "PHASE_BEGIN"
	case PhaseEnd:
		return "PHASE_END"
	default:
		return fmt.Sprintf("PHASE_UNKNOWN(%d)", int(p))
	}
}

// SourceType identifies the class of entity that generated an event.
type SourceType int

// Source types mirroring the subset of Chrome's NetLog source types that
// the measurement pipeline observes.
const (
	SourceNone SourceType = iota
	SourceURLRequest
	SourceSocket
	SourceHostResolver
	SourceWebSocket
	SourceHTTPStreamJob
	SourceBrowser // browser-internal traffic (filtered out by analysis)
)

var sourceTypeNames = map[SourceType]string{
	SourceNone:          "NONE",
	SourceURLRequest:    "URL_REQUEST",
	SourceSocket:        "SOCKET",
	SourceHostResolver:  "HOST_RESOLVER_IMPL_JOB",
	SourceWebSocket:     "WEB_SOCKET",
	SourceHTTPStreamJob: "HTTP_STREAM_JOB",
	SourceBrowser:       "BROWSER",
}

// String returns the Chrome constant name for the source type.
func (t SourceType) String() string {
	if s, ok := sourceTypeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("SOURCE_TYPE_UNKNOWN(%d)", int(t))
}

// sourceTypesByName inverts sourceTypeNames.
var sourceTypesByName = func() map[string]SourceType {
	m := make(map[string]SourceType, len(sourceTypeNames))
	for t, name := range sourceTypeNames {
		m[name] = t
	}
	return m
}()

// SourceTypeFromString reverses String; it reports false for unknown names.
func SourceTypeFromString(s string) (SourceType, bool) {
	t, ok := sourceTypesByName[s]
	return t, ok
}

// Source identifies the entity that generated an event. When a new network
// request is initiated it is assigned a new serial ID; subsequent dependent
// events (responses, reads) carry the same ID, allowing the events within a
// network flow to be logically grouped together.
type Source struct {
	Type SourceType `json:"type"`
	ID   uint32     `json:"id"`
}

// EventType is the kind of network event, e.g. URL_REQUEST_START_JOB.
// Types are interned strings; see constants.go for the registry.
type EventType string

// Event is a single NetLog entry.
type Event struct {
	// Time is the event timestamp relative to the start of the page
	// visit, measured on the crawl's virtual clock.
	Time time.Duration
	// Type is the event type.
	Type EventType
	// Source identifies the generating entity.
	Source Source
	// Phase is BEGIN, END, or NONE.
	Phase Phase
	// Params holds event-specific parameters (e.g. "url", "net_error").
	// The zero value has none.
	Params Params
}

// Log is a complete NetLog capture: a flat, time-ordered event stream.
type Log struct {
	Events []Event
}

// Len returns the number of events in the log.
func (l *Log) Len() int { return len(l.Events) }

// BySource groups events by their source, preserving event order within
// each group.
func (l *Log) BySource() map[Source][]Event {
	out := make(map[Source][]Event)
	for i := range l.Events {
		src := l.Events[i].Source
		out[src] = append(out[src], l.Events[i])
	}
	return out
}
