package netlog

import (
	"cmp"
	"slices"
	"time"
)

// Flow is a logical network request reconstructed from the events sharing
// one source ID: the paper's unit of analysis ("allowing the events within
// a network flow to be logically grouped together").
type Flow struct {
	Source Source
	// URL is the full request URL, taken from the first event that
	// carries a "url" parameter.
	URL string
	// Start is the timestamp of the earliest event in the flow.
	Start time.Duration
	// End is the timestamp of the latest event in the flow.
	End time.Duration
	// NetError is the Chrome-style net error string (e.g.
	// "ERR_CONNECTION_REFUSED") if the flow failed, else "".
	NetError string
	// StatusCode is the HTTP status of the final response, or 0.
	StatusCode int
	// RedirectedTo lists redirect target URLs, in order, if any.
	RedirectedTo []string
	// Initiator names the page element or script that initiated the
	// request (propagated by the browser; e.g. "blob:threatmetrix").
	Initiator string
	// Events are the underlying events, in time order.
	Events []Event
}

// Flows reconstructs logical flows from the log, one per source that
// carries at least one request-bearing event. Sources of type
// SourceBrowser are included (callers that need webpage-only traffic
// filter on Source.Type; see localnet.FromLog).
func (l *Log) Flows() []Flow {
	if len(l.Events) == 0 {
		return nil
	}
	return flowsFromGroups(l.BySource())
}

// FlowScratch is FlowStats' working memory, kept between calls so that
// folding visit after visit reuses the same storage. The zero value is
// ready to use.
type FlowScratch struct {
	acc  []Flow
	seen []bool
}

// FlowStats reconstructs the same flows as Flows but leaves Flow.Events
// nil, folding each source's aggregates in a single pass over the log
// with no per-flow event copies. The detector runs on every visit and
// needs only the aggregate fields, so this is its path; use Flows when
// the underlying events matter. The flows live in s, or in fresh
// memory if s is nil, until s is next used.
func (l *Log) FlowStats(s *FlowScratch) []Flow {
	n := len(l.Events)
	if n == 0 {
		return nil
	}
	// Recorder source IDs are serial, so flows fold into an array indexed
	// by ID. Logs with sparse IDs or an ID shared across source types,
	// which hand-built or parsed logs may hold, take the map grouping.
	maxID := uint32(0)
	for i := range l.Events {
		if id := l.Events[i].Source.ID; id > maxID {
			maxID = id
		}
	}
	if uint64(maxID) >= uint64(4*n+64) {
		return stripEvents(flowsFromGroups(l.BySource()))
	}
	if s == nil {
		s = new(FlowScratch)
	}
	ids := int(maxID) + 1
	s.acc, s.seen = slices.Grow(s.acc[:0], ids)[:ids], slices.Grow(s.seen[:0], ids)[:ids]
	acc, seen := s.acc, s.seen
	clear(acc)
	clear(seen)
	for i := range l.Events {
		e := &l.Events[i]
		id := e.Source.ID
		f := &acc[id]
		if !seen[id] {
			seen[id] = true
			f.Source = e.Source
			f.Start, f.End = e.Time, e.Time
		} else if f.Source.Type != e.Source.Type {
			return stripEvents(flowsFromGroups(l.BySource()))
		}
		foldEvent(f, e)
	}
	// Compact the kept flows to the front of acc: the write index never
	// passes the read index, so no extra output slice is needed.
	flows := acc[:0]
	for id := uint32(0); id <= maxID; id++ {
		if !seen[id] {
			continue
		}
		if f := &acc[id]; f.URL != "" || f.Source.Type == SourceBrowser {
			flows = append(flows, *f)
		}
	}
	sortFlows(flows)
	return flows
}

func stripEvents(flows []Flow) []Flow {
	for i := range flows {
		flows[i].Events = nil
	}
	return flows
}

// flowsFromGroups is the map-based grouping path.
func flowsFromGroups(grouped map[Source][]Event) []Flow {
	flows := make([]Flow, 0, len(grouped))
	for src, events := range grouped {
		if f, ok := buildFlow(src, events); ok {
			flows = append(flows, f)
		}
	}
	sortFlows(flows)
	return flows
}

// buildFlow folds one source's events into a Flow. It reports false for
// sources that are transport detail rather than logical requests.
func buildFlow(src Source, events []Event) (Flow, bool) {
	f := Flow{Source: src, Events: events}
	f.Start, f.End = events[0].Time, events[0].Time
	for i := range events {
		foldEvent(&f, &events[i])
	}
	if f.URL == "" && src.Type != SourceBrowser {
		// Sources with no request URL (bare sockets, resolver jobs)
		// are transport detail, not logical requests.
		return Flow{}, false
	}
	return f, true
}

// foldEvent accumulates one event into its flow's aggregate fields.
// f.Start and f.End must be initialized from the flow's first event.
// It reads the typed parameter fields directly: an absent or non-string
// value leaves its field "", which is what ParamString returns.
func foldEvent(f *Flow, e *Event) {
	if e.Time < f.Start {
		f.Start = e.Time
	}
	if e.Time > f.End {
		f.End = e.Time
	}
	p := &e.Params
	if f.URL == "" {
		f.URL = p.str[keyURL]
	}
	if f.Initiator == "" {
		f.Initiator = p.str[keyInitiator]
	}
	switch e.Type {
	case TypeURLRequestRedirect:
		if loc := p.str[keyLocation]; loc != "" {
			f.RedirectedTo = append(f.RedirectedTo, loc)
		}
	case TypeURLRequestError, TypeSocketError:
		if ne := p.str[keyNetError]; ne != "" {
			f.NetError = ne
		}
	case TypeHTTPTransactionReadHeaders, TypeWebSocketReadHandshakeResponse:
		if sc, ok := p.intParam(keyStatusCode); ok {
			f.StatusCode = sc
		}
	}
}

func sortFlows(flows []Flow) {
	slices.SortFunc(flows, func(a, b Flow) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.Source.ID, b.Source.ID))
	})
}

// Duration is the elapsed time between the first and last event of the flow.
func (f *Flow) Duration() time.Duration { return f.End - f.Start }

// Failed reports whether the flow ended in a network error.
func (f *Flow) Failed() bool { return f.NetError != "" }
