package netlog

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"
)

// The JSON encoding follows the shape of Chrome's NetLog export: a
// top-level object with a "constants" dictionary (mapping event type,
// source type, and phase names to the integer codes used in the event
// records) followed by an "events" array. One divergence is documented:
// Chrome's time ticks are milliseconds; ours are microseconds (declared
// in constants as tickUnit) so that sub-millisecond localhost timings
// survive a round trip.

type jsonConstants struct {
	LogEventTypes  map[string]int `json:"logEventTypes"`
	LogSourceType  map[string]int `json:"logSourceType"`
	LogEventPhase  map[string]int `json:"logEventPhase"`
	TimeTickOffset string         `json:"timeTickOffset"`
	TickUnit       string         `json:"tickUnit"`
}

type jsonSource struct {
	ID   uint32 `json:"id"`
	Type int    `json:"type"`
}

type jsonEvent struct {
	Phase  int            `json:"phase"`
	Source jsonSource     `json:"source"`
	Time   string         `json:"time"`
	Type   int            `json:"type"`
	Params map[string]any `json:"params,omitempty"`
}

type jsonLog struct {
	Constants jsonConstants `json:"constants"`
	Events    []jsonEvent   `json:"events"`
}

func buildConstants() jsonConstants {
	c := jsonConstants{
		LogEventTypes:  make(map[string]int, len(eventTypeCodes)),
		LogSourceType:  make(map[string]int, len(sourceTypeCodes)),
		LogEventPhase:  map[string]int{"PHASE_NONE": 0, "PHASE_BEGIN": 1, "PHASE_END": 2},
		TimeTickOffset: "0",
		TickUnit:       "us",
	}
	for t, code := range eventTypeCodes {
		c.LogEventTypes[string(t)] = code
	}
	for t, code := range sourceTypeCodes {
		c.LogSourceType[t.String()] = code
	}
	return c
}

// WriteJSON serializes the log to w in NetLog export shape.
func (l *Log) WriteJSON(w io.Writer) error {
	out := jsonLog{Constants: buildConstants(), Events: make([]jsonEvent, 0, len(l.Events))}
	for i := range l.Events {
		e := &l.Events[i]
		code, ok := eventTypeCodes[e.Type]
		if !ok {
			return fmt.Errorf("netlog: unregistered event type %q", e.Type)
		}
		out.Events = append(out.Events, jsonEvent{
			Phase:  int(e.Phase),
			Source: jsonSource{ID: e.Source.ID, Type: sourceTypeCodes[e.Source.Type]},
			Time:   strconv.FormatInt(e.Time.Microseconds(), 10),
			Type:   code,
			Params: e.Params.asMap(),
		})
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(&out); err != nil {
		return err
	}
	return bw.Flush()
}

// ParseJSON reads a log previously written by WriteJSON (or any NetLog
// export following the same shape and constants). Unknown event or source
// codes are rejected so that corrupt captures surface loudly rather than
// silently dropping telemetry.
func ParseJSON(r io.Reader) (*Log, error) {
	var in jsonLog
	dec := json.NewDecoder(bufio.NewReader(r))
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("netlog: decoding export: %w", err)
	}
	// Build code→name maps from the file's own constants section, as a
	// real NetLog parser must: codes are only meaningful relative to the
	// constants the writer declared.
	typeByCode := make(map[int]EventType, len(in.Constants.LogEventTypes))
	for name, code := range in.Constants.LogEventTypes {
		typeByCode[code] = EventType(name)
	}
	srcByCode := make(map[int]SourceType, len(in.Constants.LogSourceType))
	for name, code := range in.Constants.LogSourceType {
		t, ok := SourceTypeFromString(name)
		if !ok {
			return nil, fmt.Errorf("netlog: unknown source type %q in constants", name)
		}
		srcByCode[code] = t
	}
	log := &Log{Events: make([]Event, 0, len(in.Events))}
	for i := range in.Events {
		je := &in.Events[i]
		t, ok := typeByCode[je.Type]
		if !ok {
			return nil, fmt.Errorf("netlog: event %d has unknown type code %d", i, je.Type)
		}
		st, ok := srcByCode[je.Source.Type]
		if !ok {
			return nil, fmt.Errorf("netlog: event %d has unknown source type code %d", i, je.Source.Type)
		}
		us, err := strconv.ParseInt(je.Time, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("netlog: event %d has bad time %q: %w", i, je.Time, err)
		}
		if je.Phase < int(PhaseNone) || je.Phase > int(PhaseEnd) {
			return nil, fmt.Errorf("netlog: event %d has bad phase %d", i, je.Phase)
		}
		log.Events = append(log.Events, Event{
			Time:   microseconds(us),
			Type:   t,
			Source: Source{Type: st, ID: je.Source.ID},
			Phase:  Phase(je.Phase),
			Params: paramsFromMap(je.Params),
		})
	}
	return log, nil
}

func microseconds(us int64) time.Duration { return time.Duration(us) * time.Microsecond }

// SortByTime sorts events by timestamp, then by source ID, stably. Useful
// after merging logs from concurrent fetch workers.
func (l *Log) SortByTime() {
	sort.SliceStable(l.Events, func(i, j int) bool {
		if l.Events[i].Time != l.Events[j].Time {
			return l.Events[i].Time < l.Events[j].Time
		}
		return l.Events[i].Source.ID < l.Events[j].Source.ID
	})
}
