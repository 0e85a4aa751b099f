package netlog

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"github.com/knockandtalk/knockandtalk/internal/jsonscan"
)

// The JSONL encoding is the streaming sibling of the export format in
// json.go: one event per line, self-describing (type and source names
// instead of the export's constants-relative integer codes), so a
// consumer can parse a capture as it arrives over a socket without
// waiting for — or buffering — the whole document. Times stay
// microsecond strings as in the export.
//
// JSONLReader decodes each line on a reflection-free fast path first
// (decodeJSONLFast), which accepts only the exact bytes WriteJSONL
// writes; every other line goes to decodeJSONLEvent, whose
// encoding/json decode defines the format. FuzzReadJSONL holds the two
// paths to equal results, and TestGoldenCapturesDecodeFast keeps every
// line of a real capture on the fast path.

// jsonlSource mirrors Source with the type spelled by name.
type jsonlSource struct {
	Type string `json:"type"`
	ID   uint32 `json:"id"`
}

// jsonlEvent is the one-line wire form of an Event.
type jsonlEvent struct {
	Time   string         `json:"time"`
	Type   string         `json:"type"`
	Source jsonlSource    `json:"source"`
	Phase  int            `json:"phase"`
	Params map[string]any `json:"params,omitempty"`
}

// WriteJSONL serializes the log as JSONL, one event per line in log
// order. The output round-trips through JSONLReader and ReadJSONL.
func (l *Log) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	enc := json.NewEncoder(bw)
	for i := range l.Events {
		e := &l.Events[i]
		if _, ok := eventTypeCodes[e.Type]; !ok {
			return fmt.Errorf("netlog: unregistered event type %q", e.Type)
		}
		je := jsonlEvent{
			Time:   strconv.FormatInt(e.Time.Microseconds(), 10),
			Type:   string(e.Type),
			Source: jsonlSource{Type: e.Source.Type.String(), ID: e.Source.ID},
			Phase:  int(e.Phase),
			Params: e.Params.asMap(),
		}
		if err := enc.Encode(&je); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// maxJSONLLine bounds a single event line. Params are request metadata
// (URLs, error strings), not payloads; a line beyond this is corrupt
// input, not telemetry.
const maxJSONLLine = 1 << 20

// JSONLReader parses a JSONL event stream incrementally: each Next call
// decodes exactly one line, so arbitrarily long captures are consumed
// in constant memory and a malformed line is reported with its line
// number without discarding the events before it.
type JSONLReader struct {
	sc   *bufio.Scanner
	fast jsonscan.Scanner
	line int
	err  error
}

// NewJSONLReader returns a reader over r.
func NewJSONLReader(r io.Reader) *JSONLReader {
	sc := bufio.NewScanner(r)
	// The buffer starts at bufio's 4 KiB and doubles only for a longer
	// line: event lines are a few hundred bytes, and the ingest handler
	// opens one reader per upload.
	sc.Buffer(nil, maxJSONLLine)
	return &JSONLReader{sc: sc}
}

// Line reports the line number of the most recently returned event or
// error (1-based; 0 before the first Next).
func (d *JSONLReader) Line() int { return d.line }

// Next returns the next event. It returns io.EOF once the stream is
// exhausted and a descriptive error (carrying the line number) for
// malformed, unregistered, or out-of-range lines; after any non-EOF
// error the reader is poisoned and keeps returning it.
func (d *JSONLReader) Next() (Event, error) {
	if d.err != nil {
		return Event{}, d.err
	}
	for {
		if !d.sc.Scan() {
			if err := d.sc.Err(); err != nil {
				d.err = fmt.Errorf("netlog: line %d: %w", d.line+1, err)
				return Event{}, d.err
			}
			d.err = io.EOF
			return Event{}, io.EOF
		}
		d.line++
		raw := d.sc.Bytes()
		if len(trimSpace(raw)) == 0 {
			continue // blank lines separate uploads harmlessly
		}
		var ev Event
		if decodeJSONLFast(&d.fast, raw, &ev) {
			return ev, nil
		}
		ev, err := decodeJSONLEvent(raw)
		if err != nil {
			// A truncated stream (read error mid-line) surfaces as a
			// decode failure of the partial final token; report the
			// transport error, which is the actual cause.
			if rerr := d.sc.Err(); rerr != nil {
				err = rerr
			}
			d.err = fmt.Errorf("netlog: line %d: %w", d.line, err)
			return Event{}, d.err
		}
		return ev, nil
	}
}

func trimSpace(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t' || b[0] == '\r') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t' || b[len(b)-1] == '\r') {
		b = b[:len(b)-1]
	}
	return b
}

func decodeJSONLEvent(raw []byte) (Event, error) {
	var je jsonlEvent
	if err := json.Unmarshal(raw, &je); err != nil {
		return Event{}, err
	}
	// Names are validated against the registries so corrupt captures
	// surface loudly rather than silently dropping telemetry, matching
	// ParseJSON's posture.
	t := EventType(je.Type)
	if _, ok := eventTypeCodes[t]; !ok {
		return Event{}, fmt.Errorf("unknown event type %q", je.Type)
	}
	st, ok := SourceTypeFromString(je.Source.Type)
	if !ok {
		return Event{}, fmt.Errorf("unknown source type %q", je.Source.Type)
	}
	if je.Phase < int(PhaseNone) || je.Phase > int(PhaseEnd) {
		return Event{}, fmt.Errorf("bad phase %d", je.Phase)
	}
	us, err := strconv.ParseInt(je.Time, 10, 64)
	if err != nil {
		return Event{}, fmt.Errorf("bad time %q: %w", je.Time, err)
	}
	return Event{
		Time:   microseconds(us),
		Type:   t,
		Source: Source{Type: st, ID: je.Source.ID},
		Phase:  Phase(je.Phase),
		Params: paramsFromMap(je.Params),
	}, nil
}

// decodeJSONLFast decodes one line into ev if it has exactly the shape
// WriteJSONL writes:
//
//	{"time":"<int>","type":<name>,"source":{"type":<name>,"id":<uint32>},"phase":<0..2>[,"params":{...}]}
//
// with a time that fits a Duration, registered event and source type
// names, and a non-empty params object whose keys are typed keys in
// sorted order, each holding a value of its key's type: a string, an
// integer within ±2^53 (where a float64 still holds it exactly) or a
// boolean. The tokens themselves are jsonscan's. For any other line it
// reports false, and the line goes to decodeJSONLEvent, which also
// produces the phase, time and registry errors.
func decodeJSONLFast(s *jsonscan.Scanner, line []byte, ev *Event) bool {
	s.Reset(line)
	if !s.Lit(`{"time":"`) {
		return false
	}
	// A time whose nanoseconds overflow a Duration cannot have come
	// from WriteJSONL.
	us, ok := s.Int64()
	if !ok || us > math.MaxInt64/1000 || us < math.MinInt64/1000 || !s.Lit(`","type":`) {
		return false
	}
	name, ok := s.Str()
	if !ok {
		return false
	}
	t, ok := eventTypesByName[string(name)]
	if !ok || !s.Lit(`,"source":{"type":`) {
		return false
	}
	if name, ok = s.Str(); !ok {
		return false
	}
	st, ok := sourceTypesByName[string(name)]
	if !ok || !s.Lit(`,"id":`) {
		return false
	}
	id, ok := s.Digits()
	if !ok || id > math.MaxUint32 || !s.Lit(`},"phase":`) {
		return false
	}
	phase, ok := s.Digits()
	if !ok || phase > uint64(PhaseEnd) {
		return false
	}
	*ev = Event{
		Time:   microseconds(us),
		Type:   t,
		Source: Source{Type: st, ID: uint32(id)},
		Phase:  Phase(phase),
	}
	if s.Lit(`,"params":`) && (!decodeParamsFast(s, &ev.Params) || ev.Params.IsZero()) {
		return false
	}
	return s.Next('}') && s.Done()
}

// decodeParamsFast decodes a params object of typed keys in sorted
// order, the order encoding/json writes a map's keys in.
func decodeParamsFast(s *jsonscan.Scanner, p *Params) bool {
	return s.Object(func(key []byte) (int, bool) {
		k, ok := paramKeysByName[string(key)]
		if !ok {
			return 0, false
		}
		switch {
		case k < numStringKeys:
			v, ok := s.Str()
			if !ok {
				return 0, false
			}
			p.setString(k, string(v))
		case k < keySOPExempt:
			const lim = 1 << 53
			n, ok := s.Int64()
			if !ok || n < -lim || n > lim {
				return 0, false
			}
			p.setInt(k, int(n))
		default:
			v, ok := s.Bool()
			if !ok {
				return 0, false
			}
			p.setBool(v)
		}
		return paramRanks[k], true
	})
}

// ReadJSONL consumes an entire JSONL stream into a Log. The serving
// ingest path uses JSONLReader directly; this convenience is for tests
// and tools that want the whole capture.
func ReadJSONL(r io.Reader) (*Log, error) {
	d := NewJSONLReader(r)
	log := &Log{}
	for {
		ev, err := d.Next()
		if err == io.EOF {
			return log, nil
		}
		if err != nil {
			return nil, err
		}
		log.Events = append(log.Events, ev)
	}
}
