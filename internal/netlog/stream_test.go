package netlog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/knockandtalk/knockandtalk/internal/jsonscan"
)

func jsonlSampleLog(t testing.TB) *Log {
	t.Helper()
	r := NewRecorder()
	ws := r.NewSource(SourceWebSocket)
	r.Begin(5*time.Second, TypeWebSocketSendHandshakeRequest, ws, Params{}.WithURL("wss://localhost:5900/").WithInitiator("blob:threatmetrix:regstat.example.com"))
	r.Point(5*time.Second+40*time.Millisecond, TypeSocketError, ws, Params{}.WithNetError("ERR_CONNECTION_REFUSED"))
	req := r.NewSource(SourceURLRequest)
	r.Begin(6*time.Second, TypeURLRequestStartJob, req, Params{}.WithURL("http://127.0.0.1:8080/status"))
	r.Point(6*time.Second+10*time.Millisecond, TypeHTTPTransactionReadHeaders, req, Params{}.WithStatusCode(200))
	return r.Log()
}

func TestJSONLRoundTrip(t *testing.T) {
	log := jsonlSampleLog(t)
	var buf bytes.Buffer
	if err := log.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(buf.Bytes(), []byte("\n")); n != log.Len() {
		t.Fatalf("JSONL has %d lines, want one per event (%d)", n, log.Len())
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != log.Len() {
		t.Fatalf("round trip changed event count: %d != %d", back.Len(), log.Len())
	}
	for i := range log.Events {
		// Typed params come back typed, integers included.
		if a, b := log.Events[i], back.Events[i]; !reflect.DeepEqual(a, b) {
			t.Fatalf("event %d changed: %+v != %+v", i, a, b)
		}
	}
}

// TestJSONLReaderStreams verifies the reader yields events one at a time
// from a partially consumed stream (the ingest plane's contract) and
// tolerates blank separator lines.
func TestJSONLReaderStreams(t *testing.T) {
	log := jsonlSampleLog(t)
	var buf bytes.Buffer
	if err := log.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	text := strings.Replace(buf.String(), "\n", "\n\n", 1) // inject a blank line
	d := NewJSONLReader(strings.NewReader(text))
	var got []Event
	for {
		ev, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next after %d events: %v", len(got), err)
		}
		got = append(got, ev)
	}
	if len(got) != log.Len() {
		t.Fatalf("streamed %d events, want %d", len(got), log.Len())
	}
	if !reflect.DeepEqual(got[0].Source, log.Events[0].Source) {
		t.Fatalf("first event source changed: %+v != %+v", got[0].Source, log.Events[0].Source)
	}
}

func TestJSONLReaderMalformedLine(t *testing.T) {
	good := `{"time":"1000","type":"REQUEST_ALIVE","source":{"type":"URL_REQUEST","id":1},"phase":1}`
	cases := []struct {
		name string
		bad  string
		want string
	}{
		{"broken json", `{"time":`, "line 2"},
		{"unknown type", `{"time":"1","type":"NOPE","source":{"type":"URL_REQUEST","id":1},"phase":0}`, `unknown event type "NOPE"`},
		{"unknown source", `{"time":"1","type":"REQUEST_ALIVE","source":{"type":"NOPE","id":1},"phase":0}`, `unknown source type "NOPE"`},
		{"bad phase", `{"time":"1","type":"REQUEST_ALIVE","source":{"type":"URL_REQUEST","id":1},"phase":7}`, "bad phase 7"},
		{"bad time", `{"time":"soon","type":"REQUEST_ALIVE","source":{"type":"URL_REQUEST","id":1},"phase":0}`, `bad time "soon"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := NewJSONLReader(strings.NewReader(good + "\n" + tc.bad + "\n" + good + "\n"))
			if _, err := d.Next(); err != nil {
				t.Fatalf("first good line rejected: %v", err)
			}
			_, err := d.Next()
			if err == nil {
				t.Fatal("malformed line accepted")
			}
			if !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not carry line number and cause %q", err, tc.want)
			}
			// The reader stays poisoned: corrupt captures must not be
			// partially ingested past the first bad line.
			if _, err2 := d.Next(); err2 == nil || err2 == io.EOF {
				t.Fatalf("reader resumed after malformed line: %v", err2)
			}
		})
	}
}

func TestJSONLLineTooLong(t *testing.T) {
	huge := `{"time":"1","type":"REQUEST_ALIVE","source":{"type":"URL_REQUEST","id":1},"phase":0,"params":{"url":"` +
		strings.Repeat("a", maxJSONLLine) + `"}}`
	d := NewJSONLReader(strings.NewReader(huge))
	if _, err := d.Next(); err == nil || err == io.EOF {
		t.Fatalf("oversized line accepted: %v", err)
	}

	// A long line within the bound still reads, the buffer growing to it.
	url := strings.Repeat("a", maxJSONLLine-200)
	long := `{"time":"1","type":"REQUEST_ALIVE","source":{"type":"URL_REQUEST","id":1},"phase":0,"params":{"url":"` + url + `"}}` + "\n"
	log, err := ReadJSONL(strings.NewReader(long + long))
	if err != nil || log.Len() != 2 || log.Events[1].ParamString("url") != url {
		t.Fatalf("long line: %v", err)
	}
}

// FuzzReadJSONL hardens the streaming reader: arbitrary input must never
// panic, and anything accepted must round-trip through WriteJSONL. Its
// oracle is the map[string]any encoding/json decodes each line's params
// into: the accessors read what the map holds, and an accepted stream
// re-encodes to the bytes the map rendering gives. Each line the fast
// path takes is also held to decodeJSONLEvent (checkFastPathLikeSlow).
func FuzzReadJSONL(f *testing.F) {
	var buf bytes.Buffer
	log := jsonlSampleLog(f)
	if err := log.WriteJSONL(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add(`{"time":"1000","type":"REQUEST_ALIVE","source":{"type":"URL_REQUEST","id":1},"phase":1}`)
	f.Add("\n\n")
	f.Add(`{"time":`)
	f.Add(`{"time":"99999999999999999999","type":"REQUEST_ALIVE","source":{"type":"URL_REQUEST","id":0},"phase":0}`)
	f.Add(`not json at all`)
	f.Add(`{"time":"1","type":"REQUEST_ALIVE","source":{"type":"URL_REQUEST","id":1},"phase":0,"params":{"url":"http://a/?b&c","status_code":200.5,"x":{"y":[1,null]},"sop_exempt":false}}`)
	f.Add(`{"time":"1","type":"REQUEST_ALIVE","source":{"type":"URL_REQUEST","id":1},"phase":0,"params":{"url":1},"params":{"url":"u","bytes":-0}}`)
	f.Add(`{"time":"1","type":"REQUEST_ALIVE","source":{"type":"URL_REQUEST","id":1},"phase":0,"params":{"host":"\u0068"},"params":null}`)
	const head = `{"time":"1","type":"REQUEST_ALIVE","source":{"type":"URL_REQUEST","id":1},"phase":0`
	f.Add(head + `,"params":{"initiator":"https://a/","url":"http://a/?b\u0026c\u003cd\u003e"}}`)
	f.Add(`{"time":"007","type":"REQUEST_ALIVE","source":{"type":"URL_REQUEST","id":1},"phase":0}`)
	f.Add(head + `,"params":{"bytes":-0}}`)
	f.Add(head + `,"params":{"bytes":9007199254740993}}`)
	f.Add(head + `,"params":{"url":"a","url":"b"}}`)
	f.Add(head + `,"params":{"url":"a","initiator":"b"}}`)
	f.Add(head + `,"params":null}`)
	f.Add(head + `,"params":{}}`)
	f.Add(head + "}\r")
	f.Add(head + `,"params":{"url":"a","x":{"url":"b"}}}`)

	f.Fuzz(func(t *testing.T, input string) {
		checkFastPathLikeSlow(t, input)
		log, err := ReadJSONL(strings.NewReader(input))
		if err != nil {
			return
		}
		var maps []map[string]any
		for _, line := range strings.Split(input, "\n") {
			if len(trimSpace([]byte(line))) == 0 {
				continue
			}
			var je jsonlEvent
			if err := json.Unmarshal([]byte(line), &je); err != nil {
				t.Fatalf("accepted line %q does not decode: %v", line, err)
			}
			maps = append(maps, je.Params)
		}
		var out, want bytes.Buffer
		if err := log.WriteJSONL(&out); err != nil {
			t.Fatalf("re-serialize of accepted input failed: %v", err)
		}
		enc := json.NewEncoder(&want)
		for i := range log.Events {
			e := &log.Events[i]
			checkAccessorsLikeMap(t, e, maps[i])
			if err := enc.Encode(jsonlEvent{
				Time:   strconv.FormatInt(e.Time.Microseconds(), 10),
				Type:   string(e.Type),
				Source: jsonlSource{Type: e.Source.Type.String(), ID: e.Source.ID},
				Phase:  int(e.Phase),
				Params: maps[i],
			}); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(out.Bytes(), want.Bytes()) {
			t.Fatalf("typed re-encode differs from map re-encode\n got %s\nwant %s", out.Bytes(), want.Bytes())
		}
		back, err := ReadJSONL(&out)
		if err != nil {
			t.Fatalf("round trip re-parse failed: %v", err)
		}
		if back.Len() != log.Len() {
			t.Fatalf("round trip changed event count: %d != %d", back.Len(), log.Len())
		}
	})
}

// checkFastPathLikeSlow splits input into lines as JSONLReader does and,
// for each line the fast path accepts, requires that encoding/json
// accepts it too and decodes the same event, and that the line is
// WriteJSONL's rendering of that event up to string escaping: the same
// JSON tokens in the same order, numbers as written.
func checkFastPathLikeSlow(t *testing.T, input string) {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(input))
	sc.Buffer(nil, maxJSONLLine)
	for sc.Scan() {
		line := sc.Bytes()
		var fast Event
		if !decodeJSONLFast(&jsonscan.Scanner{}, line, &fast) {
			continue
		}
		slow, err := decodeJSONLEvent(line)
		if err != nil {
			t.Fatalf("fast path accepted a line encoding/json rejects (%v): %q", err, line)
		}
		if !reflect.DeepEqual(fast, slow) {
			t.Fatalf("fast and slow paths decode %q differently\nfast %+v\nslow %+v", line, fast, slow)
		}
		var out bytes.Buffer
		if err := (&Log{Events: []Event{fast}}).WriteJSONL(&out); err != nil {
			t.Fatal(err)
		}
		if got, want := jsonTokens(t, line), jsonTokens(t, out.Bytes()); !reflect.DeepEqual(got, want) {
			t.Fatalf("fast path accepted a line WriteJSONL does not write\n got %q\nwant %q", line, out.Bytes())
		}
	}
}

// jsonTokens returns the JSON tokens of one value, numbers as written.
func jsonTokens(t *testing.T, b []byte) []json.Token {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var toks []json.Token
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return toks
		}
		if err != nil {
			t.Fatalf("tokenizing %q: %v", b, err)
		}
		toks = append(toks, tok)
	}
}

// TestJSONLReaderFastPathAllocs pins what the fast path allocates per
// event: no params map and no event-type or source-type string, only
// one string per string param.
func TestJSONLReaderFastPathAllocs(t *testing.T) {
	var buf bytes.Buffer
	r := NewRecorder()
	r.Begin(time.Second, TypeURLRequestStartJob, r.NewSource(SourceURLRequest),
		Params{}.WithURL("http://127.0.0.1:8080/status").WithInitiator("https://a.example/"))
	if err := r.Log().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	line := buf.Bytes()
	if !DecodesFast(bytes.TrimSuffix(line, []byte("\n"))) {
		t.Fatalf("line not on the fast path: %s", line)
	}
	d := NewJSONLReader(&repeatReader{line: line})
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := d.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("Next allocates %.1f times per event, want at most 2 (the url and initiator strings)", allocs)
	}
}

// repeatReader yields line over and over.
type repeatReader struct {
	line []byte
	off  int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		c := copy(p[n:], r.line[r.off:])
		n += c
		r.off = (r.off + c) % len(r.line)
	}
	return n, nil
}
