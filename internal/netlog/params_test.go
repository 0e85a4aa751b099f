package netlog

import (
	"bytes"
	"encoding/json"
	"strconv"
	"testing"
	"time"
)

// paramCases pairs each parameter shape the browser and the real-network
// transport record, plus encoding edge cases, with the equivalent
// map[string]any.
var paramCases = []struct {
	name  string
	typed Params
	m     map[string]any
}{
	{"empty", Params{}, map[string]any{}},
	{"blocked navigation", Params{}.WithURL("https://x.test/").WithNetError("ERR_BLOCKED_BY_CLIENT"),
		map[string]any{"url": "https://x.test/", "net_error": "ERR_BLOCKED_BY_CLIENT"}},
	{"request alive", Params{}.WithURL("ws://localhost:5939/").WithInitiator("blob:threatmetrix").WithMethod("GET").WithSOPExempt(true),
		map[string]any{"url": "ws://localhost:5939/", "initiator": "blob:threatmetrix", "method": "GET", "sop_exempt": true}},
	{"request alive, empty initiator, not exempt", Params{}.WithURL("https://a.test/").WithInitiator("").WithMethod("GET").WithSOPExempt(false),
		map[string]any{"url": "https://a.test/", "initiator": "", "method": "GET", "sop_exempt": false}},
	{"unparsable url", Params{}.WithURL("http://[::1").WithInitiator("img"),
		map[string]any{"url": "http://[::1", "initiator": "img"}},
	{"redirect", Params{}.WithURL("http://a.test/").WithLocation("http://127.0.0.1/"),
		map[string]any{"url": "http://a.test/", "location": "http://127.0.0.1/"}},
	{"status", Params{}.WithStatusCode(200), map[string]any{"status_code": 200}},
	{"resolver begin", Params{}.WithHost("cdn.test"), map[string]any{"host": "cdn.test"}},
	{"resolver ok", Params{}.WithHost("cdn.test").WithAddress("192.0.2.7"),
		map[string]any{"host": "cdn.test", "address": "192.0.2.7"}},
	{"resolver failed", Params{}.WithHost("cdn.test").WithNetError("ERR_NAME_NOT_RESOLVED"),
		map[string]any{"host": "cdn.test", "net_error": "ERR_NAME_NOT_RESOLVED"}},
	{"socket", Params{}.WithAddress("[::1]:8080"), map[string]any{"address": "[::1]:8080"}},
	{"socket error", Params{}.WithNetError("ERR_CONNECTION_REFUSED"), map[string]any{"net_error": "ERR_CONNECTION_REFUSED"}},
	{"request headers", Params{}.WithMethod("GET").WithPath("/a?b=1&c=<2>").WithUserAgent("Mozilla/5.0 (X11; Linux x86_64)"),
		map[string]any{"method": "GET", "path": "/a?b=1&c=<2>", "user_agent": "Mozilla/5.0 (X11; Linux x86_64)"}},
	{"frame", Params{}.WithOp("text"), map[string]any{"op": "text"}},
	{"body", Params{}.WithBytes(4096), map[string]any{"bytes": 4096}},
	{"zero bytes", Params{}.WithBytes(0), map[string]any{"bytes": 0}},
	{"http client", Params{}.WithURL("http://127.0.0.1:8080/?a=1&b=2").WithMethod("POST").WithInitiator("http-client"),
		map[string]any{"url": "http://127.0.0.1:8080/?a=1&b=2", "method": "POST", "initiator": "http-client"}},
	{"escapes", Params{}.WithURL("http://x/\"q\"\\\n\t é\x01").WithInitiator("<script>&"),
		map[string]any{"url": "http://x/\"q\"\\\n\t é\x01", "initiator": "<script>&"}},
	{"invalid utf-8", Params{}.WithPath("/\xff\xfe"), map[string]any{"path": "/\xff\xfe"}},
	{"negative status", Params{}.WithStatusCode(-1), map[string]any{"status_code": -1}},
	{"unknown keys merge in order", Params{}.WithURL("u").with("aaa", "first").with("v", 1.5).with("zz", nil).WithOp("o"),
		map[string]any{"url": "u", "aaa": "first", "v": 1.5, "zz": nil, "op": "o"}},
	{"nested", Params{}.with("headers", map[string]any{"b": []any{1.0, "x&y"}, "a": true}).WithStatusCode(101),
		map[string]any{"headers": map[string]any{"b": []any{1.0, "x&y"}, "a": true}, "status_code": 101}},
	{"known key, other type", Params{}.with("status_code", 200.5).with("url", 7.0).with("sop_exempt", "yes"),
		map[string]any{"status_code": 200.5, "url": 7.0, "sop_exempt": "yes"}},
	{"typed replaces other type", Params{}.with("url", 7.0).WithURL("http://a/"), map[string]any{"url": "http://a/"}},
	{"other type replaces typed", Params{}.WithStatusCode(200).with("status_code", "200"), map[string]any{"status_code": "200"}},
	{"escaped unknown key", Params{}.with("a<b", 1).WithAddress("x"), map[string]any{"a<b": 1, "address": "x"}},
}

// with sets any parameter, as a map[string]any entry would: a typed key
// given a value of its own type is stored typed, anything else goes on
// the side list.
func (p Params) with(key string, v any) Params {
	m := p.asMap()
	if m == nil {
		m = map[string]any{}
	}
	m[key] = v
	return paramsFromMap(m)
}

// TestParamsEncodeLikeMap pins both event formats' params to
// encoding/json's rendering of the equivalent map, byte for byte, and
// checks each decoder restores what a map decode restores.
func TestParamsEncodeLikeMap(t *testing.T) {
	for _, tc := range paramCases {
		t.Run(tc.name, func(t *testing.T) {
			checkAccessorsLikeMap(t, &Event{Params: tc.typed}, tc.m)

			log := &Log{Events: []Event{{Time: time.Millisecond, Type: TypeRequestAlive, Source: Source{Type: SourceURLRequest, ID: 1}, Params: tc.typed}}}
			var jl, mapJL bytes.Buffer
			if err := log.WriteJSONL(&jl); err != nil {
				t.Fatal(err)
			}
			if err := json.NewEncoder(&mapJL).Encode(jsonlEvent{
				Time: "1000", Type: string(TypeRequestAlive), Source: jsonlSource{Type: "URL_REQUEST", ID: 1}, Params: tc.m,
			}); err != nil {
				t.Fatal(err)
			}
			if jl.String() != mapJL.String() {
				t.Fatalf("WriteJSONL\n got %s\nwant %s", jl.String(), mapJL.String())
			}
			var ex bytes.Buffer
			if err := log.WriteJSON(&ex); err != nil {
				t.Fatal(err)
			}
			if want := mapExport(t, log, []map[string]any{tc.m}); ex.String() != want {
				t.Fatalf("WriteJSON\n got %s\nwant %s", ex.String(), want)
			}

			var decoded jsonlEvent
			if err := json.Unmarshal(jl.Bytes(), &decoded); err != nil {
				t.Fatal(err)
			}
			back, err := ReadJSONL(bytes.NewReader(jl.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			checkAccessorsLikeMap(t, &back.Events[0], decoded.Params)
			fromExport, err := ParseJSON(&ex)
			if err != nil {
				t.Fatal(err)
			}
			checkAccessorsLikeMap(t, &fromExport.Events[0], decoded.Params)
			var again bytes.Buffer
			if err := back.WriteJSONL(&again); err != nil {
				t.Fatal(err)
			}
			mapJL.Reset()
			if err := json.NewEncoder(&mapJL).Encode(decoded); err != nil {
				t.Fatal(err)
			}
			if again.String() != mapJL.String() {
				t.Fatalf("decode then encode\n got %s\nwant %s", again.String(), mapJL.String())
			}
		})
	}
}

// mapExport renders log in the export format with params[i] standing in
// for event i's parameters.
func mapExport(t testing.TB, log *Log, params []map[string]any) string {
	t.Helper()
	out := jsonLog{Constants: buildConstants(), Events: []jsonEvent{}}
	for i, e := range log.Events {
		out.Events = append(out.Events, jsonEvent{
			Phase:  int(e.Phase),
			Source: jsonSource{ID: e.Source.ID, Type: sourceTypeCodes[e.Source.Type]},
			Time:   strconv.FormatInt(e.Time.Microseconds(), 10),
			Type:   eventTypeCodes[e.Type],
			Params: params[i],
		})
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(out); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// checkAccessorsLikeMap checks ParamString, ParamInt and ParamBool
// against their definitions over a map[string]any, for every key of m
// and every typed key.
func checkAccessorsLikeMap(t testing.TB, e *Event, m map[string]any) {
	t.Helper()
	keys := append([]string{"missing"}, paramNames[:]...)
	for k := range m {
		keys = append(keys, k)
	}
	for _, k := range keys {
		s, _ := m[k].(string)
		if got := e.ParamString(k); got != s {
			t.Fatalf("ParamString(%q) = %q, map gives %q", k, got, s)
		}
		var n int
		var nok bool
		switch v := m[k].(type) {
		case int:
			n, nok = v, true
		case int64:
			n, nok = int(v), true
		case float64:
			n, nok = int(v), true
		}
		if got, ok := e.ParamInt(k); got != n || ok != nok {
			t.Fatalf("ParamInt(%q) = %d, %v; map gives %d, %v", k, got, ok, n, nok)
		}
		b, bok := m[k].(bool)
		if got, ok := e.ParamBool(k); got != b || ok != bok {
			t.Fatalf("ParamBool(%q) = %v, %v; map gives %v, %v", k, got, ok, b, bok)
		}
	}
}

// TestParamsDecodeLikeMap converts maps decoded from JSON objects that
// real uploads may carry and checks encode and accessors agree with the
// map, and that integral numbers of int keys are stored typed.
func TestParamsDecodeLikeMap(t *testing.T) {
	inputs := []struct {
		in    string
		typed []paramKey
	}{
		{`{}`, nil},
		{` { "url" : "http://a/" , "status_code" : 2e2 } `, []paramKey{keyURL, keyStatusCode}},
		{`{"status_code":200.0,"bytes":-0,"sop_exempt":false}`, []paramKey{keyStatusCode, keySOPExempt}},
		{`{"status_code":200.5,"bytes":1e19,"url":null}`, nil},
		{`{"status_code":-9223372036854775808,"bytes":9223372036854775807}`, nil},
		{`{"status_code":9007199254740992,"bytes":-9007199254740992}`, []paramKey{keyStatusCode, keyBytes}},
		{`{"status_code":9007199254740993,"bytes":18014398509481984}`, []paramKey{keyStatusCode}},
		{`{"status_code":1152921504606846976}`, nil},
		{`{"url":"a","url":5,"url":"b"}`, []paramKey{keyURL}},
		{`{"url":"a","url":{"x":[1,"}"]}}`, nil},
		{`{"url":"http://a/?x=1&y=2","k\"ey":"😀","bad":"\ud800"}`, []paramKey{keyURL}},
		{`{"host":"h\/x","op":"café","path":" "}`, []paramKey{keyHost, keyOp, keyPath}},
		{`{"sop_exempt":1,"method":true,"initiator":[]}`, nil},
		{`{"z":1,"y":2,"x":3,"url":"u","a":{}}`, []paramKey{keyURL}},
		{`{"bytes":0.0000001,"status_code":1E20}`, nil},
		{`{"status_code":1e-400}`, []paramKey{keyStatusCode}},
		{`{"status_code":-1e-400}`, nil},
	}
	for _, c := range inputs {
		var m map[string]any
		if err := json.Unmarshal([]byte(c.in), &m); err != nil {
			t.Fatal(err)
		}
		p := paramsFromMap(m)
		want, _ := json.Marshal(m)
		got, _ := json.Marshal(p.asMap())
		if p.IsZero() {
			got = []byte("{}")
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: encodes as %s, map as %s", c.in, got, want)
		}
		checkAccessorsLikeMap(t, &Event{Params: p}, m)
		var has uint16
		for _, k := range c.typed {
			has |= 1 << k
		}
		if p.has != has {
			t.Errorf("%s: typed keys %013b, want %013b", c.in, p.has, has)
		}
	}
}

// TestRecorderTypedParamsAllocFree: with typed params, recording an event
// into a recorder that has room costs no allocation.
func TestRecorderTypedParamsAllocFree(t *testing.T) {
	r := NewRecorder()
	src := r.NewSource(SourceURLRequest)
	const perRun = 4
	url, initiator := "wss://localhost:5939/", "blob:threatmetrix"
	r.events = make([]Event, 0, 1000*perRun)
	allocs := testing.AllocsPerRun(500, func() {
		r.Begin(time.Millisecond, TypeRequestAlive, src, Params{}.WithURL(url).WithInitiator(initiator).WithMethod("GET").WithSOPExempt(true))
		r.Point(2*time.Millisecond, TypeWebSocketReadHandshakeResponse, src, Params{}.WithStatusCode(101))
		r.Point(3*time.Millisecond, TypeURLRequestError, src, Params{}.WithURL(url).WithNetError("ERR_CONNECTION_REFUSED"))
		r.End(4*time.Millisecond, TypeRequestAlive, src, Params{})
	})
	if allocs != 0 {
		t.Fatalf("recording %d typed events allocated %.1f times per run, want 0", perRun, allocs)
	}
}
