package netlog

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestPhaseString(t *testing.T) {
	cases := map[Phase]string{
		PhaseNone:  "PHASE_NONE",
		PhaseBegin: "PHASE_BEGIN",
		PhaseEnd:   "PHASE_END",
		Phase(9):   "PHASE_UNKNOWN(9)",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("Phase(%d).String() = %q, want %q", int(p), got, want)
		}
	}
}

func TestSourceTypeRoundTrip(t *testing.T) {
	for st := range sourceTypeNames {
		name := st.String()
		back, ok := SourceTypeFromString(name)
		if !ok || back != st {
			t.Errorf("SourceTypeFromString(%q) = %v, %v; want %v, true", name, back, ok, st)
		}
	}
	if _, ok := SourceTypeFromString("NOT_A_SOURCE"); ok {
		t.Error("SourceTypeFromString accepted an unknown name")
	}
}

func TestRecorderSerialSourceIDs(t *testing.T) {
	r := NewRecorder()
	a := r.NewSource(SourceURLRequest)
	b := r.NewSource(SourceSocket)
	c := r.NewSource(SourceURLRequest)
	if a.ID != 1 || b.ID != 2 || c.ID != 3 {
		t.Errorf("source IDs not serial: got %d, %d, %d", a.ID, b.ID, c.ID)
	}
	if a.Type != SourceURLRequest || b.Type != SourceSocket {
		t.Error("source types not preserved")
	}
}

func TestRecorderConcurrentSafety(t *testing.T) {
	r := NewRecorder()
	const workers, perWorker = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				src := r.NewSource(SourceURLRequest)
				r.Begin(time.Duration(i)*time.Millisecond, TypeRequestAlive, src, Params{})
			}
		}()
	}
	wg.Wait()
	if got := r.Len(); got != workers*perWorker {
		t.Fatalf("recorded %d events, want %d", got, workers*perWorker)
	}
	// All source IDs must be distinct.
	seen := make(map[uint32]bool)
	for _, e := range r.Log().Events {
		if seen[e.Source.ID] {
			t.Fatalf("duplicate source ID %d", e.Source.ID)
		}
		seen[e.Source.ID] = true
	}
}

func TestLogSnapshotIsolation(t *testing.T) {
	r := NewRecorder()
	src := r.NewSource(SourceURLRequest)
	r.Begin(0, TypeRequestAlive, src, Params{})
	snap := r.Log()
	r.End(time.Second, TypeRequestAlive, src, Params{})
	if snap.Len() != 1 {
		t.Errorf("snapshot grew after further recording: len = %d", snap.Len())
	}
}

func TestJSONRoundTrip(t *testing.T) {
	r := NewRecorder()
	req := r.NewSource(SourceURLRequest)
	sock := r.NewSource(SourceSocket)
	r.Begin(0, TypeRequestAlive, req, Params{}.WithURL("http://127.0.0.1:8080/x"))
	r.Begin(1500*time.Microsecond, TypeTCPConnect, sock, Params{}.WithAddress("127.0.0.1:8080"))
	r.Point(2*time.Millisecond, TypeSocketError, sock, Params{}.WithNetError("ERR_CONNECTION_REFUSED"))
	r.End(3*time.Millisecond, TypeRequestAlive, req, Params{})
	log := r.Log()

	var buf bytes.Buffer
	if err := log.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := ParseJSON(&buf)
	if err != nil {
		t.Fatalf("ParseJSON: %v", err)
	}
	if got.Len() != log.Len() {
		t.Fatalf("round trip changed event count: %d != %d", got.Len(), log.Len())
	}
	for i := range log.Events {
		a, b := log.Events[i], got.Events[i]
		if a.Time != b.Time || a.Type != b.Type || a.Source != b.Source || a.Phase != b.Phase {
			t.Errorf("event %d changed: %+v != %+v", i, a, b)
		}
	}
	if got.Events[2].ParamString("net_error") != "ERR_CONNECTION_REFUSED" {
		t.Error("params lost in round trip")
	}
}

func TestJSONSubMillisecondPrecision(t *testing.T) {
	r := NewRecorder()
	src := r.NewSource(SourceURLRequest)
	r.Begin(137*time.Microsecond, TypeRequestAlive, src, Params{}.WithURL("http://localhost/"))
	var buf bytes.Buffer
	if err := r.Log().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParseJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Events[0].Time != 137*time.Microsecond {
		t.Errorf("time = %v, want 137µs", got.Events[0].Time)
	}
}

func TestParseJSONRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"{",
		`{"constants":{"logEventTypes":{},"logSourceType":{},"logEventPhase":{}},"events":[{"phase":0,"source":{"id":1,"type":0},"time":"0","type":999}]}`,
		`{"constants":{"logEventTypes":{"REQUEST_ALIVE":1},"logSourceType":{"BOGUS":9},"logEventPhase":{}},"events":[]}`,
		`{"constants":{"logEventTypes":{"REQUEST_ALIVE":1},"logSourceType":{"URL_REQUEST":1},"logEventPhase":{}},"events":[{"phase":0,"source":{"id":1,"type":1},"time":"abc","type":1}]}`,
		`{"constants":{"logEventTypes":{"REQUEST_ALIVE":1},"logSourceType":{"URL_REQUEST":1},"logEventPhase":{}},"events":[{"phase":7,"source":{"id":1,"type":1},"time":"0","type":1}]}`,
	}
	for i, in := range cases {
		if _, err := ParseJSON(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: ParseJSON accepted malformed input", i)
		}
	}
}

func TestWriteJSONRejectsUnregisteredType(t *testing.T) {
	l := &Log{Events: []Event{{Type: EventType("MADE_UP"), Source: Source{Type: SourceURLRequest, ID: 1}}}}
	if err := l.WriteJSON(&bytes.Buffer{}); err == nil {
		t.Error("WriteJSON accepted an unregistered event type")
	}
}

func TestEventTypeCodesBijective(t *testing.T) {
	seen := make(map[int]EventType)
	for typ, code := range eventTypeCodes {
		if prev, dup := seen[code]; dup {
			t.Errorf("code %d assigned to both %q and %q", code, prev, typ)
		}
		seen[code] = typ
	}
	if len(eventTypeByCode) != len(eventTypeCodes) {
		t.Error("eventTypeByCode size mismatch")
	}
}

func TestBySourceGrouping(t *testing.T) {
	r := NewRecorder()
	a := r.NewSource(SourceURLRequest)
	b := r.NewSource(SourceURLRequest)
	r.Begin(0, TypeRequestAlive, a, Params{})
	r.Begin(1, TypeRequestAlive, b, Params{})
	r.End(2, TypeRequestAlive, a, Params{})
	groups := r.Log().BySource()
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2", len(groups))
	}
	if len(groups[a]) != 2 || len(groups[b]) != 1 {
		t.Errorf("group sizes wrong: a=%d b=%d", len(groups[a]), len(groups[b]))
	}
}

func TestFlowsReconstruction(t *testing.T) {
	r := NewRecorder()
	req := r.NewSource(SourceURLRequest)
	r.Begin(5*time.Millisecond, TypeRequestAlive, req, Params{}.WithURL("wss://localhost:5939/").WithInitiator("blob:threatmetrix"))
	r.Point(6*time.Millisecond, TypeWebSocketReadHandshakeResponse, req, Params{}.WithStatusCode(101))
	r.End(9*time.Millisecond, TypeRequestAlive, req, Params{})

	bare := r.NewSource(SourceSocket) // transport-only source: no URL, dropped
	r.Begin(1*time.Millisecond, TypeTCPConnect, bare, Params{})

	flows := r.Log().Flows()
	if len(flows) != 1 {
		t.Fatalf("got %d flows, want 1", len(flows))
	}
	f := flows[0]
	if f.URL != "wss://localhost:5939/" {
		t.Errorf("URL = %q", f.URL)
	}
	if f.Start != 5*time.Millisecond || f.End != 9*time.Millisecond {
		t.Errorf("span = [%v, %v]", f.Start, f.End)
	}
	if f.Duration() != 4*time.Millisecond {
		t.Errorf("Duration = %v", f.Duration())
	}
	if f.StatusCode != 101 {
		t.Errorf("StatusCode = %d", f.StatusCode)
	}
	if f.Initiator != "blob:threatmetrix" {
		t.Errorf("Initiator = %q", f.Initiator)
	}
	if f.Failed() {
		t.Error("flow reported as failed")
	}
}

func TestFlowErrorAndRedirect(t *testing.T) {
	r := NewRecorder()
	req := r.NewSource(SourceURLRequest)
	r.Begin(0, TypeRequestAlive, req, Params{}.WithURL("http://fincaraiz.com.co/"))
	r.Point(time.Millisecond, TypeURLRequestRedirect, req, Params{}.WithLocation("http://127.0.0.1/"))
	r.Point(2*time.Millisecond, TypeURLRequestError, req, Params{}.WithNetError("ERR_CONNECTION_REFUSED"))
	flows := r.Log().Flows()
	if len(flows) != 1 {
		t.Fatalf("got %d flows", len(flows))
	}
	f := flows[0]
	if !f.Failed() || f.NetError != "ERR_CONNECTION_REFUSED" {
		t.Errorf("error not captured: %+v", f)
	}
	if len(f.RedirectedTo) != 1 || f.RedirectedTo[0] != "http://127.0.0.1/" {
		t.Errorf("redirects = %v", f.RedirectedTo)
	}
}

func TestFlowsSortedByStart(t *testing.T) {
	r := NewRecorder()
	late := r.NewSource(SourceURLRequest)
	early := r.NewSource(SourceURLRequest)
	r.Begin(10*time.Millisecond, TypeRequestAlive, late, Params{}.WithURL("http://b/"))
	r.Begin(1*time.Millisecond, TypeRequestAlive, early, Params{}.WithURL("http://a/"))
	flows := r.Log().Flows()
	if len(flows) != 2 || flows[0].URL != "http://a/" {
		t.Errorf("flows not time-ordered: %+v", flows)
	}
}

func TestSortByTimeStable(t *testing.T) {
	l := &Log{Events: []Event{
		{Time: 3, Source: Source{ID: 2}, Type: TypeRequestAlive},
		{Time: 1, Source: Source{ID: 9}, Type: TypeRequestAlive},
		{Time: 3, Source: Source{ID: 1}, Type: TypeRequestAlive},
	}}
	l.SortByTime()
	if l.Events[0].Time != 1 || l.Events[1].Source.ID != 1 || l.Events[2].Source.ID != 2 {
		t.Errorf("sort order wrong: %+v", l.Events)
	}
}

func TestParamAccessors(t *testing.T) {
	e := Event{Params: Params{}.with("s", "x").with("i", 42).with("f", 7.0).with("i64", int64(5))}
	if e.ParamString("s") != "x" || e.ParamString("missing") != "" || e.ParamString("i") != "" {
		t.Error("ParamString wrong")
	}
	for key, want := range map[string]int{"i": 42, "f": 7, "i64": 5} {
		if got, ok := e.ParamInt(key); !ok || got != want {
			t.Errorf("ParamInt(%q) = %d, %v; want %d, true", key, got, ok, want)
		}
	}
	if _, ok := e.ParamInt("s"); ok {
		t.Error("ParamInt accepted a string")
	}
	var empty Event
	if empty.ParamString("x") != "" {
		t.Error("nil params not handled")
	}
}

// Property: any log built from registered types survives a JSON round trip
// with times, sources, types, and phases intact.
func TestQuickJSONRoundTrip(t *testing.T) {
	types := RegisteredEventTypes()
	f := func(seed int64, n uint8) bool {
		r := NewRecorder()
		// Deterministic pseudo-events from the seed.
		s := seed
		next := func() int64 { s = s*6364136223846793005 + 1442695040888963407; return s }
		for i := 0; i < int(n%40)+1; i++ {
			src := r.NewSource(SourceType(int(uint64(next())%6) + 1))
			typ := types[int(uint64(next())%uint64(len(types)))]
			at := time.Duration(uint64(next())%20_000_000) * time.Microsecond
			r.Emit(at, typ, src, Phase(uint64(next())%3), Params{}.with("k", "v"))
		}
		log := r.Log()
		var buf bytes.Buffer
		if err := log.WriteJSON(&buf); err != nil {
			return false
		}
		got, err := ParseJSON(&buf)
		if err != nil || got.Len() != log.Len() {
			return false
		}
		for i := range log.Events {
			a, b := log.Events[i], got.Events[i]
			if a.Time != b.Time || a.Type != b.Type || a.Source != b.Source || a.Phase != b.Phase {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBoundedRecorder(t *testing.T) {
	r := NewBoundedRecorder(3)
	src := r.NewSource(SourceURLRequest)
	for i := 0; i < 10; i++ {
		r.Point(time.Duration(i), TypeRequestAlive, src, Params{})
	}
	if r.Len() != 3 {
		t.Errorf("retained = %d, want 3", r.Len())
	}
	if r.Dropped() != 7 {
		t.Errorf("dropped = %d, want 7", r.Dropped())
	}
	// Unbounded recorder never drops.
	u := NewRecorder()
	for i := 0; i < 10; i++ {
		u.Point(time.Duration(i), TypeRequestAlive, src, Params{})
	}
	if u.Dropped() != 0 || u.Len() != 10 {
		t.Errorf("unbounded recorder dropped events: %d/%d", u.Dropped(), u.Len())
	}
}

func TestFlowStatsMatchesFlows(t *testing.T) {
	// FlowStats must produce exactly the flows of Flows, aggregate field
	// for aggregate field, with only Events left nil, in fresh memory
	// and in scratch that already folded the same log.
	r := NewRecorder()
	for i := 0; i < 40; i++ {
		src := r.NewSource(SourceURLRequest)
		url := "http://site" + string(rune('a'+i%7)) + ".example/"
		r.Begin(time.Duration(40-i)*time.Millisecond, TypeRequestAlive, src, Params{}.WithURL(url).WithInitiator("nav"))
		switch i % 4 {
		case 0:
			r.Point(time.Duration(41-i)*time.Millisecond, TypeURLRequestRedirect, src, Params{}.WithLocation("http://127.0.0.1/"))
		case 1:
			r.Point(time.Duration(41-i)*time.Millisecond, TypeURLRequestError, src, Params{}.WithNetError("ERR_CONNECTION_REFUSED"))
		case 2:
			r.Point(time.Duration(41-i)*time.Millisecond, TypeHTTPTransactionReadHeaders, src, Params{}.WithStatusCode(200))
		}
		r.End(time.Duration(42-i)*time.Millisecond, TypeRequestAlive, src, Params{})
	}
	bare := r.NewSource(SourceSocket)
	r.Begin(0, TypeTCPConnect, bare, Params{})
	br := r.NewSource(SourceBrowser)
	r.Begin(time.Millisecond, TypeRequestAlive, br, Params{})

	log := r.Log()
	var scratch FlowScratch
	log.FlowStats(&scratch)
	full := log.Flows()
	for _, lite := range [][]Flow{log.FlowStats(nil), log.FlowStats(&scratch)} {
		checkFlowStats(t, full, lite)
	}
}

func checkFlowStats(t *testing.T, full, lite []Flow) {
	t.Helper()
	if len(full) != len(lite) {
		t.Fatalf("flow counts differ: Flows %d, FlowStats %d", len(full), len(lite))
	}
	for i := range full {
		a, b := full[i], lite[i]
		if b.Events != nil {
			t.Fatalf("FlowStats[%d].Events not nil", i)
		}
		a.Events = nil
		if a.Source != b.Source || a.URL != b.URL || a.Start != b.Start || a.End != b.End ||
			a.NetError != b.NetError || a.StatusCode != b.StatusCode || a.Initiator != b.Initiator ||
			len(a.RedirectedTo) != len(b.RedirectedTo) {
			t.Errorf("flow %d differs:\nFlows:     %+v\nFlowStats: %+v", i, a, b)
		}
		for j := range a.RedirectedTo {
			if a.RedirectedTo[j] != b.RedirectedTo[j] {
				t.Errorf("flow %d redirect %d differs", i, j)
			}
		}
	}
}

// With warm scratch, folding a visit without redirects allocates
// nothing: the crawl's detector runs it on every page.
func TestFlowStatsAllocs(t *testing.T) {
	r := NewRecorder()
	for i := 0; i < 20; i++ {
		src := r.NewSource(SourceURLRequest)
		r.Begin(time.Duration(i), TypeRequestAlive, src, Params{}.WithURL("http://127.0.0.1/").WithInitiator("img"))
		r.Point(time.Duration(i+1), TypeURLRequestError, src, Params{}.WithNetError("ERR_CONNECTION_REFUSED"))
		r.End(time.Duration(i+2), TypeRequestAlive, src, Params{})
	}
	log := r.Log()
	var scratch FlowScratch
	if n := testing.AllocsPerRun(100, func() {
		if len(log.FlowStats(&scratch)) != 20 {
			t.Fatal("flows lost")
		}
	}); n != 0 {
		t.Errorf("%v allocs per FlowStats with warm scratch, want 0", n)
	}
}

func TestRecycleReturnsBufferWithoutCorruption(t *testing.T) {
	r := NewRecorder()
	src := r.NewSource(SourceURLRequest)
	r.Begin(0, TypeRequestAlive, src, Params{}.WithURL("http://a/"))
	log := r.TakeLog()
	if log.Len() != 1 {
		t.Fatalf("log has %d events", log.Len())
	}
	log.Recycle()
	if log.Events != nil {
		t.Error("Recycle must empty the log")
	}
	// A fresh recorder (possibly reusing the buffer) starts clean.
	r2 := NewRecorder()
	if r2.Len() != 0 {
		t.Errorf("recycled recorder starts with %d events", r2.Len())
	}
	r2.Begin(0, TypeRequestAlive, r2.NewSource(SourceURLRequest), Params{}.WithURL("http://b/"))
	if got := r2.Log().Events[0].ParamString("url"); got != "http://b/" {
		t.Errorf("event corrupted after recycle: %q", got)
	}
}
