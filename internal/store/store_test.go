package store

import (
	"bytes"
	"errors"
	"io"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/knockandtalk/knockandtalk/internal/netlog"
)

func samplePage(domain string, rank int) PageRecord {
	return PageRecord{
		Crawl: "top100k-2020", OS: "Windows", Domain: domain, Rank: rank,
		URL: "https://" + domain + "/", FinalURL: "https://" + domain + "/",
		CommittedAt: 900 * time.Millisecond, Events: 25,
	}
}

func sampleLocal(domain string) LocalRequest {
	return LocalRequest{
		Crawl: "top100k-2020", OS: "Windows", Domain: domain, Rank: 104,
		URL: "wss://localhost:5939/", Scheme: "wss", Host: "localhost",
		Port: 5939, Path: "/", Dest: "localhost", Delay: 10 * time.Second,
		Initiator: "blob:threatmetrix", NetError: "ERR_CONNECTION_REFUSED", SOPExempt: true,
	}
}

func TestAddAndQuery(t *testing.T) {
	s := New()
	s.AddPage(samplePage("ebay.com", 104))
	s.AddPage(PageRecord{Crawl: "top100k-2020", OS: "Windows", Domain: "dead.example", Err: "ERR_NAME_NOT_RESOLVED"})
	s.AddLocal(sampleLocal("ebay.com"))

	if s.NumPages() != 2 || s.NumLocals() != 1 {
		t.Fatalf("counts = %d pages, %d locals", s.NumPages(), s.NumLocals())
	}
	ok := s.Pages(func(p *PageRecord) bool { return p.OK() })
	if len(ok) != 1 || ok[0].Domain != "ebay.com" {
		t.Errorf("OK filter = %v", ok)
	}
	wss := s.Locals(func(l *LocalRequest) bool { return l.Scheme == "wss" })
	if len(wss) != 1 {
		t.Errorf("wss filter = %v", wss)
	}
	if all := s.Locals(nil); len(all) != 1 {
		t.Errorf("nil filter should keep everything")
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	s := New()
	l := sampleLocal("x.example")
	l.Delay = -5 * time.Second
	s.AddLocal(l)
	if got := s.Locals(nil)[0].Delay; got != 0 {
		t.Errorf("Delay = %v, want clamped to 0", got)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := New()
	s.AddPage(samplePage("ebay.com", 104))
	s.AddPage(samplePage("hola.org", 244))
	s.AddLocal(sampleLocal("ebay.com"))

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back := New()
	if err := back.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if back.NumPages() != 2 || back.NumLocals() != 1 {
		t.Fatalf("round trip lost records: %d pages, %d locals", back.NumPages(), back.NumLocals())
	}
	got := back.Locals(nil)[0]
	want := sampleLocal("ebay.com")
	if got != want {
		t.Errorf("local changed in round trip:\n got %+v\nwant %+v", got, want)
	}
}

func TestSaveDeterministicAcrossInsertOrder(t *testing.T) {
	a, b := New(), New()
	pages := []PageRecord{samplePage("b.example", 2), samplePage("a.example", 1), samplePage("c.example", 3)}
	for _, p := range pages {
		a.AddPage(p)
	}
	for i := len(pages) - 1; i >= 0; i-- {
		b.AddPage(pages[i])
	}
	var ba, bb bytes.Buffer
	if err := a.Save(&ba); err != nil {
		t.Fatal(err)
	}
	if err := b.Save(&bb); err != nil {
		t.Fatal(err)
	}
	if ba.String() != bb.String() {
		t.Error("serialization depends on insert order")
	}
}

// TestLoadAppendMerge pins the semantics of loading into a populated
// store: records from every file join one snapshot, duplicates are
// kept, netlogs merge too, and the merged store saves to the same
// canonical bytes no matter the load order.
func TestLoadAppendMerge(t *testing.T) {
	a, b := New(), New()
	a.AddPage(samplePage("ebay.com", 104))
	a.AddLocal(sampleLocal("ebay.com"))
	if err := a.AddNetLog("top100k-2020", "Windows", "ebay.com", sampleNetLog(t)); err != nil {
		t.Fatal(err)
	}
	p21 := samplePage("hola.org", 244)
	p21.Crawl = "top100k-2021"
	b.AddPage(p21)
	b.AddLocal(sampleLocal("ebay.com")) // same record as in a: kept, not deduped

	var fa, fb bytes.Buffer
	if err := a.Save(&fa); err != nil {
		t.Fatal(err)
	}
	if err := b.Save(&fb); err != nil {
		t.Fatal(err)
	}

	merged := New()
	if err := merged.Load(bytes.NewReader(fa.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := merged.Load(bytes.NewReader(fb.Bytes())); err != nil {
		t.Fatal(err)
	}
	if merged.NumPages() != 2 || merged.NumLocals() != 2 || merged.NumNetLogs() != 1 {
		t.Fatalf("merge = %d pages, %d locals, %d netlogs; want 2/2/1",
			merged.NumPages(), merged.NumLocals(), merged.NumNetLogs())
	}
	if got := merged.Pages(func(p *PageRecord) bool { return p.Crawl == "top100k-2021" }); len(got) != 1 {
		t.Fatalf("merged store lost the second crawl: %v", got)
	}

	reversed := New()
	if err := reversed.Load(bytes.NewReader(fb.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := reversed.Load(bytes.NewReader(fa.Bytes())); err != nil {
		t.Fatal(err)
	}
	var sm, sr bytes.Buffer
	if err := merged.Save(&sm); err != nil {
		t.Fatal(err)
	}
	if err := reversed.Save(&sr); err != nil {
		t.Fatal(err)
	}
	if sm.String() != sr.String() {
		t.Error("canonical serialization depends on load order")
	}
}

func TestLoadFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, fill func(*Store)) string {
		s := New()
		fill(s)
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		path := dir + "/" + name
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	pa := write("a.jsonl", func(s *Store) { s.AddPage(samplePage("ebay.com", 104)) })
	pb := write("b.jsonl", func(s *Store) { s.AddLocal(sampleLocal("ebay.com")) })

	st := New()
	if err := st.LoadFiles(pa, pb); err != nil {
		t.Fatal(err)
	}
	if st.NumPages() != 1 || st.NumLocals() != 1 {
		t.Fatalf("LoadFiles = %d pages, %d locals", st.NumPages(), st.NumLocals())
	}
	if err := New().LoadFiles(dir + "/missing.jsonl"); err == nil {
		t.Error("missing file not reported")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := []string{
		`{"t":"alien"}`,
		`{"t":"page"}`,
		`{"t":"local"}`,
		`{nonsense`,
	}
	for i, in := range cases {
		if err := New().Load(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: Load accepted malformed input", i)
		}
	}
	if err := New().Load(strings.NewReader("")); err != nil {
		t.Errorf("empty input should be fine: %v", err)
	}
}

// TestLoadFallbackHandOff pins Load's behaviour across the hand-off from
// the fast path to encoding/json: the record numbering continues, the
// records before a corrupt one are appended and none after it, and a
// read error surfaces wrapped with its record number.
func TestLoadFallbackHandOff(t *testing.T) {
	s := New()
	s.AddPage(samplePage("a.example", 1))
	s.AddPage(samplePage("b.example", 2))
	s.AddLocal(sampleLocal("a.example"))
	var saved bytes.Buffer
	if err := s.Save(&saved); err != nil {
		t.Fatal(err)
	}
	const (
		spaced  = `{"t": "page", "page": {"crawl":"c","os":"Windows","domain":"d.example","url":"http://d/"}}` + "\n"
		fast    = `{"t":"page","page":{"crawl":"c","os":"Windows","domain":"e.example","url":"http://e/"}}` + "\n"
		corrupt = `{"t":"page","page":{"crawl":"c","os":"Windows","domain":"f.example","rank":"7"}}` + "\n"
		after   = `{"t":"page","page":{"crawl":"c","os":"Windows","domain":"g.example"}}` + "\n"
	)
	readErr := errors.New("connection reset")
	cases := []struct {
		name    string
		in      io.Reader
		pages   []string
		wantErr string
	}{
		{
			name:    "corrupt after hand-off",
			in:      strings.NewReader(saved.String() + spaced + fast + corrupt + after),
			pages:   []string{"a.example", "b.example", "d.example", "e.example"},
			wantErr: "store: record 6: json: cannot unmarshal string into Go struct field PageRecord.page.rank of type int",
		},
		{
			name:    "corrupt line is the hand-off",
			in:      strings.NewReader(saved.String() + corrupt + fast),
			pages:   []string{"a.example", "b.example"},
			wantErr: "store: record 4: json: cannot unmarshal string into Go struct field PageRecord.page.rank of type int",
		},
		{
			name:    "read error mid-line",
			in:      io.MultiReader(strings.NewReader(saved.String()+fast[:20]), errReader{readErr}),
			pages:   []string{"a.example", "b.example"},
			wantErr: "store: record 4: connection reset",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := New()
			err := got.Load(tc.in)
			if err == nil || err.Error() != tc.wantErr {
				t.Fatalf("Load error = %v, want %q", err, tc.wantErr)
			}
			if strings.Contains(tc.wantErr, readErr.Error()) && !errors.Is(err, readErr) {
				t.Errorf("Load error %v does not wrap the read error", err)
			}
			var domains []string
			for _, p := range got.Pages(nil) {
				domains = append(domains, p.Domain)
			}
			sort.Strings(domains)
			if !reflect.DeepEqual(domains, tc.pages) || got.NumLocals() != 1 {
				t.Errorf("appended pages %v and %d locals, want %v and 1", domains, got.NumLocals(), tc.pages)
			}
		})
	}
}

func TestConcurrentWriters(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.AddPage(samplePage("x.example", w*1000+i))
				s.AddLocal(sampleLocal("x.example"))
			}
		}(w)
	}
	wg.Wait()
	if s.NumPages() != 1600 || s.NumLocals() != 1600 {
		t.Errorf("lost records under concurrency: %d/%d", s.NumPages(), s.NumLocals())
	}
}

func sampleNetLog(t testing.TB) *netlog.Log {
	t.Helper()
	r := netlog.NewRecorder()
	src := r.NewSource(netlog.SourceURLRequest)
	r.Begin(0, netlog.TypeRequestAlive, src, netlog.Params{}.WithURL("wss://localhost:5939/"))
	r.Point(2*time.Millisecond, netlog.TypeURLRequestError, src, netlog.Params{}.WithNetError("ERR_CONNECTION_REFUSED"))
	return r.Log()
}

func TestNetLogRetention(t *testing.T) {
	s := New()
	if err := s.AddNetLog("top100k-2020", "Windows", "ebay.com", sampleNetLog(t)); err != nil {
		t.Fatal(err)
	}
	if s.NumNetLogs() != 1 {
		t.Fatalf("NumNetLogs = %d", s.NumNetLogs())
	}
	log, ok, err := s.NetLog("top100k-2020", "Windows", "ebay.com")
	if err != nil || !ok || log.Len() != 2 {
		t.Fatalf("NetLog = ok=%v err=%v len=%d", ok, err, log.Len())
	}
	if _, ok, _ := s.NetLog("top100k-2020", "Linux", "ebay.com"); ok {
		t.Error("wrong-OS lookup should miss")
	}
	doms := s.NetLogDomains("top100k-2020")
	if len(doms) != 1 || doms[0] != [2]string{"Windows", "ebay.com"} {
		t.Errorf("NetLogDomains = %v", doms)
	}
	if got := s.NetLogDomains("malicious"); got != nil {
		t.Errorf("other-crawl domains = %v", got)
	}
}

func TestNetLogRecordsSortedInSave(t *testing.T) {
	s := New()
	for _, d := range []string{"zeta.example", "alpha.example"} {
		if err := s.AddNetLog("c", "Windows", d, sampleNetLog(t)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Index(out, "alpha.example") > strings.Index(out, "zeta.example") {
		t.Error("netlog records not canonically sorted")
	}
	// And the reloaded capture parses.
	back := New()
	if err := back.Load(strings.NewReader(out)); err != nil {
		t.Fatal(err)
	}
	if log, ok, err := back.NetLog("c", "Windows", "alpha.example"); err != nil || !ok || log.Len() != 2 {
		t.Fatalf("reload: ok=%v err=%v", ok, err)
	}
}

func TestNetLogCorruptPayload(t *testing.T) {
	s := New()
	if err := s.Load(strings.NewReader(`{"t":"netlog","netlog":{"crawl":"c","os":"Windows","domain":"d","log":["not","a","netlog"]}}`)); err != nil {
		t.Fatal(err) // the envelope itself is well-formed JSON
	}
	if _, ok, err := s.NetLog("c", "Windows", "d"); !ok || err == nil {
		t.Errorf("corrupt capture should surface a parse error: ok=%v err=%v", ok, err)
	}
}

func TestConcurrentBatchesAndReads(t *testing.T) {
	// Hammers the sharded write path (AddPage/AddLocal/AddBatch/bulk
	// appends) while readers snapshot concurrently; run with -race in CI.
	s := New()
	s.Reserve(4096)
	const writers, perWriter = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var b Batch
			for i := 0; i < perWriter; i++ {
				d := "w" + strings.Repeat("x", w) + "-" + strings.Repeat("i", i%17) + ".example"
				switch i % 3 {
				case 0:
					s.AddPage(samplePage(d, i))
					s.AddLocal(sampleLocal(d))
				case 1:
					s.AddPages([]PageRecord{samplePage(d, i)})
					s.AddLocals([]LocalRequest{sampleLocal(d)})
				default:
					b.Reset()
					b.AddPage(samplePage(d, i))
					b.AddLocal(sampleLocal(d))
					s.AddBatch(&b)
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s.Pages(func(p *PageRecord) bool { return p.Rank%2 == 0 })
				s.Locals(nil)
				s.NumPages()
				s.NumLocals()
			}
		}()
	}
	wg.Wait()
	if got := s.NumPages(); got != writers*perWriter {
		t.Errorf("pages = %d, want %d", got, writers*perWriter)
	}
	if got := s.NumLocals(); got != writers*perWriter {
		t.Errorf("locals = %d, want %d", got, writers*perWriter)
	}
	var a, b bytes.Buffer
	if err := s.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("Save is not deterministic over a concurrently filled store")
	}
}
