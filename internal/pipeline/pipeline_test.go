package pipeline

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"github.com/knockandtalk/knockandtalk/internal/classify"
	"github.com/knockandtalk/knockandtalk/internal/groundtruth"
	"github.com/knockandtalk/knockandtalk/internal/localnet"
	"github.com/knockandtalk/knockandtalk/internal/netlog"
	"github.com/knockandtalk/knockandtalk/internal/portdb"
	"github.com/knockandtalk/knockandtalk/internal/probeinfer"
	"github.com/knockandtalk/knockandtalk/internal/store"
	"github.com/knockandtalk/knockandtalk/internal/whois"
)

// visitLog assembles a ThreatMetrix-shaped visit: a public landing
// page, a full localhost WSS port sweep, and one LAN image fetch.
func visitLog() *netlog.Log {
	r := netlog.NewRecorder()

	landing := r.NewSource(netlog.SourceURLRequest)
	r.Begin(0, netlog.TypeRequestAlive, landing, netlog.Params{}.WithURL("https://ebay.com/").WithInitiator("navigation"))
	r.End(800*time.Millisecond, netlog.TypeRequestAlive, landing, netlog.Params{}.WithStatusCode(200))

	at := 10 * time.Second
	for _, port := range portdb.ThreatMetrixPorts() {
		src := r.NewSource(netlog.SourceWebSocket)
		r.Begin(at, netlog.TypeRequestAlive, src, netlog.Params{}.
			WithURL(fmt.Sprintf("wss://localhost:%d/", port)).
			WithInitiator("blob:threatmetrix:h.online-metrix.net").
			WithSOPExempt(true))
		r.Point(at+3*time.Millisecond, netlog.TypeURLRequestError, src, netlog.Params{}.WithNetError("ERR_CONNECTION_REFUSED"))
		at += 5 * time.Millisecond
	}

	lan := r.NewSource(netlog.SourceURLRequest)
	r.Begin(3*time.Second, netlog.TypeRequestAlive, lan, netlog.Params{}.WithURL("http://192.168.0.10/wp-content/x.png").WithInitiator("img"))
	r.Point(12*time.Second, netlog.TypeSocketTimeout, lan, netlog.Params{})

	return r.Log()
}

func testVisit() Visit {
	return Visit{
		Crawl: "top100k-2020", OS: "Windows", Domain: "ebay.com", Rank: 42,
		URL: "https://ebay.com/", FinalURL: "https://ebay.com/", CommittedAt: time.Second,
	}
}

// TestProcessMatchesDirectCalls pins the pipeline to the underlying
// packages it composes: same findings as localnet, same inferences as
// probeinfer, same verdicts as classify.
func TestProcessMatchesDirectCalls(t *testing.T) {
	log := visitLog()
	v := testVisit()
	out := Process(log, v, Options{InferProbes: true, Classify: true})

	wantFindings := localnet.FromLog(log)
	if !reflect.DeepEqual(out.Findings, wantFindings) {
		t.Errorf("Findings diverge from localnet.FromLog: got %d, want %d", len(out.Findings), len(wantFindings))
	}
	wantInfer := probeinfer.FromLog(log)
	if !reflect.DeepEqual(out.Inferences, wantInfer) {
		t.Errorf("Inferences diverge from probeinfer.FromLog: got %+v, want %+v", out.Inferences, wantInfer)
	}

	if len(out.Locals) != len(out.Findings) {
		t.Fatalf("Locals/Findings length mismatch: %d vs %d", len(out.Locals), len(out.Findings))
	}
	if len(out.Localhost)+len(out.LAN) != len(out.Locals) {
		t.Fatalf("split loses records: %d + %d != %d", len(out.Localhost), len(out.LAN), len(out.Locals))
	}
	for i, rec := range out.Locals {
		f := out.Findings[i]
		if rec.URL != f.URL || rec.Host != f.Host || rec.Port != f.Port || rec.Dest != f.Dest.String() {
			t.Errorf("Locals[%d] does not mirror Findings[%d]: %+v vs %+v", i, i, rec, f)
		}
		if rec.Crawl != v.Crawl || rec.OS != v.OS || rec.Domain != v.Domain || rec.Rank != v.Rank {
			t.Errorf("Locals[%d] missing visit metadata: %+v", i, rec)
		}
		if want := f.At - v.CommittedAt; want >= 0 && rec.Delay != want {
			t.Errorf("Locals[%d].Delay = %v, want %v", i, rec.Delay, want)
		}
		if rec.Delay < 0 {
			t.Errorf("Locals[%d].Delay = %v, negative delays must clamp to zero", i, rec.Delay)
		}
	}

	if out.LocalhostVerdict == nil || out.LANVerdict == nil {
		t.Fatal("both destination classes saw traffic; want verdicts for both")
	}
	if want := classify.Site(out.Localhost); *out.LocalhostVerdict != want {
		t.Errorf("LocalhostVerdict = %+v, want %+v", *out.LocalhostVerdict, want)
	}
	if want := classify.LANSite(out.LAN); *out.LANVerdict != want {
		t.Errorf("LANVerdict = %+v, want %+v", *out.LANVerdict, want)
	}
	if out.LocalhostVerdict.Class != groundtruth.ClassFraudDetection {
		t.Errorf("ThreatMetrix sweep classified as %v, want fraud detection", out.LocalhostVerdict.Class)
	}

	if out.Page.Domain != v.Domain || out.Page.Events != log.Len() {
		t.Errorf("Page record wrong: %+v", out.Page)
	}
}

// TestProcessZeroOptions checks the bulk-crawl configuration: detection
// only, no inference, no verdicts.
func TestProcessZeroOptions(t *testing.T) {
	out := Process(visitLog(), testVisit(), Options{})
	if out.Inferences != nil {
		t.Error("Inferences ran without InferProbes")
	}
	if out.LocalhostVerdict != nil || out.LANVerdict != nil {
		t.Error("verdicts assigned without Classify")
	}
	if len(out.Findings) == 0 {
		t.Error("detection must always run")
	}
}

// TestHooks checks that each enabled stage fires exactly once, in
// order, with the item counts the result reports.
func TestHooks(t *testing.T) {
	type firing struct {
		stage Stage
		items int
	}
	var fired []firing
	out := Process(visitLog(), testVisit(), Options{
		InferProbes: true,
		Classify:    true,
		Hooks: Hooks{OnStage: func(s Stage, items int, elapsed time.Duration) {
			if elapsed < 0 {
				t.Errorf("stage %v reported negative elapsed time", s)
			}
			fired = append(fired, firing{s, items})
		}},
	})
	want := []firing{
		{StageDetect, len(out.Findings)},
		{StageInfer, len(out.Inferences)},
		{StageClassify, 2},
	}
	if !reflect.DeepEqual(fired, want) {
		t.Errorf("hook firings = %+v, want %+v", fired, want)
	}

	fired = nil
	Process(visitLog(), testVisit(), Options{
		Hooks: Hooks{OnStage: func(s Stage, items int, _ time.Duration) { fired = append(fired, firing{s, items}) }},
	})
	if len(fired) != 1 || fired[0].stage != StageDetect {
		t.Errorf("zero options must fire detect only, got %+v", fired)
	}
}

func TestStageString(t *testing.T) {
	names := map[Stage]string{StageDetect: "detect", StageInfer: "infer", StageClassify: "classify", Stage(99): "unknown"}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("Stage(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
}

// TestClassifyRouting pins the destination routing and WHOIS
// corroboration of the shared Classify helper.
func TestClassifyRouting(t *testing.T) {
	tm := []store.LocalRequest{{
		Domain: "ebay.com", Scheme: "wss", Host: "localhost", Port: 5939, Dest: "localhost",
		URL: "wss://localhost:5939/", Initiator: "blob:threatmetrix:h.online-metrix.net",
	}}
	for _, port := range portdb.ThreatMetrixPorts()[:8] {
		tm = append(tm, store.LocalRequest{
			Domain: "ebay.com", Scheme: "wss", Host: "localhost", Port: port, Dest: "localhost",
			URL: fmt.Sprintf("wss://localhost:%d/", port), Initiator: "blob:threatmetrix:h.online-metrix.net",
		})
	}
	lan := []store.LocalRequest{{
		Domain: "x.example", Scheme: "http", Host: "192.168.0.10", Port: 80,
		Path: "/wp-content/x.png", Dest: "lan", URL: "http://192.168.0.10/wp-content/x.png",
	}}

	if got, want := Classify("localhost", tm, nil), classify.Site(tm); got != want {
		t.Errorf("Classify(localhost) = %+v, want classify.Site = %+v", got, want)
	}
	if got, want := Classify("lan", lan, nil), classify.LANSite(lan); got != want {
		t.Errorf("Classify(lan) = %+v, want classify.LANSite = %+v", got, want)
	}

	reg := whois.NewRegistry()
	reg.Add(whois.Record{Domain: "h.online-metrix.net", Registrant: whois.ThreatMetrixOrg})
	got := Classify("localhost", tm, reg)
	if want := classify.Corroborate(classify.Site(tm), tm, reg); got != want {
		t.Errorf("Classify with registry = %+v, want Corroborate = %+v", got, want)
	}
	if got.Corroboration == "" {
		t.Error("fraud-detection verdict with a registry match must carry corroboration")
	}
	if got := Classify("localhost", tm, whois.NewRegistry()); got.Corroboration != "" {
		t.Errorf("empty registry must not corroborate, got %q", got.Corroboration)
	}
}

// TestCommit checks StageInto/Commit: the whole visit lands in the
// store and bumps its generation.
func TestCommit(t *testing.T) {
	out := Process(visitLog(), testVisit(), Options{})
	st := store.New()
	gen := st.Generation()
	out.Commit(st)
	if st.Generation() == gen {
		t.Error("Commit must bump the store generation")
	}
	pages := st.Pages(nil)
	if len(pages) != 1 || pages[0] != out.Page {
		t.Errorf("committed pages = %+v, want exactly the visit's page record", pages)
	}
	locals := st.Locals(nil)
	store.SortLocals(locals)
	want := append([]store.LocalRequest(nil), out.Locals...)
	store.SortLocals(want)
	if !reflect.DeepEqual(locals, want) {
		t.Errorf("committed locals diverge: got %d, want %d", len(locals), len(want))
	}
}

// TestIndexConcurrentRebuild hammers IndexFor accessors while writers
// keep invalidating the index; meant for the race detector, but the
// final consistency check also runs without it.
func TestIndexConcurrentRebuild(t *testing.T) {
	st := store.New()
	out := Process(visitLog(), testVisit(), Options{})
	out.Commit(st)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				i++
				v := testVisit()
				v.Domain = fmt.Sprintf("writer%d-%d.example", w, i)
				Process(visitLog(), v, Options{}).Commit(st)
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ix := IndexFor(st)
				ix.Site("ebay.com")
				ix.LocalSites("top100k-2020", "localhost")
				ix.CrawledDomains(groundtruth.CrawlTop2020)
				ix.UnknownOSLabels()
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	view := IndexFor(st).Site("ebay.com")
	if len(view.Locals) != len(out.Locals) {
		t.Errorf("post-hammer Site(ebay.com) has %d locals, want %d", len(view.Locals), len(out.Locals))
	}
}

// TestProcessInternsRecords runs Process on two visits whose strings are
// equal but separately allocated. The local requests of both results
// must hold one shared copy of each NetLog-derived string, share their
// visit strings with their own page record, and still equal the records
// built from the uninterned inputs.
func TestProcessInternsRecords(t *testing.T) {
	decoded := func() *netlog.Log {
		var buf bytes.Buffer
		if err := visitLog().WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		log, err := netlog.ReadJSONL(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return log
	}
	visit := func() Visit {
		v := testVisit()
		v.Category = "Shopping"
		for _, s := range []*string{&v.Crawl, &v.OS, &v.Domain, &v.Category, &v.URL, &v.FinalURL} {
			*s = strings.Clone(*s)
		}
		return v
	}
	// unique keeps a value canonical only while it is in use somewhere it
	// can see (a Handle); a collection between the two calls would start
	// a fresh copy.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	logA, logB := decoded(), decoded()
	if a, b := logA.Events[0].ParamString("url"), logB.Events[0].ParamString("url"); unsafe.StringData(a) == unsafe.StringData(b) {
		t.Fatal("decoded captures already share their strings")
	}
	va, vb := visit(), visit()
	a, b := Process(logA, va, Options{}), Process(logB, vb, Options{})

	same := func(what, x, y string) {
		t.Helper()
		if x == "" {
			t.Fatalf("%s is empty; the test needs a value to share", what)
		}
		if x != y || unsafe.StringData(x) != unsafe.StringData(y) {
			t.Errorf("%s not shared: %q at %p, %q at %p", what, x, unsafe.StringData(x), y, unsafe.StringData(y))
		}
	}
	wantPage := store.PageRecord{
		Crawl: va.Crawl, OS: va.OS, Domain: va.Domain, Rank: va.Rank, Category: va.Category,
		URL: va.URL, FinalURL: va.FinalURL, CommittedAt: va.CommittedAt, Events: logA.Len(),
	}
	if !reflect.DeepEqual(a.Page, wantPage) {
		t.Errorf("page record:\n got %+v\nwant %+v", a.Page, wantPage)
	}

	if len(a.Locals) == 0 || len(a.Locals) != len(b.Locals) {
		t.Fatalf("locals: %d vs %d", len(a.Locals), len(b.Locals))
	}
	netErrors := 0
	for i := range a.Locals {
		la, lb := a.Locals[i], b.Locals[i]
		same("local URL", la.URL, lb.URL)
		same("local Host", la.Host, lb.Host)
		same("local Path", la.Path, lb.Path)
		same("local Initiator", la.Initiator, lb.Initiator)
		if la.NetError != "" {
			netErrors++
			same("local NetError", la.NetError, lb.NetError)
		}
		same("local Crawl and page Crawl", la.Crawl, a.Page.Crawl)
		same("local OS and page OS", la.OS, a.Page.OS)
		same("local Domain and page Domain", la.Domain, a.Page.Domain)
		same("local Category and page Category", la.Category, a.Page.Category)
		f := a.Findings[i]
		want := store.LocalRequest{
			Crawl: va.Crawl, OS: va.OS, Domain: va.Domain, Rank: va.Rank, Category: va.Category,
			URL: f.URL, Scheme: string(f.Scheme), Host: f.Host, Port: f.Port, Path: f.Path,
			Dest: f.Dest.String(), Delay: max(f.At-va.CommittedAt, 0), Initiator: f.Initiator,
			NetError: f.NetError, StatusCode: f.StatusCode, ViaRedirect: f.ViaRedirect, SOPExempt: f.SOPExempt,
		}
		if !reflect.DeepEqual(la, want) {
			t.Errorf("local %d changed by interning:\n got %+v\nwant %+v", i, la, want)
		}
	}
	if netErrors == 0 {
		t.Fatal("no local request carries a net error; the test needs one to share")
	}
}
