package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"github.com/knockandtalk/knockandtalk/internal/localnet"
	"github.com/knockandtalk/knockandtalk/internal/netlog"
	"github.com/knockandtalk/knockandtalk/internal/pipeline"
	"github.com/knockandtalk/knockandtalk/internal/report"
	"github.com/knockandtalk/knockandtalk/internal/serve/queryengine"
	"github.com/knockandtalk/knockandtalk/internal/store"
	"github.com/knockandtalk/knockandtalk/internal/whois"
)

// serveStore builds a small corpus: a ThreatMetrix-style localhost
// scanner on Windows/2020 and a LAN prober on Linux/2021.
func serveStore(t testing.TB) *store.Store {
	t.Helper()
	st := store.New()
	var b store.Batch
	b.AddPage(store.PageRecord{
		Crawl: "top100k-2020", OS: "Windows", Domain: "scanner.example", Rank: 7,
		URL: "https://scanner.example/", CommittedAt: time.Second, Events: 40,
	})
	for _, port := range []uint16{3389, 5279, 5900, 5901, 5902, 5903, 5931, 5939, 5944, 5950} {
		b.AddLocal(store.LocalRequest{
			Crawl: "top100k-2020", OS: "Windows", Domain: "scanner.example", Rank: 7,
			URL:    fmt.Sprintf("wss://localhost:%d/", port),
			Scheme: "wss", Host: "localhost", Port: port, Path: "/",
			Dest: "localhost", Delay: 1500 * time.Millisecond,
			Initiator: "blob:threatmetrix", NetError: "ERR_CONNECTION_REFUSED",
			SOPExempt: true,
		})
	}
	b.AddPage(store.PageRecord{
		Crawl: "top100k-2021", OS: "Linux", Domain: "lanprobe.example", Rank: 19,
		URL: "https://lanprobe.example/", CommittedAt: 800 * time.Millisecond, Events: 12,
	})
	b.AddLocal(store.LocalRequest{
		Crawl: "top100k-2021", OS: "Linux", Domain: "lanprobe.example", Rank: 19,
		URL: "http://192.168.1.1/wp-content/t.gif", Scheme: "http",
		Host: "192.168.1.1", Port: 80, Path: "/wp-content/t.gif",
		Dest: "lan", Delay: 2 * time.Second, NetError: "ERR_CONNECTION_TIMED_OUT",
	})
	b.AddPage(store.PageRecord{
		Crawl: "top100k-2021", OS: "Linux", Domain: "dead.example", Rank: 23,
		URL: "https://dead.example/", Err: "ERR_NAME_NOT_RESOLVED",
	})
	st.AddBatch(&b)
	return st
}

func newTestServer(t testing.TB, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(queryengine.New(serveStore(t)), opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func getJSON(t testing.TB, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decoding: %v", url, err)
	}
	return resp
}

func TestLocalsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var resp struct {
		Total int                  `json:"total"`
		Rows  []store.LocalRequest `json:"rows"`
	}
	getJSON(t, ts.URL+"/v1/locals?domain=scanner.example&dest=localhost", &resp)
	if resp.Total != 10 || len(resp.Rows) != 10 {
		t.Fatalf("total=%d rows=%d, want 10/10", resp.Total, len(resp.Rows))
	}
	getJSON(t, ts.URL+"/v1/locals?domain=scanner.example&limit=3", &resp)
	if resp.Total != 10 || len(resp.Rows) != 3 {
		t.Fatalf("limited: total=%d rows=%d, want 10/3", resp.Total, len(resp.Rows))
	}
	getJSON(t, ts.URL+"/v1/locals?dest=lan", &resp)
	if resp.Total != 1 || resp.Rows[0].Host != "192.168.1.1" {
		t.Fatalf("lan filter: %+v", resp)
	}
	getJSON(t, ts.URL+"/v1/locals?domain=nosuch.example", &resp)
	if resp.Total != 0 || resp.Rows == nil || len(resp.Rows) != 0 {
		t.Fatalf("empty result must be [] with total 0: %+v", resp)
	}
	for _, limit := range []string{"bogus", "10abc", "7.9", "-1"} {
		r, err := http.Get(ts.URL + "/v1/locals?limit=" + limit)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest {
			t.Fatalf("limit=%s: status %d, want 400", limit, r.StatusCode)
		}
	}
}

func TestPagesEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var resp struct {
		Total int                `json:"total"`
		Rows  []store.PageRecord `json:"rows"`
	}
	getJSON(t, ts.URL+"/v1/pages", &resp)
	if resp.Total != 3 {
		t.Fatalf("total=%d, want 3", resp.Total)
	}
	getJSON(t, ts.URL+"/v1/pages?err=ERR_NAME_NOT_RESOLVED", &resp)
	if resp.Total != 1 || resp.Rows[0].Domain != "dead.example" {
		t.Fatalf("err filter: %+v", resp)
	}
	getJSON(t, ts.URL+"/v1/pages?os=Windows&crawl=top100k-2020", &resp)
	if resp.Total != 1 || resp.Rows[0].Domain != "scanner.example" {
		t.Fatalf("os+crawl filter: %+v", resp)
	}
}

func TestSiteEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var resp SiteResponse
	getJSON(t, ts.URL+"/v1/site/scanner.example", &resp)
	if len(resp.Pages) != 1 || len(resp.Locals) != 10 {
		t.Fatalf("pages=%d locals=%d, want 1/10", len(resp.Pages), len(resp.Locals))
	}
	if resp.LocalhostVerdict == nil || resp.LocalhostVerdict.Class != "Fraud Detection" ||
		resp.LocalhostVerdict.Signature != "threatmetrix" {
		t.Fatalf("localhost verdict = %+v, want Fraud Detection/threatmetrix", resp.LocalhostVerdict)
	}
	if resp.LANVerdict != nil {
		t.Fatalf("scanner.example has no LAN traffic, got %+v", resp.LANVerdict)
	}
	var lan SiteResponse
	getJSON(t, ts.URL+"/v1/site/lanprobe.example", &lan)
	if lan.LANVerdict == nil {
		t.Fatal("lanprobe.example should carry a LAN verdict")
	}
	var none SiteResponse
	getJSON(t, ts.URL+"/v1/site/unknown.example", &none)
	if len(none.Pages) != 0 || len(none.Locals) != 0 || none.LocalhostVerdict != nil {
		t.Fatalf("unknown site should be empty: %+v", none)
	}
}

func TestSummaryEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var resp struct {
		Pages  int `json:"pages"`
		Locals int `json:"locals"`
		Crawls []struct {
			Crawl   string         `json:"crawl"`
			Classes map[string]int `json:"classes,omitempty"`
		} `json:"crawls"`
	}
	getJSON(t, ts.URL+"/v1/summary", &resp)
	if resp.Pages != 3 || resp.Locals != 11 {
		t.Fatalf("pages=%d locals=%d, want 3/11", resp.Pages, resp.Locals)
	}
	if len(resp.Crawls) != 2 || resp.Crawls[0].Crawl != "top100k-2020" {
		t.Fatalf("crawls: %+v", resp.Crawls)
	}
	if resp.Crawls[0].Classes["Fraud Detection"] != 1 {
		t.Fatalf("2020 classes: %+v, want one Fraud Detection site", resp.Crawls[0].Classes)
	}
}

// TestSummaryReportsUnknownOSLabels pins where records with an OS
// label outside the study's platforms surface: /v1/summary tallies
// them, and a clean corpus's summary carries no such field.
func TestSummaryReportsUnknownOSLabels(t *testing.T) {
	_, clean := newTestServer(t, Options{})
	resp, err := http.Get(clean.URL + "/v1/summary")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("unknown_os_labels")) {
		t.Fatalf("clean corpus summary renders unknown_os_labels: %s", raw)
	}

	st := serveStore(t)
	st.AddPage(store.PageRecord{
		Crawl: "top100k-2020", OS: "BeOS", Domain: "beos.example", URL: "https://beos.example/",
	})
	ts := httptest.NewServer(New(queryengine.New(st), Options{}).Handler())
	t.Cleanup(ts.Close)
	var sum report.JSONSummary
	getJSON(t, ts.URL+"/v1/summary", &sum)
	if len(sum.UnknownOSLabels) != 1 || sum.UnknownOSLabels["BeOS"] != 1 {
		t.Fatalf("unknown_os_labels = %v, want BeOS:1", sum.UnknownOSLabels)
	}
}

func TestResponseCacheHitMiss(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	var resp any
	getJSON(t, ts.URL+"/v1/locals?domain=scanner.example", &resp)  // miss
	getJSON(t, ts.URL+"/v1/locals?domain=scanner.example", &resp)  // hit
	getJSON(t, ts.URL+"/v1/locals?domain=lanprobe.example", &resp) // miss
	hits, misses := srv.cache.Stats()
	if hits != 1 || misses != 2 {
		t.Fatalf("cache stats = %d hits / %d misses, want 1/2", hits, misses)
	}
	doc := scrapeMetrics(t, ts.URL)
	if h, m := promCounter(t, doc, MetricCacheHits), promCounter(t, doc, MetricCacheMisses); h != 1 || m != 2 {
		t.Fatalf("/metrics cache = %d hits / %d misses, want 1/2", h, m)
	}
	if n := promCounter(t, doc, MetricRequests, "path", "/v1/locals"); n != 3 {
		t.Fatalf("/metrics requests = %d, want 3 locals hits", n)
	}
}

func TestCacheInvalidatedByIngest(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	var before, after struct {
		Total int `json:"total"`
	}
	url := ts.URL + "/v1/locals?domain=smoke.example"
	getJSON(t, url, &before)
	if before.Total != 0 {
		t.Fatalf("pre-ingest total = %d, want 0", before.Total)
	}
	postTestdata(t, ts, "domain=smoke.example&os=Windows")
	getJSON(t, url, &after)
	if after.Total != 14 {
		t.Fatalf("post-ingest total = %d, want 14 (cached empty answer must not survive ingest)", after.Total)
	}
	if srv.eng.Generation() == 0 {
		t.Fatal("ingest must bump the engine generation")
	}
}

// TestCacheSurgicalInvalidation pins the serving half of the delta
// epoch: ingesting one domain must invalidate only cached responses
// whose scope intersects it. Entries for other domains survive the
// generation bump as revalidated hits; unfiltered views (the summary)
// are recomputed.
func TestCacheSurgicalInvalidation(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	var scanner struct {
		Total int `json:"total"`
	}
	var summary struct {
		Pages int `json:"pages"`
	}
	scannerURL := ts.URL + "/v1/locals?domain=scanner.example&crawl=top100k-2020"
	getJSON(t, scannerURL, &scanner) // miss, cached
	var site SiteResponse
	getJSON(t, ts.URL+"/v1/site/scanner.example", &site) // miss, cached
	getJSON(t, ts.URL+"/v1/summary", &summary)           // miss, cached
	if summary.Pages != 3 {
		t.Fatalf("pre-ingest summary pages = %d, want 3", summary.Pages)
	}
	genBefore := srv.eng.Generation()

	postTestdata(t, ts, "domain=fresh.example&os=Windows&crawl=live")
	if srv.eng.Generation() == genBefore {
		t.Fatal("ingest must advance the generation")
	}

	// The scanner.example listing and site report were untouched by the
	// commit: both must be served from cache, fast-forwarded across the
	// new generation rather than recomputed.
	getJSON(t, scannerURL, &scanner)
	getJSON(t, ts.URL+"/v1/site/scanner.example", &site)
	if scanner.Total != 10 || len(site.Locals) != 10 {
		t.Fatalf("surviving entries answered wrong: locals=%d site locals=%d", scanner.Total, len(site.Locals))
	}
	if n := srv.cache.Revalidations(); n != 2 {
		t.Fatalf("revalidations = %d, want 2 (scanner listing + site report)", n)
	}
	hits, _ := srv.cache.Stats()
	if hits != 2 {
		t.Fatalf("cache hits = %d, want 2 (both unrelated entries survive ingest)", hits)
	}

	// The summary depends on the whole corpus: it must be recomputed and
	// observe the new visit.
	getJSON(t, ts.URL+"/v1/summary", &summary)
	if summary.Pages != 4 {
		t.Fatalf("post-ingest summary pages = %d, want 4 (broad entry must not survive)", summary.Pages)
	}

	// The ingested domain itself queries fresh.
	var fresh struct {
		Total int `json:"total"`
	}
	getJSON(t, ts.URL+"/v1/locals?domain=fresh.example", &fresh)
	if fresh.Total != 14 {
		t.Fatalf("ingested domain total = %d, want 14", fresh.Total)
	}

	// /metrics counts the revalidations where the lookups happened.
	if n := promCounter(t, scrapeMetrics(t, ts.URL), MetricCacheRevalidated); n != 2 {
		t.Fatalf("/metrics revalidated = %d, want 2", n)
	}
	srv.Close()
}

func postTestdata(t testing.TB, ts *httptest.Server, params string) IngestResponse {
	t.Helper()
	body, err := os.ReadFile("testdata/threatmetrix.netlog.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/ingest?"+params, "application/jsonl", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("ingest: status %d: %s", resp.StatusCode, b)
	}
	var ir IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	return ir
}

// TestIngestInternsRecords uploads one capture twice under the same
// query. The two committed page records must share each visit string,
// and the local requests each NetLog-derived string: a record that held
// a substring of its request line would keep that line alive.
func TestIngestInternsRecords(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	// unique keeps a value canonical only while it is in use somewhere it
	// can see; a collection between the uploads would start a fresh copy.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const q = "domain=intern.example&os=Windows&crawl=live-test&category=Shopping&url=https://intern.example/"
	postTestdata(t, ts, q)
	postTestdata(t, ts, q)

	st := srv.eng.Store()
	pages := st.Pages(func(p *store.PageRecord) bool { return p.Domain == "intern.example" })
	locals := st.Locals(func(l *store.LocalRequest) bool { return l.Domain == "intern.example" })
	if len(pages) != 2 || len(locals) == 0 || len(locals)%2 != 0 {
		t.Fatalf("committed %d pages and %d locals, want 2 and an even number", len(pages), len(locals))
	}
	same := func(what, x, y string) {
		t.Helper()
		if x == "" || x != y || unsafe.StringData(x) != unsafe.StringData(y) {
			t.Errorf("%s not shared: %q at %p, %q at %p", what, x, unsafe.StringData(x), y, unsafe.StringData(y))
		}
	}
	a, b := pages[0], pages[1]
	same("page Crawl", a.Crawl, b.Crawl)
	same("page OS", a.OS, b.OS)
	same("page Domain", a.Domain, b.Domain)
	same("page Category", a.Category, b.Category)
	same("page URL", a.URL, b.URL)
	half := len(locals) / 2
	for i := range locals[:half] {
		la, lb := locals[i], locals[half+i]
		same("local URL", la.URL, lb.URL)
		same("local Host", la.Host, lb.Host)
		same("local Initiator", la.Initiator, lb.Initiator)
		same("local Domain", la.Domain, a.Domain)
	}
}

// TestIngestMatchesOfflinePipeline is the acceptance check: uploading a
// capture with the ThreatMetrix probe signature must yield exactly the
// records and verdict the offline crawl pipeline produces for the same
// events.
func TestIngestMatchesOfflinePipeline(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	ir := postTestdata(t, ts, "domain=smoke.example&os=Windows&crawl=live-test&rank=3&committed_at=1s")

	f, err := os.Open("testdata/threatmetrix.netlog.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	log, err := netlog.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	offline := localnet.FromLog(log)

	if ir.Events != log.Len() {
		t.Fatalf("events = %d, want %d", ir.Events, log.Len())
	}
	if len(ir.Detections) != len(offline) {
		t.Fatalf("detections = %d, want %d (offline pipeline)", len(ir.Detections), len(offline))
	}
	for i, want := range offline {
		got := ir.Detections[i]
		if got.URL != want.URL || got.Host != want.Host || got.Port != want.Port ||
			got.Scheme != string(want.Scheme) || got.Dest != want.Dest.String() ||
			got.NetError != want.NetError || got.Initiator != want.Initiator ||
			got.SOPExempt != want.SOPExempt {
			t.Fatalf("detection %d drifted from offline pipeline:\n got %+v\nwant %+v", i, got, want)
		}
		if wantDelay := want.At - time.Second; got.Delay != wantDelay {
			t.Fatalf("detection %d delay = %v, want %v (At - committed_at)", i, got.Delay, wantDelay)
		}
		if got.Crawl != "live-test" || got.OS != "Windows" || got.Domain != "smoke.example" || got.Rank != 3 {
			t.Fatalf("detection %d visit fields: %+v", i, got)
		}
	}
	if ir.LocalhostVerdict == nil || ir.LocalhostVerdict.Class != "Fraud Detection" ||
		ir.LocalhostVerdict.Signature != "threatmetrix" {
		t.Fatalf("verdict = %+v, want Fraud Detection/threatmetrix", ir.LocalhostVerdict)
	}

	// The committed records serve identical verdicts through the query plane.
	var site SiteResponse
	getJSON(t, ts.URL+"/v1/site/smoke.example", &site)
	if site.LocalhostVerdict == nil || *site.LocalhostVerdict != *ir.LocalhostVerdict {
		t.Fatalf("query-plane verdict %+v != ingest verdict %+v", site.LocalhostVerdict, ir.LocalhostVerdict)
	}
	if len(site.Pages) != 1 || site.Pages[0].CommittedAt != time.Second || site.Pages[0].Events != log.Len() {
		t.Fatalf("committed page record: %+v", site.Pages)
	}
}

// TestIngestCorroborationMatchesOffline checks WHOIS parity between the
// two classification paths (§4.3.1): uploading the committed
// ThreatMetrix capture to a server configured with a registry must
// yield the same corroborated verdict — including the registrant
// evidence string — as running the offline pipeline over the same
// events with the same registry.
func TestIngestCorroborationMatchesOffline(t *testing.T) {
	reg := whois.NewRegistry()
	reg.Add(whois.Record{Domain: "content.tmx.example", Registrant: whois.ThreatMetrixOrg})
	_, ts := newTestServer(t, Options{Whois: reg})
	ir := postTestdata(t, ts, "domain=smoke.example&os=Windows&crawl=live&committed_at=1s")

	f, err := os.Open("testdata/threatmetrix.netlog.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	log, err := netlog.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	offline := pipeline.Process(log, pipeline.Visit{
		Crawl: "live", OS: "Windows", Domain: "smoke.example", CommittedAt: time.Second,
	}, pipeline.Options{Classify: true, Whois: reg})

	if offline.LocalhostVerdict == nil {
		t.Fatal("offline pipeline produced no localhost verdict")
	}
	if offline.LocalhostVerdict.Corroboration == "" {
		t.Fatal("offline verdict must carry WHOIS corroboration for the registered script host")
	}
	if ir.LocalhostVerdict == nil {
		t.Fatal("ingest produced no localhost verdict")
	}
	if want := report.VerdictJSON(*offline.LocalhostVerdict); *ir.LocalhostVerdict != want {
		t.Fatalf("ingest verdict %+v != offline pipeline verdict %+v", *ir.LocalhostVerdict, want)
	}
	if want := "whois:content.tmx.example=" + whois.ThreatMetrixOrg; ir.LocalhostVerdict.Corroboration != want {
		t.Fatalf("corroboration = %q, want %q", ir.LocalhostVerdict.Corroboration, want)
	}

	// Without a registry the same upload classifies identically but
	// cannot corroborate.
	_, bare := newTestServer(t, Options{})
	ir2 := postTestdata(t, bare, "domain=smoke.example&os=Windows&crawl=live&committed_at=1s")
	if ir2.LocalhostVerdict == nil || ir2.LocalhostVerdict.Corroboration != "" {
		t.Fatalf("registry-free ingest must not corroborate: %+v", ir2.LocalhostVerdict)
	}
}

func TestIngestMalformedAndBadParams(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	seededGen := srv.eng.Generation()

	post := func(params, body string) *http.Response {
		resp, err := http.Post(ts.URL+"/v1/ingest?"+params, "application/jsonl", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	good := `{"time":"1000","type":"URL_REQUEST_START_JOB","source":{"type":"URL_REQUEST","id":1},"phase":1,"params":{"url":"http://localhost:8000/x"}}`

	cases := []struct {
		name, params, body, wantErr string
	}{
		{"missing domain", "", good, "domain query parameter is required"},
		{"bad rank", "domain=x.example&rank=-2", good, "bad rank"},
		{"bad committed_at", "domain=x.example&committed_at=soon", good, "bad committed_at"},
		{"malformed line", "domain=x.example", good + "\n{broken", "line 2"},
		{"unknown event type", "domain=x.example", `{"time":"1","type":"NO_SUCH","source":{"type":"URL_REQUEST","id":1},"phase":0}`, "unknown event type"},
	}
	for _, tc := range cases {
		resp := post(tc.params, tc.body)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
		if !strings.Contains(string(body), tc.wantErr) {
			t.Errorf("%s: body %q, want it to mention %q", tc.name, body, tc.wantErr)
		}
	}
	// All-or-nothing: none of the rejected uploads committed anything.
	if n := srv.eng.Store().NumPages(); n != 3 {
		t.Fatalf("rejected uploads committed pages: %d, want the 3 seeded", n)
	}
	if srv.eng.Generation() != seededGen {
		t.Fatal("rejected uploads must not bump the generation")
	}
}

func TestIngestBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxIngestBytes: 256})
	long := `{"time":"1000","type":"URL_REQUEST_START_JOB","source":{"type":"URL_REQUEST","id":1},"phase":1,"params":{"url":"http://localhost:8000/` + strings.Repeat("x", 400) + `"}}`
	resp, err := http.Post(ts.URL+"/v1/ingest?domain=x.example", "application/jsonl", strings.NewReader(long))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

func TestQueryPlaneSaturationReturns429(t *testing.T) {
	srv, ts := newTestServer(t, Options{QueryConcurrency: 1})
	srv.queries <- struct{}{} // occupy the only query slot
	defer func() { <-srv.queries }()
	resp, err := http.Get(ts.URL + "/v1/summary")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
	// Ingest rides its own semaphore: still available.
	ir := postTestdata(t, ts, "domain=smoke.example")
	if len(ir.Detections) == 0 {
		t.Fatal("ingest plane must not share the query limiter")
	}
	reg := srv.Registry()
	if q, i := reg.CounterValue(MetricRejected, "plane", "query"), reg.CounterValue(MetricRejected, "plane", "ingest"); q != 1 || i != 0 {
		t.Fatalf("rejected = query:%d ingest:%d, want query:1 ingest:0", q, i)
	}
}

func TestIngestPlaneSaturationReturns429(t *testing.T) {
	srv, ts := newTestServer(t, Options{IngestConcurrency: 1})
	srv.ingests <- struct{}{}
	defer func() { <-srv.ingests }()
	resp, err := http.Post(ts.URL+"/v1/ingest?domain=x.example", "application/jsonl", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	// The query plane is unaffected.
	var v any
	getJSON(t, ts.URL+"/v1/summary", &v)
}

// TestGracefulDrain verifies Shutdown waits for an in-flight ingest: the
// upload's body arrives slowly through a pipe while the server drains,
// and the upload must still complete and commit.
func TestGracefulDrain(t *testing.T) {
	srv := New(queryengine.New(serveStore(t)), Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)

	data, err := os.ReadFile("testdata/threatmetrix.netlog.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	pr, pw := io.Pipe()
	started := make(chan struct{})
	go func() {
		for i, line := range lines {
			if i == 1 {
				close(started) // body is mid-flight
			}
			pw.Write(line)
			time.Sleep(2 * time.Millisecond)
		}
		pw.Close()
	}()

	type result struct {
		ir  IngestResponse
		err error
	}
	resc := make(chan result, 1)
	go func() {
		req, _ := http.NewRequest("POST", "http://"+ln.Addr().String()+"/v1/ingest?domain=smoke.example&os=Windows", pr)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			resc <- result{err: err}
			return
		}
		defer resp.Body.Close()
		var ir IngestResponse
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			resc <- result{err: fmt.Errorf("status %d: %s", resp.StatusCode, b)}
			return
		}
		err = json.NewDecoder(resp.Body).Decode(&ir)
		resc <- result{ir: ir, err: err}
	}()

	<-started
	shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shCtx); err != nil {
		t.Fatalf("Shutdown: %v (drain must outlast the in-flight ingest)", err)
	}
	res := <-resc
	if res.err != nil {
		t.Fatalf("in-flight ingest failed during drain: %v", res.err)
	}
	if len(res.ir.Detections) != 14 {
		t.Fatalf("drained ingest detections = %d, want 14", len(res.ir.Detections))
	}
	if rows, _ := srv.eng.Locals(queryengine.LocalsFilter{Domain: "smoke.example"}); len(rows) != 14 {
		t.Fatalf("drained ingest committed %d locals, want 14", len(rows))
	}
}

// TestConcurrentQueryIngest exercises both planes at once; run with
// -race this is the subsystem's data-race check.
func TestConcurrentQueryIngest(t *testing.T) {
	_, ts := newTestServer(t, Options{QueryConcurrency: 32, IngestConcurrency: 4})
	body, err := os.ReadFile("testdata/threatmetrix.netlog.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	paths := []string{"/v1/locals?dest=localhost", "/v1/pages", "/v1/site/scanner.example", "/v1/summary", "/metrics"}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				resp, err := http.Get(ts.URL + paths[(n+j)%len(paths)])
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(i)
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				resp, err := http.Post(
					fmt.Sprintf("%s/v1/ingest?domain=live%d-%d.example&os=Windows", ts.URL, n, j),
					"application/jsonl", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
					t.Errorf("ingest status %d", resp.StatusCode)
				}
				resp.Body.Close()
			}
		}(i)
	}
	wg.Wait()
}

// BenchmarkServeQuery measures query-plane throughput; the hit variant
// repeats one query (cache-served), the miss variant cycles distinct
// queries through a cache too small to hold them.
func BenchmarkServeQuery(b *testing.B) {
	b.Run("cache-hit", func(b *testing.B) {
		_, ts := newTestServer(b, Options{})
		url := ts.URL + "/v1/locals?domain=scanner.example"
		warm(b, url)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			warm(b, url)
		}
	})
	b.Run("cache-miss", func(b *testing.B) {
		_, ts := newTestServer(b, Options{CacheEntries: -1})
		url := ts.URL + "/v1/locals?domain=scanner.example"
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			warm(b, url)
		}
	})
	b.Run("site", func(b *testing.B) {
		_, ts := newTestServer(b, Options{CacheEntries: -1})
		url := ts.URL + "/v1/site/scanner.example"
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			warm(b, url)
		}
	})
}

func warm(b *testing.B, url string) {
	resp, err := http.Get(url)
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d", resp.StatusCode)
	}
}

// BenchmarkServeIngest measures end-to-end upload throughput: parse,
// detect, classify, commit. events/sec is the headline number.
func BenchmarkServeIngest(b *testing.B) {
	_, ts := newTestServer(b, Options{})
	body, err := os.ReadFile("testdata/threatmetrix.netlog.jsonl")
	if err != nil {
		b.Fatal(err)
	}
	events := bytes.Count(body, []byte("\n"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(
			fmt.Sprintf("%s/v1/ingest?domain=bench%d.example&os=Windows", ts.URL, i),
			"application/jsonl", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// TestCacheCoherenceUnderIngestHammer races cache-hitting queries
// against concurrent ingest commits, then checks the quiesce-point
// invariant of the whole serving stack: every response the hammered,
// cache-fronted server gives afterwards must be byte-identical to one
// computed by a fresh engine over the same store with caching disabled
// and the shared site index rebuilt from scratch.
func TestCacheCoherenceUnderIngestHammer(t *testing.T) {
	st := serveStore(t)
	srv := New(queryengine.New(st), Options{QueryConcurrency: 32, IngestConcurrency: 4})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	body, err := os.ReadFile("testdata/threatmetrix.netlog.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	paths := []string{
		"/v1/summary",
		"/v1/locals?domain=scanner.example&crawl=top100k-2020",
		"/v1/pages?crawl=top100k-2021",
		"/v1/site/scanner.example",
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				resp, err := http.Get(ts.URL + paths[(w+j)%len(paths)])
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				resp, err := http.Post(
					fmt.Sprintf("%s/v1/ingest?domain=hammer%d-%d.example&os=Windows&crawl=live", ts.URL, w, j),
					"application/jsonl", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("ingest status %d", resp.StatusCode)
				}
				resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()
	hits, _ := srv.cache.Stats()
	if hits == 0 {
		t.Fatal("hammer never hit the cache; the race it exists to test did not happen")
	}

	// Quiesce point: release the shared index so the reference engine
	// materializes a from-scratch rebuild, and front it with no cache.
	pipeline.ReleaseIndex(st)
	ref := New(queryengine.New(st), Options{CacheEntries: -1})
	rts := httptest.NewServer(ref.Handler())
	t.Cleanup(rts.Close)
	t.Cleanup(ref.Close)
	t.Cleanup(srv.Close)

	get := func(base, path string) []byte {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return raw
	}
	for _, p := range paths {
		cached := get(ts.URL, p)   // may be a cache hit or revalidation
		rebuilt := get(rts.URL, p) // always recomputed from a fresh index
		if !bytes.Equal(cached, rebuilt) {
			t.Errorf("%s diverged from from-scratch rebuild after hammer:\ncached  %s\nrebuilt %s",
				p, cached, rebuilt)
		}
	}
}
