package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/knockandtalk/knockandtalk/internal/pipeline"
	"github.com/knockandtalk/knockandtalk/internal/serve/queryengine"
	"github.com/knockandtalk/knockandtalk/internal/telemetry"
)

// TestIngestTraceAgreesWithMetrics is the acceptance check of the
// telemetry subsystem: aggregating per-stage busy time from the trace
// file alone must reproduce exactly what /metrics reports for the same
// ingests, as pipeline_stage_busy_ns, to the nanosecond.
func TestIngestTraceAgreesWithMetrics(t *testing.T) {
	var traceBuf bytes.Buffer
	tr := telemetry.NewTracer(&traceBuf, telemetry.TracerOptions{})
	srv := New(queryengine.New(serveStore(t)), Options{Tracer: tr})
	ts := newHTTPTestServer(t, srv)

	body, err := os.ReadFile("testdata/threatmetrix.netlog.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	for i, params := range []string{
		"domain=first.example&os=Windows&crawl=live",
		"domain=second.example&os=Linux&crawl=live&retain=1",
		"domain=third.example&os=Windows&crawl=live&committed_at=1s",
	} {
		resp, err := http.Post(ts+"/v1/ingest?"+params, "application/jsonl", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("upload %d: status %d", i, resp.StatusCode)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("tracer dropped %d records", tr.Dropped())
	}

	visits, err := telemetry.ReadTraces(&traceBuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(visits) != 3 {
		t.Fatalf("trace records = %d, want 3", len(visits))
	}
	fromTrace := telemetry.Summarize(visits).Stages

	doc := scrapeMetrics(t, ts)
	served := map[string]uint64{}
	for _, s := range doc.Families[pipeline.MetricStageRuns].Series {
		// Pre-resolved handles mint every stage's counters at
		// registration; only stages that actually ran are compared.
		if s.Raw != "0" {
			stage := s.Labels["stage"]
			served[stage] = promCounter(t, doc, pipeline.MetricStageBusyNS, "stage", stage)
		}
	}
	if len(served) == 0 {
		t.Fatal("/metrics reports no pipeline stages after ingest")
	}
	if len(fromTrace) != len(served) {
		t.Fatalf("stage sets differ: trace %v, /metrics %v", fromTrace, served)
	}
	for stage, st := range fromTrace {
		busy, ok := served[stage]
		if !ok {
			t.Fatalf("stage %q in trace but not in /metrics (%v)", stage, served)
		}
		if busy != uint64(st.BusyNS) {
			t.Errorf("stage %q busy ns: trace %d, /metrics %d", stage, st.BusyNS, busy)
		}
	}
	// The retained capture's netlog stage made it into both views.
	if _, ok := fromTrace["netlog"]; !ok {
		t.Fatal("retained upload must trace a netlog span")
	}
	// Item counts agree as well: the detect stage carried 14 findings
	// per upload.
	if n := promCounter(t, doc, pipeline.MetricStageItems, "stage", "detect"); n != 42 {
		t.Fatalf("detect items = %d, want 42", n)
	}
}

// TestQueryLatencyHistograms pins the query plane's server-observed
// latency surface: per-endpoint serve_query_ns series labeled by the
// route pattern (never the raw /v1/site/<domain> path) and the cache
// outcome, carried through the Prometheus exposition.
func TestQueryLatencyHistograms(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := New(queryengine.New(serveStore(t)), Options{Registry: reg})
	ts := newHTTPTestServer(t, srv)

	var v any
	getJSON(t, ts+"/v1/summary", &v) // miss
	getJSON(t, ts+"/v1/summary", &v) // hit
	getJSON(t, ts+"/v1/site/scanner.example", &v)

	query := queryHists(t, ts)
	if sum := query["/v1/summary"]; sum["miss"].Count != 1 || sum["hit"].Count != 1 || len(sum) != 2 {
		t.Fatalf("summary query series = %+v", sum)
	}
	if hit := query["/v1/summary"]["hit"]; hit.Quantile(0.5) == 0 || hit.Quantile(0.999) < hit.Quantile(0.5) {
		t.Fatalf("summary hit quantiles implausible: %+v", hit)
	}
	site, ok := query["/v1/site/{domain}"]
	if !ok {
		t.Fatalf("site latency must be keyed by route pattern, got %v", query)
	}
	if site["miss"].Count != 1 || len(site) != 1 {
		t.Fatalf("site query series = %+v", site)
	}
	for endpoint := range query {
		if strings.Contains(endpoint, "scanner.example") {
			t.Fatalf("raw path leaked into endpoint label: %v", query)
		}
	}

	// Ingesting a disjoint domain bumps the generation without touching
	// the site entry's scope: the next site lookup revalidates.
	body, err := os.ReadFile("testdata/threatmetrix.netlog.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts+"/v1/ingest?domain=other.example&os=Windows&crawl=live",
		"application/jsonl", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	getJSON(t, ts+"/v1/site/scanner.example", &v)
	if got := queryHists(t, ts)["/v1/site/{domain}"]["revalidated"].Count; got != 1 {
		t.Fatalf("site revalidated count = %d, want 1", got)
	}
}

// queryHists scrapes /metrics and rebuilds serve_query_ns, keyed by
// endpoint and then cache outcome.
func queryHists(t testing.TB, base string) map[string]map[string]telemetry.HistogramSnapshot {
	t.Helper()
	series, err := scrapeMetrics(t, base).Histograms(MetricQueryNS)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]map[string]telemetry.HistogramSnapshot{}
	for _, lh := range series {
		ep := lh.Labels["endpoint"]
		if out[ep] == nil {
			out[ep] = map[string]telemetry.HistogramSnapshot{}
		}
		out[ep][lh.Labels["cache"]] = lh.Hist
	}
	return out
}

// TestMetricsScrapeUnderLoad hammers scraping, over HTTP /metrics and
// by rendering the registry in process, while ingest uploads and query
// traffic run. Every scrape must pass the strict parser. Under -race
// this is the registry's serve-side data-race check.
func TestMetricsScrapeUnderLoad(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := New(queryengine.New(serveStore(t)), Options{
		Registry: reg, QueryConcurrency: 32, IngestConcurrency: 4,
	})
	ts := newHTTPTestServer(t, srv)
	body, err := os.ReadFile("testdata/threatmetrix.netlog.jsonl")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				resp, err := http.Post(
					fmt.Sprintf("%s/v1/ingest?domain=load%d-%d.example&os=Windows", ts, n, j),
					"application/jsonl", bytes.NewReader(body))
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
			paths := []string{"/v1/locals?dest=localhost", "/v1/summary", "/v1/site/scanner.example"}
			for j := 0; j < 12; j++ {
				resp, err := http.Get(ts + paths[(n+j)%len(paths)])
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 20; j++ {
			scrapeMetrics(t, ts)
			var buf bytes.Buffer
			if err := reg.WritePrometheus(&buf); err != nil {
				t.Error(err)
				return
			}
			if _, err := telemetry.ParsePrometheus(&buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	if up, found := reg.CounterValue(MetricIngestUploads), reg.CounterValue(MetricIngestDetections); up != 16 || found != 16*14 {
		t.Fatalf("ingest totals after load: %d uploads, %d detections", up, found)
	}
	if reg.CounterValue(MetricRequests, "path", "/v1/ingest") != 16 {
		t.Fatal("shared registry must carry the request counters")
	}
	// Both planes drained: in-flight gauges read zero.
	s := reg.Snapshot()
	for k, v := range s.Gauges {
		if v != 0 {
			t.Fatalf("gauge %s = %d after drain, want 0", k, v)
		}
	}
}

// scrapeMetrics fetches base/metrics and parses it with the strict
// exposition parser.
func scrapeMetrics(t testing.TB, base string) *telemetry.PromDoc {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	doc, err := telemetry.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatalf("/metrics is not valid exposition: %v", err)
	}
	return doc
}

// promCounter reads one counter series of a scrape exactly; an absent
// series reads zero.
func promCounter(t testing.TB, doc *telemetry.PromDoc, name string, labels ...string) uint64 {
	t.Helper()
	s := doc.Series(name, labels...)
	if s == nil {
		return 0
	}
	v, err := strconv.ParseUint(s.Raw, 10, 64)
	if err != nil {
		t.Fatalf("%s%v: %v", name, labels, err)
	}
	return v
}

// newHTTPTestServer mounts an existing Server on a test listener and
// returns its base URL.
func newHTTPTestServer(t testing.TB, srv *Server) string {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}
