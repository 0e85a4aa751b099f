package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"
	"time"

	"github.com/knockandtalk/knockandtalk/internal/serve"
	"github.com/knockandtalk/knockandtalk/internal/serve/queryengine"
	"github.com/knockandtalk/knockandtalk/internal/store"
)

// TestScrapeServerStatsMatchesRegistry drives a live server through
// hits, misses and a revalidation, then checks that the server-side
// table scraped from the Prometheus /metrics equals the one computed
// from the server's registry in process: the scrape loses nothing.
func TestScrapeServerStatsMatchesRegistry(t *testing.T) {
	st := store.New()
	st.AddPage(store.PageRecord{
		Crawl: "top100k-2020", OS: "Windows", Domain: "a.example", Rank: 1,
		URL: "https://a.example/", CommittedAt: time.Second,
	})
	srv := serve.New(queryengine.New(st), serve.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	for i := 0; i < 5; i++ {
		get("/v1/summary")
		get("/v1/site/a.example")
		get("/v1/pages?limit=10&domain=a.example")
	}
	// An upload for another domain bumps the generation: the next site
	// lookup revalidates and the summary misses again.
	body, err := os.ReadFile("../../internal/serve/testdata/threatmetrix.netlog.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/ingest?domain=b.example&os=Windows", "application/jsonl", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	get("/v1/site/a.example")
	get("/v1/summary")

	got, err := scrapeServerStats(ts.URL, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	want := serverStats(srv.Registry().HistogramFamily(serve.MetricQueryNS))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scraped server stats\n%+v\nregistry\n%+v", got, want)
	}
	site := got["/v1/site/{domain}"]
	if site.Requests != 6 || !reflect.DeepEqual(site.Cache, map[string]uint64{"miss": 1, "hit": 4, "revalidated": 1}) {
		t.Fatalf("site stats = %+v, want 6 requests: 1 miss, 4 hits, 1 revalidated", site)
	}
	if sum := got["/v1/summary"]; sum.Requests != 6 || sum.Cache["miss"] != 2 || sum.P50NS == 0 || sum.P99NS < sum.P50NS {
		t.Fatalf("summary stats = %+v", sum)
	}
	if len(got) != 3 {
		t.Fatalf("endpoints = %v, want site, summary and pages", got)
	}
}
