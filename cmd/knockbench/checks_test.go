package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/knockandtalk/knockandtalk/internal/goldencampaign"
	"github.com/knockandtalk/knockandtalk/internal/pipeline"
	"github.com/knockandtalk/knockandtalk/internal/serve"
	"github.com/knockandtalk/knockandtalk/internal/serve/queryengine"
)

// Each correctness check passes on real outputs and fails once its
// expected value is tampered with.

func testBench(t *testing.T, workload string) *bench {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	return &bench{workload: workload, seed: goldenSeed, root: root, tmp: t.TempDir(), res: newResult(workload)}
}

func TestCrawlCheck(t *testing.T) {
	b := testBench(t, "crawl")
	c, err := runCampaign(goldenSeed, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := readGoldenHashes(b.root)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkHashes(c.hashes, want); err != nil {
		t.Fatalf("the benchmark's campaign does not reproduce the golden stores: %v", err)
	}
	for _, crawl := range goldencampaign.Crawls {
		tampered := storeHashes{}
		for k, v := range want {
			tampered[k] = v
		}
		tampered[crawl] = strings.Repeat("0", 64)
		if err := checkHashes(c.hashes, tampered); err == nil {
			t.Errorf("tampered %s hash passed", crawl)
		}
	}
}

func TestStageSplitCheck(t *testing.T) {
	worker := 10 * time.Second
	if err := checkStageSplit(worker, time.Duration(float64(worker)*(maxUnattributedShare-0.01))); err != nil {
		t.Errorf("share under the bound failed: %v", err)
	}
	for _, u := range []time.Duration{time.Duration(float64(worker) * (maxUnattributedShare + 0.01)), -time.Second} {
		if err := checkStageSplit(worker, u); err == nil {
			t.Errorf("unattributed %v of %v passed", u, worker)
		}
	}
}

// TestIngestCheck uploads payloads into a mounted copy of the seeded
// directory, reopens it and checks its counts; then the same counts
// against tampered expectations.
func TestIngestCheck(t *testing.T) {
	b := testBench(t, "ingest")
	f, err := buildFixture(goldenSeed, b.tmp, true, false)
	if err != nil {
		t.Fatal(err)
	}
	m, err := newMount(b, f)
	if err != nil {
		t.Fatal(err)
	}
	ph, err := m.run(b, f, load{name: "closed", mix: map[string]int{"ingest": 1}, measured: onlyIngest, d: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if ph.ok["ingest"] == 0 || ph.failed != 0 {
		t.Fatalf("uploads: %d acknowledged, %d failed", ph.ok["ingest"], ph.failed)
	}
	if err := m.reopen(f, ph); err != nil {
		t.Fatal(err)
	}
	pages, locals := f.pages+ph.ok["ingest"], f.locals+ph.findings
	if err := checkCounts(pages, locals, f.pages, f.locals, ph.ok["ingest"], ph.findings, false); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name                  string
		seedPages, seedLocals int
		acked, findings       int
		failed, wantErr       bool
	}{
		{"pages", f.pages + 1, f.locals, ph.ok["ingest"], ph.findings, false, true},
		{"acknowledged", f.pages, f.locals, ph.ok["ingest"] - 1, ph.findings, false, true},
		{"locals", f.pages, f.locals + 1, ph.ok["ingest"], ph.findings, false, true},
		{"findings", f.pages, f.locals, ph.ok["ingest"], ph.findings + 1, false, true},
		{"findings after a failure", f.pages, f.locals, ph.ok["ingest"], ph.findings + 1, true, false},
	} {
		err := checkCounts(pages, locals, c.seedPages, c.seedLocals, c.acked, c.findings, c.failed)
		if (err != nil) != c.wantErr {
			t.Errorf("tampered %s: err %v, want error %v", c.name, err, c.wantErr)
		}
	}
}

// TestQueryParityCheck reads the same keys from a cached and an
// uncached server over one store, then tampers with one response.
func TestQueryParityCheck(t *testing.T) {
	st, err := goldencampaign.Merged()
	if err != nil {
		t.Fatal(err)
	}
	defer pipeline.ReleaseIndex(st)
	var domains []string
	for _, p := range st.Pages(nil)[:16] {
		domains = append(domains, p.Domain)
	}
	keys := append(keySpace(hotMix, domains), "/v1/summary")
	cached := httptest.NewServer(serve.New(queryengine.New(st), serve.Options{}).Handler())
	defer cached.Close()
	plain := httptest.NewServer(serve.New(queryengine.New(st), serve.Options{CacheEntries: -1}).Handler())
	defer plain.Close()
	client := &http.Client{}
	// Twice through the cached server, so the compared reads are hits.
	for i := 0; i < 2; i++ {
		if _, err := fetchAll(client, cached.URL, keys); err != nil {
			t.Fatal(err)
		}
	}
	got, err := fetchAll(client, cached.URL, keys)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fetchAll(client, plain.URL, keys)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkParity(got, want); err != nil {
		t.Fatal(err)
	}
	r := want["/v1/summary"]
	want["/v1/summary"] = response{r.status, append(bytes.Clone(r.body[:len(r.body)-2]), '0', '\n')}
	if err := checkParity(got, want); err == nil {
		t.Error("tampered summary body passed")
	}
	want["/v1/summary"] = response{http.StatusNotFound, r.body}
	if err := checkParity(got, want); err == nil {
		t.Error("tampered summary status passed")
	}
}

// TestRecoverCheck restarts a durable directory crawled at the golden
// seed: its report equals both the committed golden report and the
// in-memory source, and a tampered expectation fails.
func TestRecoverCheck(t *testing.T) {
	b := testBench(t, "recover")
	f, err := buildFixture(goldenSeed, b.tmp, false, true)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := restartOnce(f.dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join(b.root, "testdata", "golden", "report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string][]byte{"golden": golden, "in-memory source": f.report} {
		if err := checkReport(rs.report, want); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if rs.rec.Segments == 0 || rs.rec.WALRecords == 0 {
		t.Errorf("recovery %+v: want a segment plus a WAL tail", rs.rec)
	}
	tampered := bytes.Replace(golden, []byte("Table 1"), []byte("Table 7"), 1)
	if err := checkReport(rs.report, tampered); err == nil {
		t.Error("tampered report passed")
	}
}
