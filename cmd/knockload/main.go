// Command knockload drives knockserved's query plane (and optionally
// its ingest plane) with a weighted endpoint mix and reports latency
// distributions the way a capacity review needs them: closed-loop for
// sustainable throughput at fixed concurrency, open-loop with
// coordinated-omission-corrected quantiles for user-visible tails, and
// a stepped-rate sweep for the throughput–latency curve.
//
// Usage:
//
//	knockload -base http://127.0.0.1:8080 -mode both -duration 10s
//	knockload -mode open -rate 500 -duration 30s -slo-p99 50ms
//	knockload -sweep 100,200,400,800 -step-duration 5s -json BENCH_load.json
//	knockload -mode closed -endpoints "site:4,summary:1" -ingest crawl.netlog.jsonl
//
// Site lookups self-seed from the server: the harness lists distinct
// domains via GET /v1/pages and rotates /v1/site/{domain} requests
// across them, so the mix exercises the real corpus rather than a
// synthetic key space. After the runs it scrapes the server's
// Prometheus /metrics and rebuilds the serve_query_ns histograms,
// putting client-observed (queueing included) and server-observed
// (handler-only) tails side by side in the report.
//
// With -slo-p99 set, the process exits nonzero when any endpoint's
// corrected p99 exceeds the target — the CI regression gate.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/knockandtalk/knockandtalk/internal/health"
	"github.com/knockandtalk/knockandtalk/internal/loadgen"
	"github.com/knockandtalk/knockandtalk/internal/serve"
	"github.com/knockandtalk/knockandtalk/internal/telemetry"
)

var logger *slog.Logger

func main() {
	var (
		base       = flag.String("base", "http://127.0.0.1:8080", "knockserved base URL")
		mode       = flag.String("mode", "both", "load mode: closed, open, or both")
		workers    = flag.Int("workers", 16, "closed-loop concurrent workers")
		rate       = flag.Float64("rate", 200, "open-loop offered arrival rate (requests/sec)")
		duration   = flag.Duration("duration", 10*time.Second, "duration of each headline run")
		inflight   = flag.Int("inflight", 256, "open-loop cap on concurrent in-flight requests")
		sweepSpec  = flag.String("sweep", "", "comma-separated open-loop rates for the throughput-latency sweep (e.g. 100,200,400)")
		stepDur    = flag.Duration("step-duration", 5*time.Second, "duration of each sweep step")
		sloP99     = flag.Duration("slo-p99", 0, "fail (exit 1) if any endpoint's corrected p99 exceeds this (0 disables)")
		jsonOut    = flag.String("json", "", "write the machine-readable bench report (BENCH_load.json) to this path")
		mixSpec    = flag.String("endpoints", "site:4,locals:2,pages:2,summary:1", "endpoint mix as name:weight pairs (site, locals, pages, summary, ingest)")
		ingestPath = flag.String("ingest", "", "NetLog JSONL file to drive POST /v1/ingest with (enables the ingest endpoint)")
		seedLimit  = flag.Int("seed-limit", 256, "max domains to self-seed from /v1/pages for site lookups")
		timeout    = flag.Duration("timeout", 10*time.Second, "per-request timeout")
		traceSeed  = flag.Uint64("trace-seed", 20210603, "seed for the deterministic per-request trace IDs sent as W3C traceparent headers")
		statusAddr = flag.String("status-addr", "", "serve live /status, /healthz, and Prometheus /metrics for the run on this address")
		logFormat  = flag.String("log-format", "text", "diagnostic log format: text or json")
	)
	flag.Parse()
	version := telemetry.RegisterBuildInfo(nil)

	var err error
	logger, err = health.NewLogger(*logFormat, "knockload")
	if err != nil {
		fmt.Fprintf(os.Stderr, "knockload: %v\n", err)
		os.Exit(1)
	}
	if *mode != "closed" && *mode != "open" && *mode != "both" {
		fatal("invalid -mode", "mode", *mode)
	}
	baseURL := strings.TrimRight(*base, "/")

	// The status listener exposes the harness's own telemetry while a
	// long run is in flight: the cumulative mirror registry plus a
	// health leg fed by the per-request observer.
	tracker := health.New(health.Options{})
	reg := telemetry.Default()
	if *statusAddr != "" {
		addr, stopStatus, err := health.Serve(*statusAddr, tracker, reg, logger)
		if err != nil {
			fatal("status listener", "err", err)
		}
		defer stopStatus()
		logger.Info("status listener up", "addr", addr)
	}

	domains, err := seedDomains(baseURL, *seedLimit, *timeout)
	if err != nil {
		fatal("seeding domains from /v1/pages", "base", baseURL, "err", err)
	}
	logger.Info("seeded", "base", baseURL, "domains", len(domains))

	var ingestBody []byte
	if *ingestPath != "" {
		ingestBody, err = os.ReadFile(*ingestPath)
		if err != nil {
			fatal("reading ingest payload", "err", err)
		}
	}
	endpoints, err := buildMix(*mixSpec, baseURL, domains, ingestBody)
	if err != nil {
		fatal("building endpoint mix", "err", err)
	}

	// Each run registers a leg on the tracker so /status shows live
	// progress; the observer bridges loadgen completions into it.
	var leg *health.CrawlProgress
	runner, err := loadgen.New(endpoints, loadgen.Options{
		Timeout:   *timeout,
		Registry:  reg,
		TraceSeed: *traceSeed,
		Observer: func(_ string, d time.Duration, ok bool) {
			leg.VisitDone(-1, d, ok)
		},
	})
	if err != nil {
		fatal("building runner", "err", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	bench := &loadgen.Bench{BaseURL: baseURL, Version: version, GoVersion: runtime.Version()}
	if *mode == "closed" || *mode == "both" {
		leg = tracker.StartCrawl("load-closed", "load", 0, *workers)
		logger.Info("closed-loop run", "workers", *workers, "duration", *duration)
		bench.Closed, err = runner.Closed(ctx, *workers, *duration)
		leg.Finish()
		if err != nil {
			fatal("closed-loop run", "err", err)
		}
	}
	if *mode == "open" || *mode == "both" {
		total := int(rate2total(*rate, *duration))
		leg = tracker.StartCrawl("load-open", "load", total, 0)
		logger.Info("open-loop run", "rate", *rate, "duration", *duration, "inflight", *inflight)
		bench.Open, err = runner.Open(ctx, *rate, *inflight, *duration)
		leg.Finish()
		if err != nil {
			fatal("open-loop run", "err", err)
		}
	}
	if *sweepSpec != "" {
		rates, err := parseRates(*sweepSpec)
		if err != nil {
			fatal("parsing -sweep", "err", err)
		}
		leg = tracker.StartCrawl("load-sweep", "load", 0, 0)
		logger.Info("sweep", "rates", *sweepSpec, "step", *stepDur)
		points, _, err := runner.Sweep(ctx, rates, *inflight, *stepDur)
		leg.Finish()
		if err != nil {
			fatal("sweep", "err", err)
		}
		bench.Sweep = points
	}

	// The server-observed half: knockserved's serve_query_ns quantiles
	// for the same window, scraped from its Prometheus /metrics.
	// Best-effort: a scrape that fails is logged and leaves the table
	// empty.
	if server, err := scrapeServerStats(baseURL, *timeout); err != nil {
		logger.Warn("scraping server /metrics", "err", err)
	} else {
		bench.Server = server
	}

	if *sloP99 > 0 {
		bench.Gate(*sloP99)
	}
	bench.WriteText(os.Stdout)
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fatal("writing bench report", "err", err)
		}
		if err := bench.WriteJSON(f); err != nil {
			fatal("writing bench report", "err", err)
		}
		if err := f.Close(); err != nil {
			fatal("writing bench report", "err", err)
		}
		logger.Info("bench report written", "path", *jsonOut)
	}
	if bench.SLO != nil && !bench.SLO.Pass {
		logger.Error("SLO gate failed",
			"target", *sloP99, "worst_endpoint", bench.SLO.WorstEP,
			"worst_p99", time.Duration(bench.SLO.WorstNS), "mode", bench.SLO.WorstRun)
		os.Exit(1)
	}
}

func rate2total(rate float64, d time.Duration) uint64 {
	return uint64(float64(d) / float64(time.Second) * rate)
}

// parseRates parses the -sweep spec ("100,200,400") into offered rates.
func parseRates(spec string) ([]float64, error) {
	var rates []float64
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := strconv.ParseFloat(part, 64)
		if err != nil || r <= 0 {
			return nil, fmt.Errorf("bad rate %q", part)
		}
		rates = append(rates, r)
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("empty sweep spec %q", spec)
	}
	return rates, nil
}

// seedDomains lists distinct page domains from the server so site
// lookups rotate across the real corpus. An empty store is fine — the
// site endpoint then probes a fixed nonexistent domain, which still
// exercises the 404 path.
func seedDomains(base string, limit int, timeout time.Duration) ([]string, error) {
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get(base + "/v1/pages?limit=" + strconv.Itoa(limit))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/pages: status %d", resp.StatusCode)
	}
	var pages struct {
		Rows []struct {
			Domain string `json:"domain"`
		} `json:"rows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pages); err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(pages.Rows))
	var domains []string
	for _, row := range pages.Rows {
		if row.Domain == "" || seen[row.Domain] {
			continue
		}
		seen[row.Domain] = true
		domains = append(domains, row.Domain)
	}
	if len(domains) == 0 {
		domains = []string{"unseeded.example"}
	}
	return domains, nil
}

// buildMix materializes the -endpoints spec into loadgen endpoints.
// Request builders rotate query parameters with the request index so
// the cache sees a realistic mix of repeats and variations.
func buildMix(spec, base string, domains []string, ingestBody []byte) ([]loadgen.Endpoint, error) {
	weights := make(map[string]int)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, wstr, found := strings.Cut(part, ":")
		w := 1
		if found {
			var err error
			if w, err = strconv.Atoi(wstr); err != nil || w <= 0 {
				return nil, fmt.Errorf("bad weight in %q", part)
			}
		}
		weights[name] = w
	}
	domain := func(i uint64) string { return domains[i%uint64(len(domains))] }
	builders := map[string]func(i uint64) loadgen.Request{
		"site": func(i uint64) loadgen.Request {
			return loadgen.Request{URL: base + "/v1/site/" + url.PathEscape(domain(i))}
		},
		"locals": func(i uint64) loadgen.Request {
			// Alternate the whole listing with per-domain filters.
			if i%2 == 0 {
				return loadgen.Request{URL: base + "/v1/locals?limit=100"}
			}
			return loadgen.Request{URL: base + "/v1/locals?limit=100&domain=" + url.QueryEscape(domain(i))}
		},
		"pages": func(i uint64) loadgen.Request {
			if i%2 == 0 {
				return loadgen.Request{URL: base + "/v1/pages?limit=100"}
			}
			return loadgen.Request{URL: base + "/v1/pages?limit=100&domain=" + url.QueryEscape(domain(i))}
		},
		"summary": func(i uint64) loadgen.Request {
			return loadgen.Request{URL: base + "/v1/summary"}
		},
	}
	if ingestBody != nil {
		builders["ingest"] = func(i uint64) loadgen.Request {
			// A small rotating domain set keeps re-ingests updating
			// existing sites instead of growing the store unboundedly.
			return loadgen.Request{
				Method:      http.MethodPost,
				URL:         fmt.Sprintf("%s/v1/ingest?domain=load-%d.example&os=Windows&crawl=load", base, i%8),
				Body:        ingestBody,
				ContentType: "application/jsonl",
			}
		}
	}
	var eps []loadgen.Endpoint
	for _, name := range []string{"site", "locals", "pages", "summary", "ingest"} {
		w, wanted := weights[name]
		if !wanted {
			continue
		}
		delete(weights, name)
		build, ok := builders[name]
		if !ok {
			return nil, fmt.Errorf("endpoint %q requires -ingest", name)
		}
		eps = append(eps, loadgen.Endpoint{Name: name, Weight: w, Request: build})
	}
	for name := range weights {
		return nil, fmt.Errorf("unknown endpoint %q", name)
	}
	if len(eps) == 0 {
		return nil, fmt.Errorf("empty endpoint mix %q", spec)
	}
	return eps, nil
}

// scrapeServerStats reads knockserved's Prometheus /metrics and
// summarizes its serve_query_ns series per endpoint.
func scrapeServerStats(base string, timeout time.Duration) (map[string]loadgen.ServerStats, error) {
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	doc, err := telemetry.ParsePrometheus(resp.Body)
	if err != nil {
		return nil, err
	}
	series, err := doc.Histograms(serve.MetricQueryNS)
	if err != nil {
		return nil, err
	}
	return serverStats(series), nil
}

// serverStats merges each endpoint's per-cache-outcome latency series
// into one distribution and reports its request count, the responses
// per cache outcome, and the interpolated p50 and p99.
func serverStats(series []telemetry.LabeledHistogram) map[string]loadgen.ServerStats {
	merged := make(map[string]telemetry.HistogramSnapshot)
	cache := make(map[string]map[string]uint64)
	for _, lh := range series {
		endpoint := lh.Labels["endpoint"]
		if endpoint == "" || lh.Hist.Count == 0 {
			continue
		}
		merged[endpoint] = merged[endpoint].Merge(lh.Hist)
		if cache[endpoint] == nil {
			cache[endpoint] = make(map[string]uint64)
		}
		cache[endpoint][lh.Labels["cache"]] += lh.Hist.Count
	}
	out := make(map[string]loadgen.ServerStats, len(merged))
	for endpoint, hist := range merged {
		out[endpoint] = loadgen.ServerStats{
			Requests: hist.Count,
			Cache:    cache[endpoint],
			P50NS:    hist.Quantile(0.50),
			P99NS:    hist.Quantile(0.99),
		}
	}
	return out
}

func fatal(msg string, args ...any) {
	logger.Error(msg, args...)
	os.Exit(1)
}
