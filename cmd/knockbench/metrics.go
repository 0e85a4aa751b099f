package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
)

// The five workloads, in the order the all-workloads mode runs them.
var workloads = []string{"crawl", "ingest", "query_hot", "query_churn", "recover"}

// runSeconds is a workload's timed run length when -seconds is not
// given, as BENCHMARK.json's run_seconds. -seconds replaces it; the
// phases keep their shares. On a shared VM the machine's speed drifts
// by about 10% within seconds, so a run must be long enough to average
// over that.
const runSeconds = 15

// metric is one declared metric. Every workload reports every
// end-to-end metric. A per-layer metric is measured on the workloads in
// on and reported as 0 elsewhere (the layer is not on that workload's
// path); moves names the end-to-end metric@workload it should move and
// unchanged the workload where the benchmark predicts no change.
type metric struct {
	name, unit, better string
	on                 []string
	moves              []string
	unchanged          string
}

const (
	lower  = "lower"
	higher = "higher"
)

var (
	serving  = []string{"ingest", "query_hot", "query_churn"}
	ingests  = []string{"ingest", "query_churn"}
	queries  = []string{"query_hot", "query_churn"}
	durables = []string{"ingest", "query_hot", "query_churn", "recover"}
)

// endToEnd are the metrics a user of the system sees. The latency
// operation differs by workload: a crawl leg (crawl), an upload
// (ingest), a read request (query_hot, query_churn), a restart
// (recover).
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: lower},
	{name: "peak_rss_mb", unit: "MiB", better: lower},
	{name: "throughput_per_s", unit: "1/s", better: higher},
	{name: "p50_ms", unit: "ms", better: lower},
	{name: "tail_ms", unit: "ms", better: lower},
}

// tailPercentile is the percentile tail_ms reports on each workload:
// the highest that has minTail samples beyond it and reads the same,
// within the bound, from run to run on a 2-core VM. Past p90, ingest
// latency is set by whether one or two WAL compactions (50 ms commit
// stalls, one per 4 MiB of WAL) fall inside the phase; past p98,
// query_hot's by a stray GC cycle or scheduling delay in one run and
// not the next. store.compactions and loadgen.gen_lag_p99_ms show
// those stalls.
var tailPercentile = map[string]float64{
	"crawl":       75,
	"ingest":      90,
	"query_hot":   98,
	"query_churn": 99,
	"recover":     75,
}

// perLayer are the single-layer metrics, each tied to the end-to-end
// metric it should move. Server-side latencies are means over the
// registry histograms' exact sums: their log2 buckets would put a p50
// on the same bucket bound run after run, and means add up, so client
// mean minus server mean is the time spent outside the handler.
var perLayer = []metric{
	{name: "websim.build_s", unit: "s", better: lower, on: []string{"crawl"}, moves: []string{"throughput_per_s@crawl"}},
	{name: "crawler.run_s", unit: "s", better: lower, on: []string{"crawl"}, moves: []string{"throughput_per_s@crawl"}},
	{name: "crawler.unattributed_s", unit: "s", better: lower, on: []string{"crawl"}, moves: []string{"throughput_per_s@crawl"}},
	{name: "crawler.trace_overhead_pct", unit: "%", better: lower, on: []string{"crawl"}, moves: []string{"throughput_per_s@crawl"}},
	{name: "crawler.visits", unit: "count", better: higher, on: []string{"crawl"}, moves: []string{"throughput_per_s@crawl"}},
	{name: "crawler.local_requests", unit: "count", better: higher, on: []string{"crawl"}, moves: []string{"throughput_per_s@crawl"}},
	{name: "browser.visit_busy_s", unit: "s", better: lower, on: []string{"crawl"}, moves: []string{"throughput_per_s@crawl"}, unchanged: "ingest"},
	{name: "localnet.detect_busy_s", unit: "s", better: lower, on: []string{"crawl"}, moves: []string{"throughput_per_s@crawl"}},
	{name: "localnet.detect_us_per_upload", unit: "us", better: lower, on: ingests, moves: []string{"throughput_per_s@ingest"}},
	{name: "netlog.parse_us_per_upload", unit: "us", better: lower, on: ingests, moves: []string{"throughput_per_s@ingest"}, unchanged: "crawl"},
	{name: "classify.us_per_upload", unit: "us", better: lower, on: ingests, moves: []string{"throughput_per_s@ingest"}},
	{name: "store.save_s", unit: "s", better: lower, on: []string{"crawl"}, moves: []string{"throughput_per_s@crawl"}},
	{name: "store.netlog_busy_s", unit: "s", better: lower, on: []string{"crawl"}, moves: []string{"throughput_per_s@crawl"}},
	{name: "store.commit_busy_s", unit: "s", better: lower, on: []string{"crawl"}, moves: []string{"throughput_per_s@crawl"}},
	{name: "store.commit_us_per_upload", unit: "us", better: lower, on: ingests, moves: []string{"throughput_per_s@ingest"}, unchanged: "crawl"},
	{name: "store.checkpoint_max_ms", unit: "ms", better: lower, on: serving, moves: []string{"tail_ms@ingest"}},
	{name: "store.compactions", unit: "count", better: lower, on: serving, moves: []string{"tail_ms@ingest"}},
	{name: "store.segment_records", unit: "count", better: lower, on: durables, moves: []string{"p50_ms@recover"}},
	{name: "store.wal_records", unit: "count", better: lower, on: durables, moves: []string{"p50_ms@recover"}},
	{name: "store.recover_s", unit: "s", better: lower, on: []string{"recover"}, moves: []string{"p50_ms@recover"}},
	{name: "serve.ingest_handler_mean_ms", unit: "ms", better: lower, on: ingests, moves: []string{"p50_ms@ingest"}},
	{name: "serve.hit_mean_ms", unit: "ms", better: lower, on: queries, moves: []string{"throughput_per_s@query_hot"}},
	{name: "serve.miss_mean_ms", unit: "ms", better: lower, on: queries, moves: []string{"p50_ms@query_churn"}, unchanged: "query_hot"},
	{name: "queryengine.cache_hit_ratio", unit: "ratio", better: higher, on: queries, moves: []string{"p50_ms@query_hot", "tail_ms@query_churn"}},
	{name: "queryengine.revalidations", unit: "count", better: higher, on: queries, moves: []string{"p50_ms@query_hot", "tail_ms@query_churn"}},
	{name: "pipeline.site_miss_mean_ms", unit: "ms", better: lower, on: queries, moves: []string{"tail_ms@query_churn"}},
	{name: "pipeline.index_build_s", unit: "s", better: lower, on: []string{"recover"}, moves: []string{"throughput_per_s@recover"}},
	{name: "report.summary_miss_mean_ms", unit: "ms", better: lower, on: queries, moves: []string{"tail_ms@query_churn"}, unchanged: "query_hot"},
	{name: "report.render_s", unit: "s", better: lower, on: []string{"recover"}, moves: []string{"throughput_per_s@recover"}},
	{name: "http.client_overhead_ms", unit: "ms", better: lower, on: serving, moves: []string{"p50_ms@query_hot"}},
	{name: "loadgen.gen_lag_p99_ms", unit: "ms", better: lower, on: serving, moves: []string{"tail_ms@ingest"}},
	{name: "loadgen.wake_lag_p99_ms", unit: "ms", better: lower, on: serving, moves: []string{"tail_ms@query_hot"}},
}

// maxUnattributedShare bounds the share of the crawl's worker time
// (Workers × RunWorld time) that no crawler stage accounts for: the
// measured share (about 23% on a 2-core VM: dispatch, record staging,
// idle workers at the end of each leg, GC) plus 10 points. Past it, a
// stage has gone unmeasured and the per-layer split no longer explains
// throughput_per_s@crawl.
const maxUnattributedShare = 0.33

// maxWakeLagMS invalidates a load run whose generator woke for its
// p99 scheduled send later than this: the open loop then measured the
// generator, not the server. The generator shares the server's NumCPU
// processors and Go preempts a running goroutine only every 10 ms, so
// while query_churn's renders (20–40 ms page-listing sorts) hold both
// processors of a 2-core machine a due sender waits up to a quantum:
// its wake lag p99 is about 8 ms. Past two quanta the generator, not
// the scheduler's quantum, set the schedule.
const maxWakeLagMS = 20

func lookup(name string) (metric, bool) {
	for _, m := range endToEnd {
		if m.name == name {
			return m, true
		}
	}
	for _, m := range perLayer {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

// measuredOn lists the per-layer metrics a workload measures.
func measuredOn(workload string) []string {
	var out []string
	for _, m := range perLayer {
		for _, w := range m.on {
			if w == workload {
				out = append(out, m.name)
			}
		}
	}
	return out
}

// result is one workload run: what it attempted, what failed, which
// correctness checks did not hold, and every metric it measured.
type result struct {
	workload  string
	attempted int
	failed    int
	problems  []string
	values    map[string]float64
}

func newResult(workload string) *result {
	return &result{workload: workload, values: map[string]float64{}}
}

// set records a measured metric; the name must be declared.
func (r *result) set(name string, v float64) {
	if _, ok := lookup(name); !ok {
		panic("knockbench: undeclared metric " + name)
	}
	r.values[name] = v
}

// check records a failed correctness check.
func (r *result) check(err error) {
	if err != nil {
		r.problems = append(r.problems, err.Error())
	}
}

// complete reports a metric the workload should have measured and did
// not: every end-to-end metric and, in a traced run, the per-layer
// metrics measured on this workload.
func (r *result) complete(traced bool) error {
	var want []string
	if traced {
		want = measuredOn(r.workload)
	}
	for _, m := range endToEnd {
		want = append(want, m.name)
	}
	for _, name := range want {
		if _, ok := r.values[name]; !ok {
			return fmt.Errorf("%s: metric %s was not measured", r.workload, name)
		}
	}
	return nil
}

// lines renders the measured metrics as "workload metric value unit",
// end-to-end metrics first, values with every digit.
func (r *result) lines() []string {
	var out []string
	for _, set := range [][]metric{endToEnd, perLayer} {
		for _, m := range set {
			if v, ok := r.values[m.name]; ok {
				out = append(out, fmt.Sprintf("%s %s %s %s", r.workload, m.name, strconv.FormatFloat(v, 'g', -1, 64), m.unit))
			}
		}
	}
	return out
}

// metricValue is one metric of a result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the one-line JSON result: with trace off every end-to-end
// metric, with trace on every per-layer metric. A per-layer metric the
// workload does not measure is reported as 0, so every line carries the
// whole declared set.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *result) summary(traced bool) summary {
	set := endToEnd
	if traced {
		set = perLayer
	}
	s := summary{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(set)),
	}
	for _, m := range set {
		s.Metrics[m.name] = metricValue{Value: r.values[m.name], Unit: m.unit}
	}
	return s
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []manifestWL  `json:"workloads"`
	EndToEnd   []manifestDef `json:"end_to_end"`
	PerLayer   []manifestDef `json:"per_layer"`
}

type manifestWL struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// definitions indexes the manifest's metrics by name.
func (m *manifest) definitions() map[string]manifestDef {
	out := make(map[string]manifestDef, len(m.EndToEnd)+len(m.PerLayer))
	for _, d := range m.EndToEnd {
		out[d.Name] = d
	}
	for _, d := range m.PerLayer {
		out[d.Name] = d
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
