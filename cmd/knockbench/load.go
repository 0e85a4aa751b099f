package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/knockandtalk/knockandtalk/internal/loadgen"
	"github.com/knockandtalk/knockandtalk/internal/pipeline"
	"github.com/knockandtalk/knockandtalk/internal/serve"
	"github.com/knockandtalk/knockandtalk/internal/serve/queryengine"
	"github.com/knockandtalk/knockandtalk/internal/store"
	"github.com/knockandtalk/knockandtalk/internal/telemetry"
)

// load is one phase's load: its mix over which domains, the endpoints
// whose latency it measures, and its open-loop rate (0 runs a closed
// loop).
type load struct {
	name     string
	mix      map[string]int
	domains  int // how many of the fixture's seeded domains reads rotate over; 0 means all
	measured func(endpoint string) bool
	rate     float64
	d        time.Duration
}

// domainsOf returns the domains the load's reads rotate over.
func (l load) domainsOf(f *fixture) []string {
	if l.domains > 0 && l.domains < len(f.domains) {
		return f.domains[:l.domains]
	}
	return f.domains
}

func onlyIngest(ep string) bool { return ep == "ingest" }
func onlyReads(ep string) bool  { return ep != "ingest" }

// phase is one load phase's outcome.
type phase struct {
	wall      time.Duration
	attempted int
	failed    int
	ok        map[string]int // acknowledged requests per endpoint
	latency   []float64      // ms from intended send: measured endpoints, open loop, 2xx only
	lag       []float64      // ms from intended to actual send, open loop
	wake      []float64      // ms of wake-up lateness of the generator's probe, open loop
	findings  int            // offline findings of the uploads sent
	events    uint64         // NetLog events the server acknowledged
}

// run drives one phase of load against the mount with NumCPU senders.
func (m *mount) run(b *bench, f *fixture, l load) (*phase, error) {
	ph := &phase{ok: map[string]int{}}
	open := l.rate > 0
	domains := l.domainsOf(f)
	var (
		mu                 sync.Mutex
		latency, lag, wake series
		findings           atomic.Int64
		start              time.Time
		counters           [5]atomic.Uint64
	)
	next := func(k int) uint64 { return counters[k].Add(1) - 1 }
	domain := func(n uint64) string { return url.PathEscape(domains[n%uint64(len(domains))]) }
	base := m.ts.URL
	// Lag is taken where loadgen asks for request i: the actual send time
	// minus the schedule's intended one.
	observeLag := func(uint64) {}
	if open {
		interval := time.Duration(float64(time.Second) / l.rate)
		observeLag = func(i uint64) { lag.add(ms(time.Since(start.Add(time.Duration(i) * interval)))) }
	}
	builders := map[string]func(i uint64) loadgen.Request{
		"site": func(i uint64) loadgen.Request {
			observeLag(i)
			return loadgen.Request{URL: base + "/v1/site/" + domain(next(0))}
		},
		"locals": func(i uint64) loadgen.Request {
			observeLag(i)
			return loadgen.Request{URL: base + listPath("locals", next(1), domain)}
		},
		"pages": func(i uint64) loadgen.Request {
			observeLag(i)
			return loadgen.Request{URL: base + listPath("pages", next(2), domain)}
		},
		"summary": func(i uint64) loadgen.Request {
			observeLag(i)
			return loadgen.Request{URL: base + "/v1/summary"}
		},
		"ingest": func(i uint64) loadgen.Request {
			observeLag(i)
			p := &f.payloads[next(4)%uint64(len(f.payloads))]
			findings.Add(int64(p.findings))
			return loadgen.Request{
				Method: http.MethodPost,
				URL: fmt.Sprintf("%s/v1/ingest?crawl=%s&os=%s&domain=%s&committed_at=%s",
					base, url.QueryEscape(p.crawl), url.QueryEscape(p.os), url.QueryEscape(p.domain), p.committedAt),
				Body:        p.body,
				ContentType: "application/jsonl",
			}
		},
	}
	var eps []loadgen.Endpoint
	for _, name := range []string{"site", "locals", "pages", "summary", "ingest"} {
		if w, ok := l.mix[name]; ok {
			eps = append(eps, loadgen.Endpoint{Name: name, Weight: w, Request: builders[name]})
		}
	}
	runner, err := loadgen.New(eps, loadgen.Options{
		Client:    m.client,
		TraceSeed: b.seed,
		Observer: func(ep string, d time.Duration, ok bool) {
			mu.Lock()
			ph.attempted++
			if ok {
				ph.ok[ep]++
			} else {
				ph.failed++
			}
			mu.Unlock()
			if ok && open && l.measured(ep) {
				latency.add(ms(d))
			}
		},
	})
	if err != nil {
		return nil, err
	}
	start = time.Now()
	var res *loadgen.Result
	if open {
		stop := probeWakeLag(start, &wake)
		res, err = runner.Open(context.Background(), l.rate, runtime.NumCPU(), l.d)
		stop()
	} else {
		res, err = runner.Closed(context.Background(), runtime.NumCPU(), l.d)
	}
	if err != nil {
		return nil, err
	}
	ph.wall = time.Duration(res.DurationSeconds * float64(time.Second))
	ph.latency, ph.lag, ph.wake = latency.values(), lag.values(), wake.values()
	ph.findings = int(findings.Load())
	return ph, nil
}

// probeGap spaces the wake-lag probe's scheduled wake-ups.
const probeGap = 2 * time.Millisecond

// probeWakeLag starts a probe that sleeps until every probeGap after
// start, as a free sender sleeps until its request is due, and records
// how late it woke. The send lag at Request(i) also counts requests a
// sender could not send on time because both senders were waiting on
// slow responses — the server's backlog, which latency from the
// intended send already charges; the probe's lateness is the
// generator's own. The returned stop waits for the probe to exit.
func probeWakeLag(start time.Time, out *series) (stop func()) {
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 1; ; k++ {
			due := start.Add(time.Duration(k) * probeGap)
			select {
			case <-time.After(time.Until(due)):
				out.add(ms(time.Since(due)))
			case <-quit:
				return
			}
		}
	}()
	return func() {
		close(quit)
		wg.Wait()
	}
}

// listPath alternates the whole listing with a per-domain one, as
// knockload's mix does.
func listPath(kind string, n uint64, domain func(uint64) string) string {
	if n%2 == 0 {
		return "/v1/" + kind + "?limit=100"
	}
	return "/v1/" + kind + "?limit=100&domain=" + domain(n/2)
}

// keySpace lists every read path a mix over domains can request.
func keySpace(mix map[string]int, domains []string) []string {
	var keys []string
	esc := func(d string) string { return url.PathEscape(d) }
	if _, ok := mix["site"]; ok {
		for _, d := range domains {
			keys = append(keys, "/v1/site/"+esc(d))
		}
	}
	for _, kind := range []string{"locals", "pages"} {
		if _, ok := mix[kind]; !ok {
			continue
		}
		keys = append(keys, "/v1/"+kind+"?limit=100")
		for _, d := range domains {
			keys = append(keys, "/v1/"+kind+"?limit=100&domain="+esc(d))
		}
	}
	if _, ok := mix["summary"]; ok {
		keys = append(keys, "/v1/summary")
	}
	return keys
}

// get fetches one path and returns its status and body.
func get(client *http.Client, base, path string) (int, []byte, error) {
	resp, err := client.Get(base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// response is one read's outcome, compared byte for byte.
type response struct {
	status int
	body   []byte
}

// fetchAll reads every path from one server.
func fetchAll(client *http.Client, base string, paths []string) (map[string]response, error) {
	out := make(map[string]response, len(paths))
	for _, p := range paths {
		status, body, err := get(client, base, p)
		if err != nil {
			return nil, err
		}
		out[p] = response{status, body}
	}
	return out, nil
}

// checkParity fails unless the cached server answered every path with
// the uncached server's status and bytes.
func checkParity(cached, uncached map[string]response) error {
	for _, p := range sortedKeys(uncached) {
		want, got := uncached[p], cached[p]
		if got.status != want.status || !bytes.Equal(got.body, want.body) {
			return fmt.Errorf("query: %s differs between the cached server (%d, %d bytes) and the uncached one (%d, %d bytes)",
				p, got.status, len(got.body), want.status, len(want.body))
		}
	}
	return nil
}

// parity reads a seeded sample of paritySample keys plus /v1/summary
// from the mount's cached server and from a CacheEntries: -1 server on
// the same store, and compares them.
func (m *mount) parity(seed uint64, keys []string) error {
	rng := rand.New(rand.NewPCG(seed, 0x7061726974))
	sample := append([]string(nil), keys...)
	rng.Shuffle(len(sample), func(i, j int) { sample[i], sample[j] = sample[j], sample[i] })
	if len(sample) > paritySample {
		sample = sample[:paritySample]
	}
	sample = append(sample, "/v1/summary")
	plain := serve.New(queryengine.New(m.st), serve.Options{CacheEntries: -1})
	ts := httptest.NewServer(plain.Handler())
	defer ts.Close()
	cached, err := fetchAll(m.client, m.ts.URL, sample)
	if err != nil {
		return err
	}
	uncached, err := fetchAll(m.client, ts.URL, sample)
	if err != nil {
		return err
	}
	return checkParity(cached, uncached)
}

// checkCounts fails unless the reopened store holds the seed's pages
// plus one per acknowledged upload and, when nothing failed, the seed's
// local requests plus the offline findings of every upload sent.
func checkCounts(pages, locals, seedPages, seedLocals, acked, findings int, failed bool) error {
	if want := seedPages + acked; pages != want {
		return fmt.Errorf("ingest: reopened store has %d pages, want %d seeded + %d acknowledged", pages, seedPages, acked)
	}
	if want := seedLocals + findings; !failed && locals != want {
		return fmt.Errorf("ingest: reopened store has %d local requests, want %d seeded + %d found offline", locals, seedLocals, findings)
	}
	return nil
}

// reopen closes the mount and checks the reopened directory's counts.
func (m *mount) reopen(f *fixture, ph *phase) error {
	if err := m.close(); err != nil {
		return err
	}
	st, lg, _, err := store.Open(m.dir, store.LogOptions{})
	if err != nil {
		return err
	}
	defer lg.Close()
	return checkCounts(st.NumPages(), st.NumLocals(), f.pages, f.locals, ph.ok["ingest"], ph.findings, ph.failed > 0)
}

// registryView is what the per-layer metrics read from a server's
// registry, through the exported metric-name constants.
type registryView struct {
	stageBusy, stageRuns map[string]uint64
	ingestEvents         uint64
	ingestNS             telemetry.HistogramSnapshot
	queryNS              map[[2]string]telemetry.HistogramSnapshot // (endpoint, cache outcome)
}

func viewOf(reg *telemetry.Registry) registryView {
	v := registryView{
		stageBusy:    reg.CounterLabels(pipeline.MetricStageBusyNS, "stage"),
		stageRuns:    reg.CounterLabels(pipeline.MetricStageRuns, "stage"),
		ingestEvents: reg.CounterValue(serve.MetricIngestEvents),
		ingestNS:     reg.Histogram(serve.MetricIngestNS).Snapshot(),
		queryNS:      map[[2]string]telemetry.HistogramSnapshot{},
	}
	for _, s := range reg.HistogramFamily(serve.MetricQueryNS) {
		v.queryNS[[2]string{s.Labels["endpoint"], s.Labels["cache"]}] = s.Hist
	}
	return v
}

// layers accumulates the registry views and phase outcomes of a
// workload's timed phases into its per-layer metrics.
type layers struct {
	stageBusy, stageRuns map[string]uint64
	ingestNS             telemetry.HistogramSnapshot
	queryNS              map[[2]string]telemetry.HistogramSnapshot
	outcomes             map[string]uint64 // cache outcome → timed-phase responses
	checkpoints          []float64
	compactions          int
	rec                  store.Recovery
	lag, wake            []float64
	clientMS             []float64
}

func newLayers() *layers {
	return &layers{
		stageBusy: map[string]uint64{}, stageRuns: map[string]uint64{},
		queryNS: map[[2]string]telemetry.HistogramSnapshot{}, outcomes: map[string]uint64{},
	}
}

// add folds in one timed phase: before is the mount's registry view
// when the timed load started (after priming), so cache outcomes count
// timed requests only.
func (ls *layers) add(m *mount, before registryView, ph *phase) {
	after := viewOf(m.srv.Registry())
	for k, n := range after.stageBusy {
		ls.stageBusy[k] += n
	}
	for k, n := range after.stageRuns {
		ls.stageRuns[k] += n
	}
	ls.ingestNS = ls.ingestNS.Merge(after.ingestNS)
	for k, h := range after.queryNS {
		ls.queryNS[k] = ls.queryNS[k].Merge(h)
		ls.outcomes[k[1]] += h.Count - before.queryNS[k].Count
	}
	ls.checkpoints = append(ls.checkpoints, m.ckpt.values()...)
	ls.compactions += m.lg.Segments() - m.segments
	ls.rec = m.rec
	ls.lag = append(ls.lag, ph.lag...)
	ls.wake = append(ls.wake, ph.wake...)
	ls.clientMS = append(ls.clientMS, ph.latency...)
}

// merged returns the query latency histogram over the endpoints and
// cache outcomes the filters keep.
func (ls *layers) merged(endpoint, outcome string) telemetry.HistogramSnapshot {
	var h telemetry.HistogramSnapshot
	for k, s := range ls.queryNS {
		if (endpoint == "" || k[0] == endpoint) && (outcome == "" || k[1] == outcome) {
			h = h.Merge(s)
		}
	}
	return h
}

// meanMS is a histogram's exact mean in milliseconds, 0 when empty.
func meanMS(h telemetry.HistogramSnapshot) float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count) / 1e6
}

// perUploadUS is a stage's busy microseconds per run.
func (ls *layers) perUploadUS(stage string) float64 {
	if ls.stageRuns[stage] == 0 {
		return 0
	}
	return float64(ls.stageBusy[stage]) / float64(ls.stageRuns[stage]) / 1e3
}

// report sets the serving per-layer metrics its workload measures.
func (ls *layers) report(b *bench) error {
	lag, err := percentile(ls.lag, 99)
	if err != nil {
		return err
	}
	wake, err := percentile(ls.wake, 99)
	if err != nil {
		return err
	}
	b.res.check(checkWakeLag(wake))
	hits := ls.outcomes["hit"] + ls.outcomes["revalidated"]
	hitRatio := 0.0
	if lookups := hits + ls.outcomes["miss"]; lookups > 0 {
		hitRatio = float64(hits) / float64(lookups)
	}
	server := meanMS(ls.merged("", ""))
	if b.workload == "ingest" {
		server = meanMS(ls.ingestNS)
	}
	values := map[string]float64{
		"netlog.parse_us_per_upload":    ls.perUploadUS("parse"),
		"localnet.detect_us_per_upload": ls.perUploadUS("detect"),
		"classify.us_per_upload":        ls.perUploadUS("classify"),
		"store.commit_us_per_upload":    ls.perUploadUS("commit"),
		"serve.ingest_handler_mean_ms":  meanMS(ls.ingestNS),
		"serve.hit_mean_ms":             meanMS(ls.merged("", "hit")),
		"serve.miss_mean_ms":            meanMS(ls.merged("", "miss")),
		"pipeline.site_miss_mean_ms":    meanMS(ls.merged("/v1/site/{domain}", "miss")),
		"report.summary_miss_mean_ms":   meanMS(ls.merged("/v1/summary", "miss")),
		"queryengine.cache_hit_ratio":   hitRatio,
		"queryengine.revalidations":     float64(ls.outcomes["revalidated"]),
		"http.client_overhead_ms":       mean(ls.clientMS) - server,
		"loadgen.gen_lag_p99_ms":        lag,
		"loadgen.wake_lag_p99_ms":       wake,
		"store.checkpoint_max_ms":       maxOf(ls.checkpoints),
		"store.compactions":             float64(ls.compactions),
		"store.segment_records":         float64(ls.rec.SegmentRecords),
		"store.wal_records":             float64(ls.rec.WALRecords),
	}
	for _, name := range measuredOn(b.workload) {
		b.res.set(name, values[name])
	}
	return nil
}

// checkWakeLag invalidates a run whose generator woke late.
func checkWakeLag(p99 float64) error {
	if p99 > maxWakeLagMS {
		return fmt.Errorf("load: generator wake lag p99 %.2f ms exceeds %d ms; the open loop measured the generator", p99, maxWakeLagMS)
	}
	return nil
}

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

// served is a serving workload's set-up: the fixture and a first mount,
// which the warm-up loads.
type served struct {
	f *fixture
	m *mount
}

// runServing runs a serving workload: set-up, warm-up, then each timed
// phase on a fresh mount, checked after it ends.
func runServing(b *bench, phases []load, prime func(*mount, *fixture, load) error) (map[string]*phase, error) {
	r := b.res
	uploads := false
	for _, l := range phases {
		_, ok := l.mix["ingest"]
		uploads = uploads || ok
	}
	s, err := repeatSetup(b, func() (served, error) {
		f, err := buildFixture(b.seed, b.tmp, uploads, false)
		if err != nil {
			return served{}, err
		}
		m, err := newMount(b, f)
		return served{f, m}, err
	}, func(s served) {
		s.m.close()
		os.RemoveAll(s.m.dir)
		os.RemoveAll(s.f.dir)
	})
	if err != nil {
		return nil, err
	}
	f := s.f
	defer os.RemoveAll(f.dir)
	if len(f.payloads) > 0 {
		withFindings := 0
		for _, p := range f.payloads {
			if p.findings > 0 {
				withFindings++
			}
		}
		fmt.Fprintf(os.Stderr, "# %s: %d ingest payloads, %.1f%% with findings\n",
			b.workload, len(f.payloads), 100*float64(withFindings)/float64(len(f.payloads)))
	}
	warm := phases[0]
	warm.rate, warm.d = 0, warmup
	if _, err := s.m.run(b, f, warm); err != nil {
		return nil, err
	}
	if err := s.m.close(); err != nil {
		return nil, err
	}
	os.RemoveAll(s.m.dir)

	ls := newLayers()
	out := map[string]*phase{}
	for _, l := range phases {
		m, err := newMount(b, f)
		if err != nil {
			return nil, err
		}
		if err := prime(m, f, l); err != nil {
			return nil, err
		}
		runtime.GC()
		sp := b.spans.start(nil, "phase", l.name)
		stop := m.tick(b.spans, sp)
		before := viewOf(m.srv.Registry())
		ph, err := m.run(b, f, l)
		stop()
		sp.end()
		if err != nil {
			return nil, err
		}
		ph.events = m.srv.Registry().CounterValue(serve.MetricIngestEvents) - before.ingestEvents
		ls.add(m, before, ph)
		r.attempted += ph.attempted
		r.failed += ph.failed + int(m.ckptErrs.Load())
		if _, reads := l.mix["site"]; reads {
			r.check(m.parity(b.seed, keySpace(l.mix, l.domainsOf(f))))
		}
		r.check(m.reopen(f, ph))
		os.RemoveAll(m.dir)
		out[l.name] = ph
	}
	r.set("peak_rss_mb", peakRSSMiB())
	return out, ls.report(b)
}

// runIngest is the ingest workload.
func runIngest(b *bench) error {
	open := load{name: "open", mix: map[string]int{"ingest": 1}, measured: onlyIngest, rate: ingestRate, d: share(b, 10.0/18)}
	closed := load{name: "closed", mix: open.mix, measured: onlyIngest, d: share(b, 8.0/18)}
	phases, err := runServing(b, []load{open, closed}, func(*mount, *fixture, load) error { return nil })
	if err != nil {
		return err
	}
	// Events in acknowledged uploads over the closed phase's wall time;
	// payloads are uploaded in a fixed rotation, so the count is exact.
	ph := phases["closed"]
	b.res.set("throughput_per_s", float64(ph.events)/ph.wall.Seconds())
	return setLatency(b, phases["open"].latency)
}

// runQueryHot is the query_hot workload.
func runQueryHot(b *bench) error {
	closed := load{name: "closed", mix: hotMix, domains: hotDomains, measured: onlyReads, d: share(b, 6.0/16)}
	open := load{name: "open", mix: hotMix, domains: hotDomains, measured: onlyReads, rate: hotRate, d: share(b, 10.0/16)}
	// Priming reads every key once, so the timed phases measure HTTP plus
	// cache lookup.
	phases, err := runServing(b, []load{closed, open}, func(m *mount, f *fixture, l load) error {
		_, err := fetchAll(m.client, m.ts.URL, keySpace(l.mix, l.domainsOf(f)))
		return err
	})
	if err != nil {
		return err
	}
	ph := phases["closed"]
	b.res.set("throughput_per_s", float64(ph.attempted-ph.failed)/ph.wall.Seconds())
	return setLatency(b, phases["open"].latency)
}

// runQueryChurn is the query_churn workload.
func runQueryChurn(b *bench) error {
	open := load{name: "open", mix: churnMix, measured: onlyReads, rate: churnRate, d: share(b, 1)}
	// Priming builds the site index, which the first request would
	// otherwise pay for.
	phases, err := runServing(b, []load{open}, func(m *mount, _ *fixture, _ load) error {
		_, err := fetchAll(m.client, m.ts.URL, []string{"/v1/summary"})
		return err
	})
	if err != nil {
		return err
	}
	ph := phases["open"]
	b.res.set("throughput_per_s", float64(ph.attempted-ph.failed)/ph.wall.Seconds())
	return setLatency(b, ph.latency)
}
