package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/knockandtalk/knockandtalk/internal/browser"
	"github.com/knockandtalk/knockandtalk/internal/crawler"
	"github.com/knockandtalk/knockandtalk/internal/goldencampaign"
	"github.com/knockandtalk/knockandtalk/internal/groundtruth"
	"github.com/knockandtalk/knockandtalk/internal/hostenv"
	"github.com/knockandtalk/knockandtalk/internal/netlog"
	"github.com/knockandtalk/knockandtalk/internal/pipeline"
	"github.com/knockandtalk/knockandtalk/internal/report"
	"github.com/knockandtalk/knockandtalk/internal/serve"
	"github.com/knockandtalk/knockandtalk/internal/serve/queryengine"
	"github.com/knockandtalk/knockandtalk/internal/store"
	"github.com/knockandtalk/knockandtalk/internal/websim"
)

// Load shapes. Rates are set by the generator; every phase uses NumCPU
// senders and connections.
const (
	ingestRate    = 1200 // uploads/s, ingest open loop
	hotRate       = 1000 // requests/s, query_hot open loop
	churnRate     = 300  // requests/s, query_churn open loop
	hotDomains    = 64   // query_hot's domain set: ≈200 keys, under the 512-entry cache
	paritySample  = 512  // keys compared between the cached and uncached servers
	warmup        = 2 * time.Second
	checkpointGap = time.Second // Log.Checkpoint interval, as knockserved -wal-dir
)

// Endpoint mixes (weights of loadgen's weighted round-robin).
var (
	hotMix   = map[string]int{"site": 4, "locals": 2, "pages": 2, "summary": 1}
	churnMix = map[string]int{"site": 4, "locals": 2, "pages": 2, "summary": 1, "ingest": 1}
)

// fixture is a durable store directory made by crawling the golden
// campaign at the run's seed through store.Open, plus what the phases
// need from it: its record counts, its domains in seeded order and the
// seeded ingest payloads.
type fixture struct {
	dir      string
	pages    int
	locals   int
	domains  []string
	payloads []payload
	report   []byte // report.WriteAll of the crawled store (recover only)
}

// payload is one NetLog capture to upload, with what the offline
// pipeline makes of it.
type payload struct {
	crawl, os, domain string
	committedAt       time.Duration
	body              []byte
	findings          int
}

// buildFixture crawls the golden campaign at seed into a fresh durable
// directory under tmp (4 MiB default compaction, so the directory holds
// one segment plus a WAL tail). withPayloads also prepares the ingest
// payloads; withReport renders the crawled store's report.
func buildFixture(seed uint64, tmp string, withPayloads, withReport bool) (*fixture, error) {
	dir, err := os.MkdirTemp(tmp, "seed-")
	if err != nil {
		return nil, err
	}
	st, lg, _, err := store.Open(dir, store.LogOptions{})
	if err != nil {
		return nil, err
	}
	defer pipeline.ReleaseIndex(st)
	for _, crawl := range goldencampaign.Crawls {
		sums, err := crawler.RunAll(crawler.Config{
			Crawl: crawl, Scale: goldencampaign.Scale, Seed: seed,
			Workers: runtime.NumCPU(), RetainLogs: true,
		}, st)
		if err != nil {
			lg.Close()
			return nil, err
		}
		for _, s := range sums {
			if s.RetentionErrors+s.CheckpointErrors > 0 {
				lg.Close()
				return nil, fmt.Errorf("fixture: %s/%s lost %d captures", s.Crawl, s.OS, s.RetentionErrors+s.CheckpointErrors)
			}
		}
	}
	f := &fixture{dir: dir, pages: st.NumPages(), locals: st.NumLocals()}
	rng := rand.New(rand.NewPCG(seed, 0x6b6e6f636b))
	seen := map[string]bool{}
	st.ForEachPage(func(p *store.PageRecord) {
		if !seen[p.Domain] {
			seen[p.Domain] = true
			f.domains = append(f.domains, p.Domain)
		}
	})
	sort.Strings(f.domains)
	rng.Shuffle(len(f.domains), func(i, j int) { f.domains[i], f.domains[j] = f.domains[j], f.domains[i] })
	if withPayloads {
		if f.payloads, err = buildPayloads(st, seed, rng); err != nil {
			lg.Close()
			return nil, err
		}
	}
	if withReport {
		var buf bytes.Buffer
		report.WriteAll(&buf, st, nil)
		f.report = buf.Bytes()
	}
	return f, lg.Close()
}

// buildPayloads returns the campaign's retained captures (visits with
// local-network findings) and as many quiet captures from fresh
// browser.Visit calls, in seeded order, as JSONL upload bodies.
func buildPayloads(st *store.Store, seed uint64, rng *rand.Rand) ([]payload, error) {
	committed := map[[3]string]time.Duration{}
	st.ForEachPage(func(p *store.PageRecord) {
		committed[[3]string{p.Crawl, p.OS, p.Domain}] = p.CommittedAt
	})
	var out []payload
	for _, crawl := range goldencampaign.Crawls {
		for _, od := range st.NetLogDomains(string(crawl)) {
			log, _, err := st.NetLog(string(crawl), od[0], od[1])
			if err != nil {
				return nil, err
			}
			p, err := newPayload(string(crawl), od[0], od[1], committed[[3]string{string(crawl), od[0], od[1]}], log)
			if err != nil {
				return nil, err
			}
			out = append(out, p)
		}
	}
	loud := len(out)
	world, err := websim.Build(groundtruth.CrawlTop2020, hostenv.Windows, goldencampaign.Scale, seed)
	if err != nil {
		return nil, err
	}
	b := browser.New(hostenv.DefaultProfile(hostenv.Windows), world.Net, browser.DefaultOptions())
	for _, i := range rng.Perm(len(world.Targets)) {
		if len(out) == 2*loud {
			break
		}
		t := world.Targets[i]
		res := b.Visit(t.URL)
		if !res.OK() {
			continue
		}
		p, err := newPayload(string(groundtruth.CrawlTop2020), hostenv.Windows.String(), t.Domain, res.CommittedAt, res.Log)
		if err != nil {
			return nil, err
		}
		if p.findings == 0 {
			out = append(out, p)
		}
	}
	if loud == 0 || len(out) != 2*loud {
		return nil, fmt.Errorf("fixture: %d retained and %d quiet captures, want as many of each and some", loud, len(out)-loud)
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

func newPayload(crawl, osName, domain string, committedAt time.Duration, log *netlog.Log) (payload, error) {
	p := payload{crawl: crawl, os: osName, domain: domain, committedAt: committedAt}
	var buf bytes.Buffer
	if err := log.WriteJSONL(&buf); err != nil {
		return p, err
	}
	p.body = buf.Bytes()
	out := pipeline.Process(log, pipeline.Visit{Crawl: crawl, OS: osName, Domain: domain, CommittedAt: committedAt}, pipeline.Options{})
	p.findings = len(out.Findings)
	return p, nil
}

// copyDir copies a flat store directory.
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// mount is one fresh server: a copy of the fixture directory opened
// with store.Open, serve.New over queryengine.New on a loopback
// httptest listener, and a checkpoint ticker.
type mount struct {
	dir      string
	st       *store.Store
	lg       *store.Log
	rec      store.Recovery
	srv      *serve.Server
	ts       *httptest.Server
	client   *http.Client
	segments int // Log.Segments at mount

	ckpt     series // checkpoint durations, ms
	ckptErrs atomic.Int64
}

func newMount(b *bench, f *fixture) (*mount, error) {
	dir, err := os.MkdirTemp(b.tmp, "mount-")
	if err != nil {
		return nil, err
	}
	if err := copyDir(f.dir, dir); err != nil {
		return nil, err
	}
	st, lg, rec, err := store.Open(dir, store.LogOptions{})
	if err != nil {
		return nil, err
	}
	m := &mount{dir: dir, st: st, lg: lg, rec: rec, segments: lg.Segments()}
	m.srv = serve.New(queryengine.New(st), serve.Options{})
	m.ts = httptest.NewServer(m.srv.Handler())
	n := runtime.NumCPU()
	m.client = &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n},
	}
	return m, nil
}

// tick checkpoints the WAL every checkpointGap, timing each call under
// parent, until the returned stop is called; stop returns once the
// ticker goroutine has exited.
func (m *mount) tick(spans *spanLog, parent *span) (stop func()) {
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(checkpointGap)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				sp := spans.start(parent, "checkpoint", "wal")
				start := time.Now()
				err := m.lg.Checkpoint()
				m.ckpt.add(ms(time.Since(start)))
				sp.end()
				if err != nil {
					m.ckptErrs.Add(1)
				}
			}
		}
	}()
	return func() {
		close(quit)
		wg.Wait()
	}
}

// close stops the listener and the server, and closes the log so the
// directory can be reopened.
func (m *mount) close() error {
	m.ts.Close()
	m.client.CloseIdleConnections()
	m.srv.Close()
	return m.lg.Close()
}
