// Package crawler orchestrates the measurement of Figure 1: build the
// synthetic web for a campaign, start Chrome instances on the chosen
// OS's machine profile, visit every target once with a clean profile
// while checking connectivity, extract local-network findings from each
// visit's telemetry, and store the results.
package crawler

import (
	"fmt"
	"log/slog"
	"net/netip"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/knockandtalk/knockandtalk/internal/browser"
	"github.com/knockandtalk/knockandtalk/internal/groundtruth"
	"github.com/knockandtalk/knockandtalk/internal/health"
	"github.com/knockandtalk/knockandtalk/internal/hostenv"
	"github.com/knockandtalk/knockandtalk/internal/pipeline"
	"github.com/knockandtalk/knockandtalk/internal/simnet"
	"github.com/knockandtalk/knockandtalk/internal/store"
	"github.com/knockandtalk/knockandtalk/internal/telemetry"
	"github.com/knockandtalk/knockandtalk/internal/websim"
)

// Config selects and sizes a crawl campaign.
type Config struct {
	Crawl groundtruth.CrawlID
	OS    hostenv.OS
	// Scale in (0, 1] shrinks the population; 1 is the full study.
	Scale float64
	// Seed drives every deterministic draw in the synthetic web.
	Seed uint64
	// Workers is the number of concurrent browser instances; 0 means
	// GOMAXPROCS.
	Workers int
	// Window is the per-page observation window; 0 means the study's
	// 20 seconds.
	Window time.Duration
	// PagePath selects which page of each site to visit. Empty means
	// the landing page ("/"), as the study crawled; websim.LoginPath
	// drives the internal-pages extension of §6.
	PagePath string
	// NetProfile names the network-condition profile the leg crawls
	// under (simnet.ProfileByName). Empty or "nominal" runs unimpaired
	// on the OS's own vantage — the byte-identical-to-golden path.
	NetProfile string
	// SkipConnectivityCheck disables the pre-visit ping to 8.8.8.8.
	SkipConnectivityCheck bool
	// RetainLogs keeps the raw NetLog capture for every visit that
	// produced local-network findings (the visits the paper's manual
	// investigation drilled into).
	RetainLogs bool
	// ParseHTML crawls through the browser's real HTML pipeline
	// (tokenize → extract → interpret) instead of the precompiled fast
	// path. Equivalent results at far higher cost: BenchmarkHTMLPipeline
	// measured 25× the time and 71× the bytes of the fast path.
	ParseHTML bool
	// Resume skips targets already present in the destination store for
	// this (crawl, OS). The paper's campaigns ran for weeks (July 24 to
	// September 25, 2020); long crawls must survive interruption.
	Resume bool
	// Metrics, when non-nil, registers crawl counters and pipeline
	// stage metrics into the registry.
	Metrics *telemetry.Registry
	// Tracer, when non-nil, records one per-visit trace (spans for
	// visit, detect, infer, netlog retention, and store commit) per
	// attempted target.
	Tracer *telemetry.Tracer
	// StageTimings collects per-stage busy time into Summary.StageBusy
	// even without a registry or tracer. Setting Metrics or Tracer
	// implies it.
	StageTimings bool
	// Health, when non-nil, registers this crawl as a live progress leg
	// on the operations plane: per-worker activity, throughput, ETA, and
	// retention-error rate become visible on the -status-addr listener.
	// Strictly observation-only — it never changes what gets stored.
	Health *health.Tracker
	// Checkpoint, when non-nil, is called every CheckpointEvery committed
	// visits (and once after the pool drains) to make the crawl durable
	// mid-leg — typically store.Log.Checkpoint on a WAL-backed store. It
	// replaces the old posture of durability only at end-of-leg Save:
	// a killed crawl resumes from the last checkpoint instead of zero.
	// Failures are counted in Summary.CheckpointErrors, never fatal.
	Checkpoint func() error
	// CheckpointEvery is the visit interval between Checkpoint calls;
	// 0 means every 256 visits (when Checkpoint is set).
	CheckpointEvery int
}

// instrumented reports whether the crawl measures per-stage time.
func (c *Config) instrumented() bool {
	return c.Metrics != nil || c.Tracer != nil || c.StageTimings
}

// Summary reports one campaign's crawl statistics — the raw material of
// Table 1.
type Summary struct {
	Crawl groundtruth.CrawlID
	OS    hostenv.OS
	// NetProfile is the network-condition profile the leg ran under;
	// empty for nominal crawls.
	NetProfile string
	Attempted  int
	Successful int
	Failed     int
	// Errors counts failed loads by Chrome net error string.
	Errors map[string]int
	// LocalRequests is the number of local-network requests extracted.
	LocalRequests int
	// Skipped counts targets abandoned because connectivity did not
	// return within the retry budget; they are not recorded as load
	// failures (§3.1: the check differentiates website failures from
	// network issues on the measurement side).
	Skipped int
	// AlreadyDone counts targets skipped by a resumed crawl because the
	// store already holds their page record.
	AlreadyDone int
	// RetentionErrors counts visits whose raw NetLog capture could not be
	// retained (RetainLogs). The page and local-request records for those
	// visits are stored regardless; the count surfaces the telemetry gap
	// instead of silently dropping it.
	RetentionErrors int
	// CheckpointErrors counts failed mid-leg durability checkpoints
	// (Config.Checkpoint). The records stay committed in memory and in
	// the WAL's buffer; the count surfaces the durability gap.
	CheckpointErrors int
	// StageBusy accumulates per-stage busy time across all workers
	// (visit, detect, infer, netlog, commit) when the crawl is
	// instrumented (Metrics, Tracer, or StageTimings set); nil
	// otherwise. Stage keys match the trace span names, and the values
	// are summed from the same measured durations the spans carry.
	StageBusy map[string]time.Duration
	// Elapsed is wall-clock crawl time.
	Elapsed time.Duration
}

// LogValue renders the summary as a structured log group, so the cmd
// binaries emit per-crawl completion events as one typed slog record
// ("crawl complete", summary=...) instead of hand-formatted lines.
func (s *Summary) LogValue() slog.Value {
	attrs := []slog.Attr{
		slog.String("crawl", string(s.Crawl)),
		slog.String("os", s.OS.String()),
		slog.Int("attempted", s.Attempted),
		slog.Int("successful", s.Successful),
		slog.Int("failed", s.Failed),
		slog.Int("local_requests", s.LocalRequests),
		slog.Duration("elapsed", s.Elapsed),
	}
	if s.NetProfile != "" {
		attrs = append(attrs, slog.String("net_profile", s.NetProfile))
	}
	if s.Skipped > 0 {
		attrs = append(attrs, slog.Int("skipped", s.Skipped))
	}
	if s.AlreadyDone > 0 {
		attrs = append(attrs, slog.Int("already_done", s.AlreadyDone))
	}
	if s.RetentionErrors > 0 {
		attrs = append(attrs, slog.Int("retention_errors", s.RetentionErrors))
	}
	if s.CheckpointErrors > 0 {
		attrs = append(attrs, slog.Int("checkpoint_errors", s.CheckpointErrors))
	}
	return slog.GroupValue(attrs...)
}

// ErrOffline is returned when the connectivity pre-check fails.
var ErrOffline = fmt.Errorf("crawler: no Internet connectivity (ping to 8.8.8.8 failed)")

var connectivityTarget = netip.MustParseAddr("8.8.8.8")

// Run executes one campaign: one OS, every target visited exactly once
// (the ethics posture of §3.1). Results are appended to dst.
func Run(cfg Config, dst *store.Store) (*Summary, error) {
	world, err := websim.Build(cfg.Crawl, cfg.OS, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return RunWorld(cfg, world, dst)
}

// RunWorld crawls a pre-built world. Useful when the same world is
// shared across repeated runs (benchmarks) or inspected afterwards.
func RunWorld(cfg Config, world *websim.World, dst *store.Store) (*Summary, error) {
	start := time.Now()
	if !cfg.SkipConnectivityCheck && !world.Net.Ping(connectivityTarget) {
		return nil, ErrOffline
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	opts := browser.DefaultOptions()
	if cfg.Window > 0 {
		opts.Window = cfg.Window
	}
	opts.ParseHTML = cfg.ParseHTML
	cond, err := simnet.ProfileByName(cfg.NetProfile)
	if err != nil {
		return nil, err
	}
	opts.Conditions = cond

	sum := &Summary{Crawl: cfg.Crawl, OS: cfg.OS, NetProfile: cfg.NetProfile, Errors: make(map[string]int)}
	done := map[string]bool{}
	if cfg.Resume {
		// Keyed on the visited URL, not the domain: a landing-page crawl
		// and a login-page crawl (PagePath) of the same domain are
		// distinct visits, and only the one actually stored may be
		// skipped on resume.
		for _, p := range dst.Pages(func(p *store.PageRecord) bool {
			return p.Crawl == string(cfg.Crawl) && p.OS == cfg.OS.String()
		}) {
			done[p.URL] = true
		}
	}
	dst.Reserve(len(world.Targets))
	instr := cfg.instrumented()
	var cm *crawlMeters
	if cfg.Metrics != nil {
		cm = newCrawlMeters(cfg.Metrics, string(cfg.Crawl), cfg.OS.String(), cfg.NetProfile, cond != nil && cond.Impaired())
	}
	// The health leg is nil-safe: every call below is a no-op when the
	// operations plane is off, so the visit path never branches on it.
	leg := cfg.Health.StartCrawl(string(cfg.Crawl), cfg.OS.String(), len(world.Targets), workers)
	// Mid-leg durability: every CheckpointEvery-th committed visit
	// (across all workers) flushes the WAL. The counter is shared; the
	// flush itself serializes inside the store's log.
	ckptEvery := int64(cfg.CheckpointEvery)
	if ckptEvery <= 0 {
		ckptEvery = defaultCheckpointEvery
	}
	var committed, ckptErrs atomic.Int64
	visitCommitted := func() {
		if cfg.Checkpoint != nil && committed.Add(1)%ckptEvery == 0 {
			if err := cfg.Checkpoint(); err != nil {
				ckptErrs.Add(1)
			}
		}
	}
	var wg sync.WaitGroup
	jobs := make(chan websim.Target, workers*4)
	tallies := make([]tally, workers)

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int, tl *tally) {
			defer wg.Done()
			tl.errors = make(map[string]int)
			tl.timed = instr
			// Each worker is its own Chrome instance on an identical
			// clean machine (a VM in the paper's setup).
			b := browser.New(hostenv.DefaultProfile(cfg.OS), world.Net, opts)
			var batch store.Batch
			// The pipeline reports each stage's single measured elapsed
			// time to the worker tally, the registry, and the visit
			// trace alike.
			popts := pipeline.Options{}
			if cfg.Metrics != nil {
				popts.Meters = pipeline.NewStageMeters(cfg.Metrics)
			}
			if instr {
				popts.Hooks.OnStage = func(s pipeline.Stage, _ int, elapsed time.Duration) {
					tl.stageNS[stDetect+int(s)] += int64(elapsed)
				}
			}
			for tgt := range jobs {
				leg.VisitStart(w)
				legStart := time.Now()
				// Per-page connectivity check: visit only when the
				// infrastructure can reach the Internet, retrying
				// briefly through an outage.
				if !cfg.SkipConnectivityCheck && !awaitConnectivity(world.Net) {
					tl.skipped++
					if cm != nil {
						cm.skipped.Inc()
					}
					leg.Skipped(w)
					continue
				}
				url := visitURL(tgt.URL, cfg.PagePath)
				vt := cfg.Tracer.StartVisit(string(cfg.Crawl), cfg.OS.String(), tgt.Domain, url, tgt.Rank)
				if vt != nil {
					// Trace identity is derived, not random: the same
					// (seed, crawl, OS, URL) always yields the same
					// trace ID, so identically-seeded runs (and fleet
					// reassignments of the same target) are
					// trace-identical.
					traceID := telemetry.DeriveTraceID(cfg.Seed, string(cfg.Crawl), cfg.OS.String(), url)
					vt.SetSpanContext(telemetry.SpanContext{
						TraceID: traceID,
						SpanID:  telemetry.DeriveSpanID(traceID, "visit"),
					}, telemetry.SpanID{})
				}
				var stepStart time.Time
				if instr {
					stepStart = time.Now()
				}
				res := b.Visit(url)
				if instr {
					d := time.Since(stepStart)
					tl.stageNS[stVisit] += int64(d)
					vt.Add("visit", stepStart, d, res.Log.Len())
					if cm != nil {
						cm.visits.Inc()
						cm.visitNS.ObserveDuration(d)
						if cm.impairedVisits != nil {
							cm.impairedVisits.Inc()
						}
					}
				}
				// The canonical visit pipeline: detection and record
				// construction. Classification stays off — the bulk
				// crawl classifies per site at analysis time.
				popts.Trace = vt
				out := pipeline.Process(res.Log, pipeline.Visit{
					Crawl:       string(cfg.Crawl),
					OS:          cfg.OS.String(),
					Domain:      tgt.Domain,
					Rank:        tgt.Rank,
					Category:    string(tgt.Category),
					URL:         url,
					FinalURL:    res.FinalURL,
					Err:         string(res.Err),
					CommittedAt: res.CommittedAt,
				}, popts)
				if cfg.RetainLogs && len(out.Findings) > 0 {
					if instr {
						stepStart = time.Now()
					}
					err := dst.AddNetLog(string(cfg.Crawl), cfg.OS.String(), tgt.Domain, res.Log)
					if instr {
						d := time.Since(stepStart)
						tl.stageNS[stNetlog] += int64(d)
						if err != nil {
							vt.AddErr("netlog", stepStart, d, 0, "retention failed")
						} else {
							vt.Add("netlog", stepStart, d, 1)
						}
					}
					if err != nil {
						// Retention is best-effort — the summary records
						// proceed regardless — but the gap is counted.
						tl.retentionErrors++
						if cm != nil {
							cm.retentionErrs.Inc()
						}
						leg.RetentionError()
					}
				}
				tl.attempted++
				if res.OK() {
					tl.successful++
				} else {
					tl.failed++
					tl.errors[string(res.Err)]++
					if cm != nil {
						cm.failures.Inc()
					}
				}
				tl.localRequests += len(out.Findings)
				if cm != nil {
					cm.findings.Add(uint64(len(out.Findings)))
				}

				// One visit = one domain = one store shard, so the whole
				// visit commits under a single shard lock.
				out.StageInto(&batch)
				if instr {
					stepStart = time.Now()
				}
				dst.AddBatch(&batch)
				if instr {
					d := time.Since(stepStart)
					tl.stageNS[stCommit] += int64(d)
					vt.Add("commit", stepStart, d, batch.Len())
				}
				batch.Reset()
				visitCommitted()
				outcome := "ok"
				if !res.OK() {
					outcome = string(res.Err)
				}
				vt.End(outcome, res.Log.Len())
				leg.VisitDone(w, time.Since(legStart), res.OK())
				// Extraction and retention are done with the capture;
				// recycle its event buffer for the worker's next visit.
				res.Log.Recycle()
			}
		}(w, &tallies[w])
	}
	for _, tgt := range world.Targets {
		if done[visitURL(tgt.URL, cfg.PagePath)] {
			sum.AlreadyDone++
			leg.ResumeSkip()
			continue
		}
		jobs <- tgt
	}
	close(jobs)
	wg.Wait()
	// End-of-leg checkpoint: whatever the interval left unflushed
	// becomes durable before the leg reports done.
	if cfg.Checkpoint != nil {
		if err := cfg.Checkpoint(); err != nil {
			ckptErrs.Add(1)
		}
	}
	for i := range tallies {
		tallies[i].mergeInto(sum)
	}
	sum.CheckpointErrors = int(ckptErrs.Load())
	sum.Elapsed = time.Since(start)
	leg.Finish()
	return sum, nil
}

// visitURL derives the URL a crawl visits for a target: the landing page,
// or the target's page at cfg.PagePath.
func visitURL(target, pagePath string) string {
	if pagePath == "" || pagePath == "/" {
		return target
	}
	return strings.TrimSuffix(target, "/") + pagePath
}

// tally is one worker's private counters; workers never share counter
// state mid-crawl and the per-worker tallies merge into the Summary once
// after the pool drains.
// Fixed tally slots for per-stage busy time, indexed so the visit hot
// path never touches a map. Pipeline stages map to slots by offset
// (stDetect + int(stage)); the names match the trace span names.
const (
	stVisit = iota
	stDetect
	stInfer
	stClassify
	stNetlog
	stCommit
	numStageTallies
)

var stageTallyName = [numStageTallies]string{"visit", "detect", "infer", "classify", "netlog", "commit"}

type tally struct {
	attempted, successful, failed int
	localRequests                 int
	skipped                       int
	retentionErrors               int
	errors                        map[string]int
	// timed marks an instrumented crawl; stageNS then accumulates
	// per-stage busy nanoseconds in the fixed slots above.
	timed   bool
	stageNS [numStageTallies]int64
}

func (t *tally) mergeInto(sum *Summary) {
	sum.Attempted += t.attempted
	sum.Successful += t.successful
	sum.Failed += t.failed
	sum.LocalRequests += t.localRequests
	sum.Skipped += t.skipped
	sum.RetentionErrors += t.retentionErrors
	for k, v := range t.errors {
		sum.Errors[k] += v
	}
	if t.timed {
		if sum.StageBusy == nil {
			sum.StageBusy = make(map[string]time.Duration, numStageTallies)
		}
		for i, ns := range t.stageNS {
			if ns != 0 {
				sum.StageBusy[stageTallyName[i]] += time.Duration(ns)
			}
		}
	}
}

// crawlMeters are the crawler's pre-resolved registry handles, labeled
// by campaign and OS — plus the network profile when the leg runs under
// a named one, so per-profile stage histograms separate cleanly. The
// impaired-visit counter exists only for legs whose condition chain
// actually impairs flows.
type crawlMeters struct {
	visits, failures, findings *telemetry.Counter
	skipped, retentionErrs     *telemetry.Counter
	impairedVisits             *telemetry.Counter
	visitNS                    *telemetry.Histogram
}

func newCrawlMeters(reg *telemetry.Registry, crawl, os, profile string, impaired bool) *crawlMeters {
	l := []string{"crawl", crawl, "os", os}
	if profile != "" {
		l = append(l, "netprofile", profile)
	}
	cm := &crawlMeters{
		visits:        reg.Counter("crawl_visits_total", l...),
		failures:      reg.Counter("crawl_visit_failures_total", l...),
		findings:      reg.Counter("crawl_findings_total", l...),
		skipped:       reg.Counter("crawl_skipped_total", l...),
		retentionErrs: reg.Counter("crawl_retention_errors_total", l...),
		visitNS:       reg.Histogram("crawl_visit_ns", l...),
	}
	if impaired {
		cm.impairedVisits = reg.Counter("crawl_impaired_visits_total", l...)
	}
	return cm
}

// RunAll executes a campaign on every OS the crawl covers (W/L/M for the
// 2020 and malicious crawls, W/L for 2021), returning per-OS summaries
// in table order.
func RunAll(cfg Config, dst *store.Store) ([]*Summary, error) {
	var out []*Summary
	osSet := groundtruth.OSesFor(cfg.Crawl)
	for _, os := range hostenv.AllOS {
		if !osSet.Has(osBit(os)) {
			continue
		}
		c := cfg
		c.OS = os
		s, err := Run(c, dst)
		if err != nil {
			return out, err
		}
		out = append(out, s)
	}
	return out, nil
}

// connectivityRetries bounds how long a worker waits for an outage to
// clear before abandoning the current target.
const (
	connectivityRetries = 20
	connectivityBackoff = time.Millisecond
)

// defaultCheckpointEvery is the visit interval between durability
// checkpoints when Config.Checkpoint is set without an explicit
// interval: frequent enough that a killed crawl loses minutes, not
// weeks, and cheap next to a browser visit's cost.
const defaultCheckpointEvery = 256

func awaitConnectivity(net pinger) bool {
	for i := 0; i < connectivityRetries; i++ {
		if net.Ping(connectivityTarget) {
			return true
		}
		time.Sleep(connectivityBackoff)
	}
	return false
}

// pinger is the connectivity-probe surface of the network.
type pinger interface {
	Ping(addr netip.Addr) bool
}

func osBit(os hostenv.OS) groundtruth.OSSet {
	switch os {
	case hostenv.Windows:
		return groundtruth.OSWindows
	case hostenv.Linux:
		return groundtruth.OSLinux
	default:
		return groundtruth.OSMac
	}
}
