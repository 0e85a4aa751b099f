// Package pipeline is the single canonical visit pipeline of Figure 1:
// NetLog telemetry → browser-source filter → localnet detection →
// optional probe-inference side channel (sharing the findings pass) →
// classification (with WHOIS corroboration when a registry is
// available) → store records. Every consumer of the detect→classify
// path — the crawler, the serving layer's ingest plane, the query
// engine, the analysis/report layer, the CLIs, and the examples — runs
// through this package, so the measurement semantics cannot drift
// between the offline crawl and its online and interactive
// counterparts.
//
// The package also materializes the SiteIndex (index.go): the
// O(sites) per-crawl aggregate view behind every paper table and
// figure, built once per store generation instead of rescanned per
// call.
package pipeline

import (
	"time"
	"unique"

	"github.com/knockandtalk/knockandtalk/internal/classify"
	"github.com/knockandtalk/knockandtalk/internal/localnet"
	"github.com/knockandtalk/knockandtalk/internal/netlog"
	"github.com/knockandtalk/knockandtalk/internal/probeinfer"
	"github.com/knockandtalk/knockandtalk/internal/store"
	"github.com/knockandtalk/knockandtalk/internal/telemetry"
	"github.com/knockandtalk/knockandtalk/internal/whois"
)

// Registry metric families the pipeline maintains when Options.Metrics
// is set, each labeled by stage name. Busy nanoseconds accumulate the
// exact elapsed values trace spans carry, so a trace file and the
// registry agree on per-stage busy time for identical work.
const (
	MetricStageRuns   = "pipeline_stage_runs_total"
	MetricStageItems  = "pipeline_stage_items_total"
	MetricStageBusyNS = "pipeline_stage_busy_ns"
	MetricStageNS     = "pipeline_stage_ns"
)

// Stage identifies one pipeline stage for hooks and metrics.
type Stage int

// Pipeline stages, in execution order.
const (
	StageDetect Stage = iota
	StageInfer
	StageClassify
)

// String names the stage as it appears in /metrics.
func (s Stage) String() string {
	switch s {
	case StageDetect:
		return "detect"
	case StageInfer:
		return "infer"
	case StageClassify:
		return "classify"
	default:
		return "unknown"
	}
}

// Hooks observe stage execution. All fields are optional.
type Hooks struct {
	// OnStage fires after each executed stage with the number of items
	// the stage produced (findings, inferences, or verdicts) and its
	// wall time. The crawler feeds these into its per-worker stage
	// tallies.
	OnStage func(stage Stage, items int, elapsed time.Duration)
}

// Options compose a pipeline run. The zero value detects with the
// paper's configuration and stops there — exactly what the bulk crawl
// needs, which defers classification to the analysis layer.
type Options struct {
	// Detect tunes the localnet detector (ablations only; the zero
	// value is the paper's configuration).
	Detect localnet.Options
	// InferProbes additionally runs the §4.3.2 timing side channel over
	// the same findings pass.
	InferProbes bool
	// Classify assigns per-visit localhost and LAN verdicts (the live
	// ingest and example paths; the bulk crawl classifies per site at
	// analysis time instead).
	Classify bool
	// Whois corroborates fraud-detection verdicts with registrant
	// evidence (§4.3.1) when non-nil. Applies wherever this pipeline
	// classifies: visit verdicts here and site verdicts via Classify.
	Whois *whois.Registry
	// Hooks observe stage execution.
	Hooks Hooks
	// Metrics, when non-nil, accumulates the MetricStage* families
	// (runs, items, busy nanoseconds, latency histogram per stage)
	// into the registry. Repeat callers should resolve the handles once
	// with NewStageMeters and set Meters instead.
	Metrics *telemetry.Registry
	// Meters are pre-resolved stage handles (NewStageMeters). When set,
	// Metrics is ignored; when only Metrics is set, Process resolves a
	// fresh set per call.
	Meters *StageMeters
	// Trace, when non-nil, records one span per executed stage on the
	// current visit's trace. Every observer of a stage — hook, metric,
	// span — sees the same single measured elapsed time.
	Trace *telemetry.VisitTrace
}

// numStages is the number of observable pipeline stages.
const numStages = int(StageClassify) + 1

// stageMeter is one stage's registry handles.
type stageMeter struct {
	runs, items, busy *telemetry.Counter
	ns                *telemetry.Histogram
}

// StageMeters hold every stage's registry handles, resolved once.
// Handles are permanent and atomic, so one StageMeters may be shared
// by every worker of a crawl — resolving per visit would rebuild
// metric keys on the hot path.
type StageMeters struct {
	m [numStages]stageMeter
}

// NewStageMeters resolves the MetricStage* handles for every stage.
func NewStageMeters(reg *telemetry.Registry) *StageMeters {
	var sm StageMeters
	for s := StageDetect; s <= StageClassify; s++ {
		name := s.String()
		sm.m[s] = stageMeter{
			runs:  reg.Counter(MetricStageRuns, "stage", name),
			items: reg.Counter(MetricStageItems, "stage", name),
			busy:  reg.Counter(MetricStageBusyNS, "stage", name),
			ns:    reg.Histogram(MetricStageNS, "stage", name),
		}
	}
	return &sm
}

// observe records one stage execution with its single measured elapsed
// time. A non-empty traceID tags the latency bucket's exemplar, linking
// the pipeline_stage_ns series back to the trace that produced it.
func (sm *StageMeters) observe(s Stage, items int, elapsed time.Duration, traceID string) {
	m := &sm.m[s]
	m.runs.Inc()
	m.items.Add(uint64(items))
	m.busy.Add(uint64(elapsed))
	m.ns.ObserveDurationExemplar(elapsed, traceID)
}

// observe reports one finished stage to every configured observer. The
// elapsed time is measured once, so the hook tally, the registry's
// busy counter, and the trace span cannot disagree.
func (o *Options) observe(s Stage, items int, started time.Time) {
	if o.Hooks.OnStage == nil && o.Meters == nil && o.Trace == nil {
		return
	}
	elapsed := time.Since(started)
	if o.Hooks.OnStage != nil {
		o.Hooks.OnStage(s, items, elapsed)
	}
	if o.Trace != nil {
		o.Trace.Add(s.String(), started, elapsed, items)
	}
	if o.Meters != nil {
		o.Meters.observe(s, items, elapsed, o.Trace.TraceIDString())
	}
}

// Visit carries the metadata of one page visit — everything the store
// records that is not derived from the telemetry itself.
type Visit struct {
	Crawl    string
	OS       string
	Domain   string
	Rank     int
	Category string
	// URL is the visited URL; FinalURL and Err describe the load
	// outcome; CommittedAt anchors per-request delays.
	URL         string
	FinalURL    string
	Err         string
	CommittedAt time.Duration
}

// Result is one visit's pipeline output.
type Result struct {
	// Page is the visit's page record, ready to commit.
	Page store.PageRecord
	// Findings are the detector's raw extractions, in detection order.
	Findings []localnet.Finding
	// Locals are the corresponding store records (same order), with
	// negative delays clamped as the store would.
	Locals []store.LocalRequest
	// Localhost and LAN split Locals by destination class, preserving
	// order.
	Localhost []store.LocalRequest
	LAN       []store.LocalRequest
	// LocalhostVerdict and LANVerdict are the per-visit classifications
	// (Options.Classify); nil when the class saw no traffic or
	// classification was not requested.
	LocalhostVerdict *classify.Verdict
	LANVerdict       *classify.Verdict
	// Inferences are the probe side-channel verdicts
	// (Options.InferProbes).
	Inferences []probeinfer.Inference
}

// Process runs the pipeline over one visit's telemetry. The local
// requests hold interned copies of the strings taken from the NetLog
// (see Intern).
func Process(log *netlog.Log, v Visit, opts Options) *Result {
	if opts.Meters == nil && opts.Metrics != nil {
		opts.Meters = NewStageMeters(opts.Metrics)
	}
	res := &Result{Page: store.PageRecord{
		Crawl:       v.Crawl,
		OS:          v.OS,
		Domain:      v.Domain,
		Rank:        v.Rank,
		Category:    v.Category,
		URL:         v.URL,
		FinalURL:    v.FinalURL,
		Err:         v.Err,
		CommittedAt: v.CommittedAt,
		Events:      log.Len(),
	}}

	started := time.Now()
	res.Findings = localnet.FromLogOpts(log, opts.Detect)
	opts.observe(StageDetect, len(res.Findings), started)

	if opts.InferProbes {
		started = time.Now()
		res.Inferences = probeinfer.FromLogFindings(log, res.Findings)
		opts.observe(StageInfer, len(res.Inferences), started)
	}

	if len(res.Findings) > 0 {
		res.Locals = make([]store.LocalRequest, 0, len(res.Findings))
	}
	for _, f := range res.Findings {
		rec := store.LocalRequest{
			Crawl:       v.Crawl,
			OS:          v.OS,
			Domain:      v.Domain,
			Rank:        v.Rank,
			Category:    v.Category,
			URL:         Intern(f.URL),
			Scheme:      string(f.Scheme),
			Host:        Intern(f.Host),
			Port:        f.Port,
			Path:        Intern(f.Path),
			Dest:        f.Dest.String(),
			Delay:       f.At - v.CommittedAt,
			Initiator:   Intern(f.Initiator),
			NetError:    Intern(f.NetError),
			StatusCode:  f.StatusCode,
			ViaRedirect: f.ViaRedirect,
			SOPExempt:   f.SOPExempt,
		}
		if rec.Delay < 0 {
			rec.Delay = 0
		}
		res.Locals = append(res.Locals, rec)
		if rec.Dest == "lan" {
			res.LAN = append(res.LAN, rec)
		} else {
			res.Localhost = append(res.Localhost, rec)
		}
	}

	if opts.Classify {
		started = time.Now()
		verdicts := 0
		if len(res.Localhost) > 0 {
			v := Classify("localhost", res.Localhost, opts.Whois)
			res.LocalhostVerdict = &v
			verdicts++
		}
		if len(res.LAN) > 0 {
			v := Classify("lan", res.LAN, opts.Whois)
			res.LANVerdict = &v
			verdicts++
		}
		opts.observe(StageClassify, verdicts, started)
	}
	return res
}

// Intern returns the canonical copy of s, unique.Make(s).Value(). The
// copy never aliases the buffer s was cut from, and equal strings
// interned between two garbage collections share it: unique drops a
// value once no Handle to it is left, and records keep the string, not
// the Handle, so interning never keeps a string alive. Process interns
// the local-request strings it derives from the NetLog. A caller whose
// Visit strings alias a larger buffer, as ingest's query values alias
// the request line, interns them before the call.
func Intern(s string) string { return unique.Make(s).Value() }

// StageInto appends the visit's records to a store batch, so a whole
// visit commits under a single shard lock (all records share the
// domain).
func (r *Result) StageInto(b *store.Batch) {
	b.AddPage(r.Page)
	for _, l := range r.Locals {
		b.AddLocal(l)
	}
}

// Commit writes the visit directly to a store in one sharded batch.
func (r *Result) Commit(st *store.Store) {
	var b store.Batch
	r.StageInto(&b)
	st.AddBatch(&b)
}

// Classify assigns the behavior verdict for one site's (or visit's)
// requests in a destination class, corroborating fraud-detection
// verdicts via WHOIS when a registry is supplied. This helper is the
// single classification call site of the codebase: every consumer —
// index builds, live ingest, the query engine, the examples — funnels
// through it.
func Classify(dest string, reqs []store.LocalRequest, registry *whois.Registry) classify.Verdict {
	var v classify.Verdict
	if dest == "lan" {
		v = classify.LANSite(reqs)
	} else {
		v = classify.Site(reqs)
	}
	if registry != nil {
		v = classify.Corroborate(v, reqs, registry)
	}
	return v
}
