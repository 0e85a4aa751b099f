package telemetry

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// ReadTraces parses a JSONL trace stream. Malformed lines fail with
// their line number, matching the netlog reader's contract.
func ReadTraces(r io.Reader) ([]VisitRecord, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	var out []VisitRecord
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec VisitRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("telemetry: trace line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: reading traces: %w", err)
	}
	return out, nil
}

// ReadTraceFiles reads and concatenates one or more trace files,
// tagging each record's Source with the file it came from (the
// provenance cross-process assembly attributes spans by). Files ending
// in .gz are transparently gunzipped, matching the gzip shard-upload
// path workers use.
func ReadTraceFiles(paths ...string) ([]VisitRecord, error) {
	var out []VisitRecord
	for _, path := range paths {
		recs, err := readTraceFile(path)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for i := range recs {
			recs[i].Source = path
		}
		out = append(out, recs...)
	}
	return out, nil
}

func readTraceFile(path string) ([]VisitRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return nil, err
		}
		defer gz.Close()
		r = gz
	}
	return ReadTraces(r)
}

// StageStats aggregates every span of one name across a trace.
type StageStats struct {
	Runs   uint64
	Items  uint64
	BusyNS int64
	// Hist holds the span durations in the registry's log-scale
	// buckets, so knocktrace prints the same histogram shape /metrics
	// histograms carry.
	Hist Histogram
}

// BusySeconds converts the stage's accumulated nanoseconds, the same
// total pipeline_stage_busy_ns counts for identical work, to seconds.
func (s *StageStats) BusySeconds() float64 {
	return time.Duration(s.BusyNS).Seconds()
}

// GroupStats aggregates whole visits sharing one group key (an OS or a
// crawl).
type GroupStats struct {
	Visits   int
	Failed   int
	WallNS   int64
	Events   int
	Findings int
}

// TraceSummary is the aggregate view of a trace file.
type TraceSummary struct {
	Visits   int
	Failed   int
	WallNS   int64
	Events   int
	Findings int
	Outcomes map[string]int
	Stages   map[string]*StageStats
	ByOS     map[string]*GroupStats
	ByCrawl  map[string]*GroupStats
}

// Summarize aggregates visit records: per-stage run/item/busy totals
// and latency histograms, plus per-OS and per-crawl rollups.
func Summarize(visits []VisitRecord) *TraceSummary {
	sum := &TraceSummary{
		Outcomes: map[string]int{},
		Stages:   map[string]*StageStats{},
		ByOS:     map[string]*GroupStats{},
		ByCrawl:  map[string]*GroupStats{},
	}
	group := func(m map[string]*GroupStats, key string) *GroupStats {
		g := m[key]
		if g == nil {
			g = &GroupStats{}
			m[key] = g
		}
		return g
	}
	for i := range visits {
		v := &visits[i]
		sum.Visits++
		sum.WallNS += v.DurNS
		sum.Events += v.Events
		sum.Outcomes[v.Outcome]++
		failed := v.Outcome != "ok"
		if failed {
			sum.Failed++
		}
		findings := 0
		for _, sp := range v.Spans {
			st := sum.Stages[sp.Name]
			if st == nil {
				st = &StageStats{}
				sum.Stages[sp.Name] = st
			}
			st.Runs++
			st.Items += uint64(sp.Items)
			st.BusyNS += sp.DurNS
			st.Hist.Observe(uint64(max64(sp.DurNS, 0)))
			if sp.Name == "detect" {
				findings += sp.Items
			}
		}
		sum.Findings += findings
		for _, g := range []*GroupStats{group(sum.ByOS, v.OS), group(sum.ByCrawl, v.Crawl)} {
			g.Visits++
			g.WallNS += v.DurNS
			g.Events += v.Events
			g.Findings += findings
			if failed {
				g.Failed++
			}
		}
	}
	return sum
}

// BusySeconds renders per-stage busy time in seconds, keyed by stage
// name — the trace-side counterpart of pipeline_stage_busy_ns.
func (s *TraceSummary) BusySeconds() map[string]float64 {
	out := make(map[string]float64, len(s.Stages))
	for name, st := range s.Stages {
		out[name] = st.BusySeconds()
	}
	return out
}

// StageNames returns the summary's stage names in canonical pipeline
// order (visit, detect, infer, classify, netlog, commit), with unknown
// names appended alphabetically.
func (s *TraceSummary) StageNames() []string {
	order := map[string]int{
		"visit": 0, "parse": 1, "detect": 2, "infer": 3,
		"classify": 4, "netlog": 5, "commit": 6,
	}
	names := make([]string, 0, len(s.Stages))
	for name := range s.Stages {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		oi, iok := order[names[i]]
		oj, jok := order[names[j]]
		switch {
		case iok && jok:
			return oi < oj
		case iok:
			return true
		case jok:
			return false
		default:
			return names[i] < names[j]
		}
	})
	return names
}

// TraceSummaryJSON is the machine-readable form of a trace summary —
// the knocktrace -json payload CI trend checks and dashboards consume.
// It is rendered from the same Summarize aggregation the text views
// print, so the two can never drift.
type TraceSummaryJSON struct {
	Visits      int                  `json:"visits"`
	Failed      int                  `json:"failed,omitempty"`
	Events      int                  `json:"events,omitempty"`
	Findings    int                  `json:"findings,omitempty"`
	WallSeconds float64              `json:"wall_seconds"`
	Outcomes    map[string]int       `json:"outcomes,omitempty"`
	Stages      []StageJSON          `json:"stages,omitempty"`
	ByOS        map[string]GroupJSON `json:"by_os,omitempty"`
	ByCrawl     map[string]GroupJSON `json:"by_crawl,omitempty"`
}

// StageJSON is one stage row: totals plus latency quantile bounds from
// the log-scale histogram.
type StageJSON struct {
	Stage       string  `json:"stage"`
	Runs        uint64  `json:"runs"`
	Items       uint64  `json:"items,omitempty"`
	BusySeconds float64 `json:"busy_seconds"`
	P50NS       uint64  `json:"p50_ns"`
	P90NS       uint64  `json:"p90_ns"`
	P99NS       uint64  `json:"p99_ns"`
}

// GroupJSON is one per-OS or per-crawl rollup row.
type GroupJSON struct {
	Visits      int     `json:"visits"`
	Failed      int     `json:"failed,omitempty"`
	Events      int     `json:"events,omitempty"`
	Findings    int     `json:"findings,omitempty"`
	WallSeconds float64 `json:"wall_seconds"`
}

// JSON renders the summary in its wire form: stages in canonical
// pipeline order, busy seconds converted exactly as the text views
// convert them.
func (s *TraceSummary) JSON() TraceSummaryJSON {
	out := TraceSummaryJSON{
		Visits:      s.Visits,
		Failed:      s.Failed,
		Events:      s.Events,
		Findings:    s.Findings,
		WallSeconds: time.Duration(s.WallNS).Seconds(),
		Outcomes:    s.Outcomes,
	}
	for _, name := range s.StageNames() {
		st := s.Stages[name]
		h := st.Hist.Snapshot()
		out.Stages = append(out.Stages, StageJSON{
			Stage:       name,
			Runs:        st.Runs,
			Items:       st.Items,
			BusySeconds: st.BusySeconds(),
			P50NS:       h.Quantile(0.50),
			P90NS:       h.Quantile(0.90),
			P99NS:       h.Quantile(0.99),
		})
	}
	group := func(m map[string]*GroupStats) map[string]GroupJSON {
		if len(m) == 0 {
			return nil
		}
		out := make(map[string]GroupJSON, len(m))
		for name, g := range m {
			out[name] = GroupJSON{
				Visits: g.Visits, Failed: g.Failed, Events: g.Events,
				Findings: g.Findings, WallSeconds: time.Duration(g.WallNS).Seconds(),
			}
		}
		return out
	}
	out.ByOS = group(s.ByOS)
	out.ByCrawl = group(s.ByCrawl)
	return out
}

// SlowestVisits returns the k visits with the largest wall time,
// slowest first (ties broken by domain for stable output).
func SlowestVisits(visits []VisitRecord, k int) []VisitRecord {
	out := make([]VisitRecord, len(visits))
	copy(out, visits)
	sort.Slice(out, func(i, j int) bool {
		if out[i].DurNS != out[j].DurNS {
			return out[i].DurNS > out[j].DurNS
		}
		return out[i].Domain < out[j].Domain
	})
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
