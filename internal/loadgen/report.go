package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/knockandtalk/knockandtalk/internal/telemetry"
)

// EndpointStats is one endpoint's latency distribution for one run:
// interpolated quantiles over the telemetry log-scale histogram of
// successful responses, plus error tallies. Naive quantiles (measured
// from the actual send instead of the intended arrival) are present in
// open-loop results only; the gap between the two is the latency
// coordinated omission would have hidden.
type EndpointStats struct {
	Requests   uint64 `json:"requests"`
	Errors     uint64 `json:"errors,omitempty"`
	Rejected   uint64 `json:"rejected_429,omitempty"`
	MeanNS     uint64 `json:"mean_ns"`
	P50NS      uint64 `json:"p50_ns"`
	P90NS      uint64 `json:"p90_ns"`
	P99NS      uint64 `json:"p99_ns"`
	P999NS     uint64 `json:"p999_ns"`
	NaiveP50NS uint64 `json:"naive_p50_ns,omitempty"`
	NaiveP99NS uint64 `json:"naive_p99_ns,omitempty"`
}

// Result is one load run: totals, achieved throughput, and the
// per-endpoint plus merged-overall latency distributions.
type Result struct {
	Mode            string                   `json:"mode"` // closed | open
	Workers         int                      `json:"workers"`
	OfferedRate     float64                  `json:"offered_rate_per_sec,omitempty"`
	DurationSeconds float64                  `json:"duration_seconds"`
	Requests        uint64                   `json:"requests"`
	Errors          uint64                   `json:"errors"`
	Rejected        uint64                   `json:"rejected_429"`
	Throughput      float64                  `json:"throughput_per_sec"`
	Overall         EndpointStats            `json:"overall"`
	Endpoints       map[string]EndpointStats `json:"endpoints"`
}

// SweepPoint is one step of the throughput–latency curve: the offered
// open-loop rate against what the server actually absorbed and the
// coordinated-omission-corrected tail it imposed doing so.
type SweepPoint struct {
	OfferedRate float64 `json:"offered_rate_per_sec"`
	Throughput  float64 `json:"throughput_per_sec"`
	P50NS       uint64  `json:"p50_ns"`
	P99NS       uint64  `json:"p99_ns"`
	Errors      uint64  `json:"errors"`
	Rejected    uint64  `json:"rejected_429"`
}

// result condenses one run's registry into a Result.
func (rn *run) result(wall time.Duration, workers int, offered float64) *Result {
	res := &Result{
		Mode:            rn.mode,
		Workers:         workers,
		OfferedRate:     offered,
		DurationSeconds: wall.Seconds(),
		Endpoints:       make(map[string]EndpointStats, len(rn.r.eps)),
	}
	open := rn.mode == "open"
	var overall, overallNaive telemetry.HistogramSnapshot
	for i, ep := range rn.r.eps {
		m := &rn.eps[i]
		lat, naive := m.lat.Snapshot(), m.naive.Snapshot()
		st := statsFrom(lat)
		st.Requests = m.reqs.Value()
		for _, kind := range []string{"network", "request", "http_4xx", "http_5xx"} {
			st.Errors += rn.reg.CounterValue(MetricErrors, "endpoint", ep.Name, "kind", kind)
		}
		st.Rejected = m.rejected.Value()
		if open {
			st.NaiveP50NS = naive.Quantile(0.50)
			st.NaiveP99NS = naive.Quantile(0.99)
		}
		res.Endpoints[ep.Name] = st
		res.Requests += st.Requests
		res.Errors += st.Errors
		res.Rejected += st.Rejected
		overall = overall.Merge(lat)
		overallNaive = overallNaive.Merge(naive)
	}
	res.Overall = statsFrom(overall)
	res.Overall.Requests = res.Requests
	res.Overall.Errors = res.Errors
	res.Overall.Rejected = res.Rejected
	if open {
		res.Overall.NaiveP50NS = overallNaive.Quantile(0.50)
		res.Overall.NaiveP99NS = overallNaive.Quantile(0.99)
	}
	if wall > 0 {
		res.Throughput = float64(res.Requests) / wall.Seconds()
	}
	return res
}

func statsFrom(h telemetry.HistogramSnapshot) EndpointStats {
	st := EndpointStats{
		P50NS:  h.Quantile(0.50),
		P90NS:  h.Quantile(0.90),
		P99NS:  h.Quantile(0.99),
		P999NS: h.Quantile(0.999),
	}
	if h.Count > 0 {
		st.MeanNS = h.Sum / h.Count
	}
	return st
}

// ServerStats is the server-observed half of the comparison: one query
// endpoint's serve_query_ns distribution as scraped from knockserved's
// Prometheus /metrics after the run.
type ServerStats struct {
	Requests uint64            `json:"requests"`
	Cache    map[string]uint64 `json:"cache,omitempty"`
	P50NS    uint64            `json:"p50_ns"`
	P99NS    uint64            `json:"p99_ns"`
}

// SLO is the CI gate's verdict over a bench.
type SLO struct {
	P99NS    uint64 `json:"p99_ns"` // the target
	Pass     bool   `json:"pass"`
	WorstEP  string `json:"worst_endpoint,omitempty"`
	WorstNS  uint64 `json:"worst_p99_ns,omitempty"`
	WorstRun string `json:"worst_mode,omitempty"`
}

// Bench is the whole harness report — the BENCH_load.json shape. Every
// run that executed is present; the build identity ties the numbers to
// a binary so per-PR trajectories are attributable.
type Bench struct {
	BaseURL   string                 `json:"base_url"`
	Version   string                 `json:"version"`
	GoVersion string                 `json:"go_version"`
	Closed    *Result                `json:"closed,omitempty"`
	Open      *Result                `json:"open,omitempty"`
	Sweep     []SweepPoint           `json:"sweep,omitempty"`
	Server    map[string]ServerStats `json:"server,omitempty"`
	SLO       *SLO                   `json:"slo,omitempty"`
}

// Gate evaluates the SLO over the headline runs (closed and open —
// the sweep is a capacity probe and deliberately exempt): every
// endpoint's corrected p99 must be at or under slo. The verdict is
// recorded on the bench and returned.
func (b *Bench) Gate(slo time.Duration) *SLO {
	v := &SLO{P99NS: uint64(slo), Pass: true}
	for _, res := range []*Result{b.Closed, b.Open} {
		if res == nil {
			continue
		}
		for name, st := range res.Endpoints {
			if st.Requests == 0 {
				continue
			}
			if st.P99NS > v.WorstNS {
				v.WorstNS, v.WorstEP, v.WorstRun = st.P99NS, name, res.Mode
			}
			if st.P99NS > uint64(slo) {
				v.Pass = false
			}
		}
	}
	b.SLO = v
	return v
}

// WriteJSON writes the bench as indented JSON (BENCH_load.json).
func (b *Bench) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// WriteText renders the bench as the human table: one block per run
// with per-endpoint quantile rows (knocktrace-style), the sweep curve,
// the server-observed comparison, and the SLO verdict.
func (b *Bench) WriteText(w io.Writer) {
	fmt.Fprintf(w, "knockload — %s (version %s, %s)\n", b.BaseURL, b.Version, b.GoVersion)
	writeRun(w, b.Closed)
	writeRun(w, b.Open)
	if len(b.Sweep) > 0 {
		fmt.Fprintf(w, "\nthroughput–latency sweep (open-loop)\n")
		fmt.Fprintf(w, "%10s %10s %10s %10s %8s %6s\n", "rate", "achieved", "p50", "p99", "errors", "429")
		for _, p := range b.Sweep {
			fmt.Fprintf(w, "%10.1f %10.1f %10s %10s %8d %6d\n",
				p.OfferedRate, p.Throughput, fmtNS(p.P50NS), fmtNS(p.P99NS), p.Errors, p.Rejected)
		}
	}
	if len(b.Server) > 0 {
		fmt.Fprintf(w, "\nserver-observed (serve_query_ns via /metrics)\n")
		fmt.Fprintf(w, "%-22s %9s %6s %10s %10s\n", "endpoint", "reqs", "hit%", "p50", "p99")
		for _, name := range sortedStatKeys(b.Server) {
			st := b.Server[name]
			var hits uint64
			for outcome, n := range st.Cache {
				if outcome == "hit" || outcome == "revalidated" {
					hits += n
				}
			}
			hitRate := 0.0
			if st.Requests > 0 {
				hitRate = 100 * float64(hits) / float64(st.Requests)
			}
			fmt.Fprintf(w, "%-22s %9d %5.1f%% %10s %10s\n",
				name, st.Requests, hitRate, fmtNS(st.P50NS), fmtNS(st.P99NS))
		}
	}
	if b.SLO != nil {
		verdict := "PASS"
		if !b.SLO.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "\nSLO: p99 <= %s — %s (worst %s %s in %s mode)\n",
			fmtNS(b.SLO.P99NS), verdict, b.SLO.WorstEP, fmtNS(b.SLO.WorstNS), b.SLO.WorstRun)
	}
}

func writeRun(w io.Writer, res *Result) {
	if res == nil {
		return
	}
	fmt.Fprintf(w, "\n%s-loop", res.Mode)
	if res.OfferedRate > 0 {
		fmt.Fprintf(w, "  rate=%.1f/s", res.OfferedRate)
	}
	fmt.Fprintf(w, "  workers=%d  duration=%.1fs  requests=%d  throughput=%.1f/s  errors=%d  429=%d\n",
		res.Workers, res.DurationSeconds, res.Requests, res.Throughput, res.Errors, res.Rejected)
	naive := res.Mode == "open"
	header := fmt.Sprintf("%-22s %9s %6s %6s %10s %10s %10s %10s", "endpoint", "reqs", "errs", "429", "p50", "p90", "p99", "p99.9")
	if naive {
		header += fmt.Sprintf(" %10s", "naive-p99")
	}
	fmt.Fprintln(w, header)
	names := make([]string, 0, len(res.Endpoints))
	for name := range res.Endpoints {
		names = append(names, name)
	}
	sort.Strings(names)
	names = append(names, "overall")
	for _, name := range names {
		st, ok := res.Endpoints[name]
		if name == "overall" {
			st, ok = res.Overall, true
		}
		if !ok || st.Requests == 0 {
			continue
		}
		row := fmt.Sprintf("%-22s %9d %6d %6d %10s %10s %10s %10s",
			name, st.Requests, st.Errors, st.Rejected,
			fmtNS(st.P50NS), fmtNS(st.P90NS), fmtNS(st.P99NS), fmtNS(st.P999NS))
		if naive {
			row += fmt.Sprintf(" %10s", fmtNS(st.NaiveP99NS))
		}
		fmt.Fprintln(w, row)
	}
}

func sortedStatKeys(m map[string]ServerStats) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// fmtNS renders nanoseconds the way knocktrace does: the coarsest unit
// that keeps one decimal of precision.
func fmtNS(ns uint64) string {
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	case d >= time.Microsecond:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
