// Command knocktrace inspects per-visit trace files (the JSONL span
// records knockcrawl, knockcampaign, and knockserved emit with
// -trace-out): per-stage latency summaries, slowest-visit rankings,
// per-visit waterfalls, and per-OS / per-crawl rollups.
//
// Usage:
//
//	knocktrace crawl.trace.jsonl                 # stage summary
//	knocktrace -json crawl.trace.jsonl           # same aggregation, machine-readable
//	knocktrace -top 10 crawl.trace.jsonl         # slowest visits
//	knocktrace -waterfall ebay.com crawl.trace.jsonl
//	knocktrace -by os crawl.trace.jsonl          # per-OS rollup
//	knocktrace -busy crawl.trace.jsonl           # per-stage busy seconds
//
// Trace files gzip-compress transparently (any .gz argument), and
// multiple files assemble into cross-process trees by trace ID:
//
//	knocktrace -assemble coord.trace.jsonl worker-a.trace.jsonl worker-b.trace.jsonl
//	knocktrace -assemble -waterfall top100k-2020/L/0000 coord.trace.jsonl worker-*.jsonl
//	knocktrace -trace 4bf92f35 coord.trace.jsonl worker-*.jsonl   # one causal chain, by ID prefix
//
// The -busy output renders busy seconds from the same nanosecond totals
// knockserved's /metrics reports as pipeline_stage_busy_ns, so the two
// agree exactly for identical work.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/knockandtalk/knockandtalk/internal/health"
	"github.com/knockandtalk/knockandtalk/internal/telemetry"
)

var logger, _ = health.LoggerTo(os.Stderr, "text", "knocktrace")

func main() {
	var (
		top       = flag.Int("top", 0, "print the K slowest visits instead of the stage summary")
		waterfall = flag.String("waterfall", "", "print span waterfalls for every visit of this domain")
		by        = flag.String("by", "", "roll up per group: os or crawl")
		busy      = flag.Bool("busy", false, "print per-stage busy seconds (the /metrics agreement surface)")
		asJSON    = flag.Bool("json", false, "print the stage summary and rollups as JSON (same aggregation as the text views)")
		assemble  = flag.Bool("assemble", false, "merge all input files into cross-process trace trees by trace ID and print them")
		traceID   = flag.String("trace", "", "print one trace's causal chain with span detail, by trace ID (unambiguous hex prefixes work)")
	)
	flag.Parse()
	telemetry.RegisterBuildInfo(nil)
	if flag.NArg() == 0 {
		fatalf("usage: knocktrace [flags] trace.jsonl [more.jsonl...]")
	}
	visits, err := telemetry.ReadTraceFiles(flag.Args()...)
	if err != nil {
		fatalf("%v", err)
	}
	if len(visits) == 0 {
		fatalf("no trace records in %s", strings.Join(flag.Args(), ", "))
	}

	w := os.Stdout
	switch {
	case *traceID != "":
		t, ok := telemetry.FindTrace(telemetry.AssembleTraces(visits), *traceID)
		if !ok {
			fatalf("trace %q: not found, or the prefix is ambiguous", *traceID)
		}
		printTree(w, t, true)
	case *assemble && *waterfall != "":
		if !printTreeWaterfalls(w, telemetry.AssembleTraces(visits), *waterfall) {
			fatalf("no assembled trace contains records of %q", *waterfall)
		}
	case *assemble:
		trees := telemetry.AssembleTraces(visits)
		if len(trees) == 0 {
			fatalf("no traced records in %s (records predate trace IDs?)", strings.Join(flag.Args(), ", "))
		}
		for _, t := range trees {
			printTree(w, t, false)
		}
	case *asJSON:
		// The JSON view is the exact same Summarize aggregation the text
		// views print — telemetry.TraceSummary.JSON keeps them in sync.
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(telemetry.Summarize(visits).JSON()); err != nil {
			fatalf("%v", err)
		}
	case *busy:
		printBusy(w, visits)
	case *top > 0:
		printSlowest(w, visits, *top)
	case *waterfall != "":
		if !printWaterfalls(w, visits, *waterfall) {
			fatalf("no visits of domain %q in the trace", *waterfall)
		}
	case *by != "":
		if *by != "os" && *by != "crawl" {
			fatalf("-by wants os or crawl, got %q", *by)
		}
		printGroups(w, visits, *by)
	default:
		printSummary(w, visits)
	}
}

// printSummary renders the default view: headline totals plus one row
// per stage with run/item counts, busy time, and latency quantiles
// from the log-scale histogram.
func printSummary(w io.Writer, visits []telemetry.VisitRecord) {
	s := telemetry.Summarize(visits)
	fmt.Fprintf(w, "%d visits (%d failed), %d events, %d findings, wall %v\n",
		s.Visits, s.Failed, s.Events, s.Findings, time.Duration(s.WallNS).Round(time.Millisecond))
	if len(s.Outcomes) > 1 {
		for _, o := range sortedKeys(s.Outcomes) {
			if o != "ok" {
				fmt.Fprintf(w, "  %-32s %d\n", o, s.Outcomes[o])
			}
		}
	}
	fmt.Fprintf(w, "%-10s %7s %9s %12s %10s %10s %10s\n",
		"stage", "runs", "items", "busy", "p50", "p90", "p99")
	for _, name := range s.StageNames() {
		st := s.Stages[name]
		h := st.Hist.Snapshot()
		fmt.Fprintf(w, "%-10s %7d %9d %12s %10s %10s %10s\n",
			name, st.Runs, st.Items, fmtNS(st.BusyNS),
			fmtNS(int64(h.Quantile(0.50))), fmtNS(int64(h.Quantile(0.90))), fmtNS(int64(h.Quantile(0.99))))
	}
}

// printBusy renders per-stage busy seconds, converted from the same
// nanosecond totals a process's Prometheus /metrics carries as
// pipeline_stage_busy_ns, so a trace file reproduces the serving
// layer's busy time exactly.
func printBusy(w io.Writer, visits []telemetry.VisitRecord) {
	s := telemetry.Summarize(visits)
	busy := s.BusySeconds()
	for _, name := range s.StageNames() {
		fmt.Fprintf(w, "%-10s %.9f\n", name, busy[name])
	}
}

// printSlowest renders the K slowest visits, slowest first.
func printSlowest(w io.Writer, visits []telemetry.VisitRecord, k int) {
	for _, v := range telemetry.SlowestVisits(visits, k) {
		fmt.Fprintf(w, "%12s  %-24s %-8s %-14s rank=%-6d events=%-5d %s\n",
			fmtNS(v.DurNS), v.Domain, v.OS, v.Crawl, v.Rank, v.Events, v.Outcome)
	}
}

// printWaterfalls renders every visit of one domain as a span
// waterfall: offset, duration, a proportional bar, and item counts.
func printWaterfalls(w io.Writer, visits []telemetry.VisitRecord, domain string) bool {
	const barWidth = 40
	found := false
	for _, v := range visits {
		if v.Domain != domain {
			continue
		}
		found = true
		fmt.Fprintf(w, "%s %s %s rank=%d events=%d outcome=%s total=%s\n",
			v.Domain, v.OS, v.Crawl, v.Rank, v.Events, v.Outcome, fmtNS(v.DurNS))
		total := v.DurNS
		if total <= 0 {
			total = 1
		}
		for _, sp := range v.Spans {
			startCol := int(sp.StartNS * barWidth / total)
			width := int(sp.DurNS * barWidth / total)
			if width < 1 {
				width = 1
			}
			if startCol > barWidth-1 {
				startCol = barWidth - 1
			}
			if startCol+width > barWidth {
				width = barWidth - startCol
			}
			bar := strings.Repeat(" ", startCol) + strings.Repeat("█", width)
			line := fmt.Sprintf("  %-10s %10s +%-10s |%-*s| items=%d",
				sp.Name, fmtNS(sp.DurNS), fmtNS(sp.StartNS), barWidth, bar, sp.Items)
			if sp.Err != "" {
				line += " err=" + sp.Err
			}
			fmt.Fprintln(w, line)
		}
	}
	return found
}

// printTree renders one assembled cross-process trace: a stable header
// line (records=, processes= — greppable by CI), the contributing
// source files, and the span tree with per-node process attribution.
// detail additionally prints each record's inner spans — the full
// causal chain -trace asks for.
func printTree(w io.Writer, t *telemetry.TraceTree, detail bool) {
	fmt.Fprintf(w, "trace %s: records=%d processes=%d wall=%s\n",
		t.ID, t.Records, t.Processes(), fmtNS(t.WallNS()))
	for _, src := range t.Sources {
		fmt.Fprintf(w, "  source %s\n", src)
	}
	for _, n := range t.Roots {
		printNode(w, n, t.StartUS, 1, detail)
	}
}

// printNode renders one trace node and recurses into its children.
func printNode(w io.Writer, n *telemetry.TraceNode, baseUS int64, depth int, detail bool) {
	v := n.Rec
	op := "visit"
	if len(v.Spans) > 0 {
		op = v.Spans[0].Name
	}
	line := fmt.Sprintf("%s└─ %-8s %-28s", strings.Repeat("  ", depth), op, v.Domain)
	line += fmt.Sprintf(" +%-9s %-9s %s", fmtNS((v.StartUS-baseUS)*1000), fmtNS(v.DurNS), v.Outcome)
	if v.Source != "" {
		line += "  src=" + v.Source
	}
	if len(v.SpanID) >= 8 {
		line += "  span=" + v.SpanID[:8]
	}
	if n.Orphan {
		line += "  [orphan: parent span not in any input]"
	}
	fmt.Fprintln(w, line)
	if detail {
		for _, sp := range v.Spans {
			fmt.Fprintf(w, "%s   · %-10s %10s +%-10s items=%d\n",
				strings.Repeat("  ", depth), sp.Name, fmtNS(sp.DurNS), fmtNS(sp.StartNS), sp.Items)
		}
	}
	for _, c := range n.Children {
		printNode(w, c, baseUS, depth+1, detail)
	}
}

// printTreeWaterfalls renders a fleet-wide waterfall for every
// assembled trace containing records of one domain (a site, or a lease
// ID for control-plane traces): every record of the trace — whichever
// process emitted it — on a shared time axis from the tree's start.
func printTreeWaterfalls(w io.Writer, trees []*telemetry.TraceTree, domain string) bool {
	const barWidth = 60
	found := false
	for _, t := range trees {
		has := false
		walkTree(t, func(n *telemetry.TraceNode) { has = has || n.Rec.Domain == domain })
		if !has {
			continue
		}
		found = true
		fmt.Fprintf(w, "trace %s: records=%d processes=%d wall=%s\n",
			t.ID, t.Records, t.Processes(), fmtNS(t.WallNS()))
		total := t.WallNS()
		if total <= 0 {
			total = 1
		}
		walkTree(t, func(n *telemetry.TraceNode) {
			v := n.Rec
			op := "visit"
			if len(v.Spans) > 0 {
				op = v.Spans[0].Name
			}
			startNS := (v.StartUS - t.StartUS) * 1000
			startCol := int(startNS * barWidth / total)
			width := int(v.DurNS * barWidth / total)
			if width < 1 {
				width = 1
			}
			if startCol > barWidth-1 {
				startCol = barWidth - 1
			}
			if startCol+width > barWidth {
				width = barWidth - startCol
			}
			bar := strings.Repeat(" ", startCol) + strings.Repeat("█", width)
			fmt.Fprintf(w, "  %-8s %-28s %10s +%-10s |%-*s| %s\n",
				op, v.Domain, fmtNS(v.DurNS), fmtNS(startNS), barWidth, bar, v.Source)
		})
	}
	return found
}

// walkTree visits every node of the tree, parents before children.
func walkTree(t *telemetry.TraceTree, fn func(*telemetry.TraceNode)) {
	var rec func(n *telemetry.TraceNode)
	rec = func(n *telemetry.TraceNode) {
		fn(n)
		for _, c := range n.Children {
			rec(c)
		}
	}
	for _, r := range t.Roots {
		rec(r)
	}
}

// printGroups renders the per-OS or per-crawl rollup.
func printGroups(w io.Writer, visits []telemetry.VisitRecord, by string) {
	s := telemetry.Summarize(visits)
	groups := s.ByOS
	if by == "crawl" {
		groups = s.ByCrawl
	}
	fmt.Fprintf(w, "%-16s %7s %7s %9s %9s %12s\n", by, "visits", "failed", "events", "findings", "wall")
	names := make([]string, 0, len(groups))
	for name := range groups {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g := groups[name]
		fmt.Fprintf(w, "%-16s %7d %7d %9d %9d %12s\n",
			name, g.Visits, g.Failed, g.Events, g.Findings, fmtNS(g.WallNS))
	}
}

// fmtNS renders nanoseconds human-readably with millisecond-or-better
// precision, stable for column alignment.
func fmtNS(ns int64) string {
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

func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func fatalf(format string, args ...any) {
	logger.Error(fmt.Sprintf(format, args...))
	os.Exit(1)
}
