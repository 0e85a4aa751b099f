// Command knockreport regenerates the paper's tables and figures from
// stored crawl telemetry.
//
// Usage:
//
//	knockreport -in 2020.jsonl,2021.jsonl,mal.jsonl
//	knockreport -in crawl.jsonl -only table1,figure2
//	knockreport -in run/top100k-2020.jsonl -manifest run   # + crawl-ops section
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"

	"github.com/knockandtalk/knockandtalk/internal/campaign"
	"github.com/knockandtalk/knockandtalk/internal/fleet"
	"github.com/knockandtalk/knockandtalk/internal/health"
	"github.com/knockandtalk/knockandtalk/internal/pipeline"
	"github.com/knockandtalk/knockandtalk/internal/report"
	"github.com/knockandtalk/knockandtalk/internal/store"
	"github.com/knockandtalk/knockandtalk/internal/telemetry"
)

var logger *slog.Logger

func main() {
	var (
		in       = flag.String("in", "", "comma-separated JSONL store paths")
		only     = flag.String("only", "", "comma-separated subset (table1..table11, figure2..figure9, headline, longitudinal, skew, pna)")
		csvDir   = flag.String("csvdir", "", "also write figure series as CSV files into this directory")
		manifest = flag.String("manifest", "", "campaign directory whose manifest.json adds the crawl-operations section (retention errors, resume skips)")
		logFmt   = flag.String("log-format", "text", "diagnostic log format: text or json")
	)
	flag.Parse()
	telemetry.RegisterBuildInfo(nil)

	var err error
	logger, err = health.NewLogger(*logFmt, "knockreport")
	if err != nil {
		fmt.Fprintf(os.Stderr, "knockreport: %v\n", err)
		os.Exit(1)
	}
	if *in == "" {
		fatal("-in is required")
	}
	st := store.New()
	var paths []string
	for _, path := range strings.Split(*in, ",") {
		paths = append(paths, strings.TrimSpace(path))
	}
	if err := st.LoadFiles(paths...); err != nil {
		fatal("loading stores", "err", err)
	}

	// The report machinery registers a shared site index for the store;
	// release it once every section has rendered.
	defer pipeline.ReleaseIndex(st)
	w := bufio.NewWriter(os.Stdout)
	report.WriteAll(w, st, report.ParseSections(*only))
	if *manifest != "" {
		// fleet.LoadManifest reads both manifest kinds: a plain campaign
		// manifest parses with a nil Fleet section.
		m, err := fleet.LoadManifest(*manifest)
		if err != nil {
			w.Flush()
			fatal("loading manifest", "dir", *manifest, "err", err)
		}
		writeOperations(w, &m.Manifest)
		if m.Fleet != nil {
			writeFleet(w, m.Fleet)
		}
	}
	w.Flush()

	if *csvDir != "" {
		writeCSVs(st, *csvDir)
	}
}

// writeOperations renders the crawl-operations section from a campaign
// manifest: the telemetry gaps (NetLog retention errors) and resume
// skips the store itself cannot show, because failed retentions leave
// no record behind.
func writeOperations(w io.Writer, m *campaign.Manifest) {
	fmt.Fprintf(w, "\n== Crawl operations (campaign %q) ==\n", m.Name)
	fmt.Fprintf(w, "%-14s %-8s %-22s %9s %10s %15s %13s\n",
		"crawl", "os", "profile", "attempted", "failed", "retention-errs", "resume-skips")
	var totalAttempted, totalRetention, totalResumed int
	for _, e := range m.Entries {
		profile := e.NetProfile
		if profile == "" {
			profile = "nominal"
		}
		fmt.Fprintf(w, "%-14s %-8s %-22s %9d %10d %15d %13d\n",
			e.Crawl, e.OS, profile, e.Attempted, e.Failed, e.RetentionErrors, e.AlreadyDone)
		totalAttempted += e.Attempted
		totalRetention += e.RetentionErrors
		totalResumed += e.AlreadyDone
	}
	if totalAttempted > 0 {
		fmt.Fprintf(w, "retention errors: %d across %d attempted visits (%.3f%%)\n",
			totalRetention, totalAttempted, 100*float64(totalRetention)/float64(totalAttempted))
	}
	if totalResumed > 0 {
		fmt.Fprintf(w, "resume skips: %d targets already held by a prior run\n", totalResumed)
	}
}

// writeFleet renders the distribution record of a fleet campaign: which
// worker completed each lease, how often leases were reassigned after
// TTL deaths, and how long shard uploads took.
func writeFleet(w io.Writer, f *fleet.Info) {
	fmt.Fprintf(w, "\n== Fleet distribution ==\n")
	fmt.Fprintf(w, "workers: %s\n", strings.Join(f.Workers, ", "))
	fmt.Fprintf(w, "lease size: %d targets, ttl: %.0fs\n", f.LeaseTargets, f.TTLSeconds)
	if f.Expiries > 0 || f.Reassignments > 0 {
		fmt.Fprintf(w, "failures: %d lease expiries, %d reassignments, %d duplicate visits deduped\n",
			f.Expiries, f.Reassignments, f.DuplicateVisits)
	}
	fmt.Fprintf(w, "%-22s %-14s %-8s %8s %-26s %-14s %7s %9s\n",
		"lease", "crawl", "os", "targets", "range", "worker", "reassign", "upload")
	var uploadMS float64
	for _, l := range f.Leases {
		rng := l.FirstDomain
		if l.LastDomain != l.FirstDomain {
			rng += ".." + l.LastDomain
		}
		if len(rng) > 26 {
			rng = rng[:23] + "..."
		}
		fmt.Fprintf(w, "%-22s %-14s %-8s %8d %-26s %-14s %7d %8.0fms\n",
			l.ID, l.Crawl, l.OS, l.Targets, rng, l.Worker, l.Reassignments, l.UploadMS)
		uploadMS += l.UploadMS
	}
	if n := len(f.Leases); n > 0 {
		fmt.Fprintf(w, "uploads: %.0fms total, %.1fms mean across %d leases\n",
			uploadMS, uploadMS/float64(n), n)
	}
}

func writeCSVs(st *store.Store, dir string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal("creating csv dir", "dir", dir, "err", err)
	}
	files := report.CSVSeries(st)
	for name, body := range files {
		if err := os.WriteFile(dir+"/"+name, []byte(body), 0o644); err != nil {
			fatal("writing csv", "name", name, "err", err)
		}
	}
	fmt.Fprintf(os.Stderr, "wrote %d CSV series to %s\n", len(files), dir)
}

func fatal(msg string, args ...any) {
	logger.Error(msg, args...)
	os.Exit(1)
}
