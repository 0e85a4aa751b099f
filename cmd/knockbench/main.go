// Command knockbench is the repository's benchmark: one seeded command
// that measures the system end to end on five workloads and splits each
// result by layer, using only the packages' public entry points, timed
// from outside.
//
// Usage:
//
//	knockbench [-seed 20210603] [-json runs.jsonl]
//	knockbench -workload crawl [-seed 7] [-seconds 15] [-trace 0|1]
//	knockbench -compare base.jsonl head.jsonl
//
// Without -workload it runs every workload, each in its own child
// process so none inherits another's heap or store, prints every metric
// as "workload metric value unit", and exits non-zero if any
// correctness check fails; -json appends one record per workload. With
// -workload it runs that workload in this process and ends its output
// with one JSON line: {"correct", "attempted", "failed", "metrics"},
// the metrics being every end-to-end metric, or with -trace 1 every
// per-layer metric. -compare reads two record files and gives a verdict
// per (workload, metric) from the bounds in BENCHMARK.json.
// cmd/knockbench/run.sh builds and runs it from a checkout.
//
// Each workload runs set-up (three times; setup_s is the median), an
// untimed warm-up (one campaign or restart, or 2 s of load), then timed
// phases that share its run length (15 s, or -seconds) in fixed
// proportions. Load comes from this process with runtime.NumCPU()
// crawl workers, closed-loop workers, open-loop senders and client
// connections. The seed drives the golden-campaign world, payload
// selection, the order domains rotate in and loadgen.Options.TraceSeed.
//
// The workloads, and what each should leave unchanged:
//
//   - crawl: back-to-back golden campaigns (scale 0.02, all 8 crawl/OS
//     legs, NetLog retention, nominal network, in-memory stores, then
//     Save of the three crawl stores). It is the paper's batch path —
//     websim, browser, NetLog capture, localnet, sharded commits — and
//     touches no HTTP, WAL or query cache, so serving changes should
//     leave it unchanged. With -trace 1 a phase of Config.StageTimings
//     campaigns follows (6:16 of the run length) for the per-stage
//     split; each leg's world is also crawled without stage timings
//     right before or after, which gives the tracing overhead.
//   - ingest: POST /v1/ingest into a WAL-backed store, checkpointed
//     every second as knockserved -wal-dir does: open loop at 1,200
//     uploads/s, then a closed loop (10:8). Payloads are the campaign's
//     retained captures plus as many quiet ones. It isolates NetLog
//     parsing and the WAL append; no query cache or site index is
//     involved, so query changes should leave it unchanged.
//   - query_hot: a closed loop, then an open loop at 1,000 requests/s
//     (6:10), of site:4,locals:2,pages:2,summary:1 over 64 domains —
//     about 200 keys, read once before timing and inside the 512-entry
//     response cache, so it measures HTTP plus cache lookup. Render and
//     index changes should leave it unchanged.
//   - query_churn: an open loop at 300 requests/s of the same mix plus
//     ingest:1 over every corpus domain, about 16K keys. Misses render
//     through queryengine and the site index, and every upload
//     revalidates cached scopes and invalidates /v1/summary. It has no
//     closed loop, which would grow the store with throughput.
//   - recover: repeated restarts of the durable directory: store.Open
//     (one segment plus a WAL tail), the site index build, report.WriteAll.
//     It involves no HTTP, so serving changes should leave it unchanged.
//
// Every HTTP phase starts from a fresh copy of the seeded directory and
// a new server, so no phase inherits another's store growth.
//
// The end-to-end metrics are the same on every workload; the operation
// behind throughput_per_s, p50_ms and tail_ms differs:
//
//	workload     throughput_per_s                p50_ms and tail_ms over
//	crawl        pages/s, median over campaigns  crawl legs (Build + RunWorld), tail p75
//	ingest       NetLog events/s, closed loop    uploads, open loop, tail p90
//	query_hot    reads/s, closed loop            reads, open loop, tail p98
//	query_churn  requests/s, open loop           reads, open loop, tail p99
//	recover      restarts/s                      restarts, tail p75
//
// Latencies are nearest-rank percentiles of exact samples; open-loop
// ones run from each request's intended send time. Per-layer numbers
// come from outputs that already exist: crawler.Summary.StageBusy, the
// server's Registry() read through the exported metric-name constants,
// and store.Recovery.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/knockandtalk/knockandtalk/internal/telemetry"
)

// workDir holds the benchmark's scratch directories and span files,
// relative to the directory it runs in.
const workDir = ".bench_build"

// setupRuns is how many times a workload sets up; setup_s is the median.
const setupRuns = 3

// bench is one workload run in progress.
type bench struct {
	workload string
	seed     uint64
	seconds  time.Duration // timed run length
	traced   bool
	root     string // repository root, for testdata
	tmp      string // scratch directory
	spans    *spanLog
	res      *result
}

var runners = map[string]func(*bench) error{
	"crawl":       runCrawl,
	"ingest":      runIngest,
	"query_hot":   runQueryHot,
	"query_churn": runQueryChurn,
	"recover":     runRecover,
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload in this process: crawl, ingest, query_hot, query_churn or recover (default: all, each in a child process)")
		seed     = flag.Uint64("seed", goldenSeed, "seed for the campaign world, payloads, domain order and trace IDs")
		seconds  = flag.Float64("seconds", runSeconds, "timed run length of -workload in seconds")
		trace    = flag.Int("trace", 0, "with -workload: 1 adds the traced phase and spans, and reports per-layer metrics")
		jsonOut  = flag.String("json", "", "append one record per workload to this JSONL file")
		compare  = flag.Bool("compare", false, "compare two record files: knockbench -compare base.jsonl head.jsonl")
		manPath  = flag.String("manifest", "BENCHMARK.json", "benchmark manifest, for -compare")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatalf("-compare needs two record files")
		}
		os.Exit(runCompare(os.Stdout, *manPath, flag.Arg(0), flag.Arg(1)))
	case *workload != "":
		if _, ok := runners[*workload]; !ok {
			fatalf("unknown workload %q", *workload)
		}
		if *trace != 0 && *trace != 1 {
			fatalf("-trace must be 0 or 1")
		}
		os.Exit(runOne(*workload, *seed, *seconds, *trace == 1, *jsonOut))
	default:
		os.Exit(runAll(*seed, *jsonOut))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "knockbench: "+format+"\n", args...)
	os.Exit(2)
}

// record is one workload run in a -json file, stamped with what
// produced it: the knock_build_info version and Go version, nproc and
// the seed.
type record struct {
	Version   string                 `json:"version"`
	GoVersion string                 `json:"go_version"`
	NProc     int                    `json:"nproc"`
	Seed      uint64                 `json:"seed"`
	Workload  string                 `json:"workload"`
	Seconds   float64                `json:"seconds"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func newRecord(workload string, seed uint64, seconds float64) record {
	version, goVersion := telemetry.BuildVersion()
	return record{
		Version: version, GoVersion: goVersion, NProc: runtime.NumCPU(),
		Seed: seed, Workload: workload, Seconds: seconds,
		Metrics: map[string]metricValue{},
	}
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload in its own child process and relays its
// metric lines; -json passes through to the children.
func runAll(seed uint64, jsonOut string) int {
	exe, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	code := 0
	for _, w := range workloads {
		args := []string{"-workload", w, "-seed", strconv.FormatUint(seed, 10), "-trace", "1"}
		if jsonOut != "" {
			args = append(args, "-json", jsonOut)
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var sum summary
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); jerr != nil {
			fmt.Fprintf(os.Stderr, "knockbench: %s: no result: %v\n", w, err)
			code = 1
			continue
		}
		for _, line := range lines[:len(lines)-1] {
			fmt.Println(line)
		}
		fmt.Fprintf(os.Stderr, "# %s: attempted %d, failed %d, correct %t\n", w, sum.Attempted, sum.Failed, sum.Correct)
		if err != nil || !sum.Correct {
			code = 1
		}
	}
	return code
}

// runOne runs one workload in this process.
func runOne(workload string, seed uint64, seconds float64, traced bool, jsonOut string) int {
	if seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	root, err := repoRoot()
	if err != nil {
		fatalf("%v", err)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	tmp, err := os.MkdirTemp(workDir, "tmp-")
	if err != nil {
		fatalf("%v", err)
	}
	defer os.RemoveAll(tmp)
	b := &bench{
		workload: workload, seed: seed, traced: traced, root: root, tmp: tmp,
		seconds: time.Duration(seconds * float64(time.Second)),
		res:     newResult(workload),
	}
	if traced {
		b.spans = newSpanLog(workload, seed)
	}
	err = runners[workload](b)
	if err == nil {
		err = b.res.complete(traced)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "knockbench: %s: %v\n", workload, err)
		return 1
	}
	if traced {
		path, err := b.spans.write(filepath.Join(workDir, "spans"))
		if err != nil {
			fmt.Fprintf(os.Stderr, "knockbench: %s: writing spans: %v\n", workload, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "# %s: spans in %s (knocktrace -assemble %s)\n", workload, path, path)
	}
	sum := b.res.summary(traced)
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintf(os.Stderr, "knockbench: %s: %v\n", workload, err)
		return 1
	}
	w := bufio.NewWriter(os.Stdout)
	for _, l := range b.res.lines() {
		fmt.Fprintln(w, l)
	}
	fmt.Fprintln(w, string(line))
	if err := w.Flush(); err != nil {
		return 1
	}
	if jsonOut != "" {
		rec := newRecord(workload, seed, seconds)
		rec.Correct, rec.Attempted, rec.Failed = sum.Correct, sum.Attempted, sum.Failed
		for name, v := range b.res.values {
			m, _ := lookup(name)
			rec.Metrics[name] = metricValue{Value: v, Unit: m.unit}
		}
		if err := appendRecord(jsonOut, rec); err != nil {
			fmt.Fprintf(os.Stderr, "knockbench: %s: %v\n", workload, err)
			return 1
		}
	}
	for _, p := range b.res.problems {
		fmt.Fprintf(os.Stderr, "knockbench: %s: check failed: %s\n", workload, p)
	}
	if len(b.res.problems) > 0 {
		return 1
	}
	return 0
}

// repoRoot is the nearest directory at or above the working directory
// that holds go.mod.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod at or above the working directory")
		}
		dir = parent
	}
}

// repeatSetup runs build setupRuns times, records the median as
// setup_s, discards all but the last result and returns it.
func repeatSetup[T any](b *bench, build func() (T, error), discard func(T)) (T, error) {
	var times []float64
	var last T
	for i := 0; i < setupRuns; i++ {
		if i > 0 && discard != nil {
			discard(last)
		}
		start := time.Now()
		v, err := build()
		if err != nil {
			return v, err
		}
		times = append(times, time.Since(start).Seconds())
		last = v
	}
	b.res.set("setup_s", median(times))
	return last, nil
}

// setLatency sets p50_ms and tail_ms from exact samples in ms.
func setLatency(b *bench, samples []float64) error {
	p50, err := percentile(samples, 50)
	if err != nil {
		return err
	}
	tail, err := percentile(samples, tailPercentile[b.workload])
	if err != nil {
		return err
	}
	b.res.set("p50_ms", p50)
	b.res.set("tail_ms", tail)
	fmt.Fprintf(os.Stderr, "# %s: latency over %d samples, tail is p%g\n", b.workload, len(samples), tailPercentile[b.workload])
	return nil
}

// share is a phase length as a share of the run's timed length.
func share(b *bench, f float64) time.Duration {
	return time.Duration(float64(b.seconds) * f)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMiB is this process's maximum resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
