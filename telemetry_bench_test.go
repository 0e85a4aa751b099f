// Telemetry overhead benchmark: the crawl hot path with tracing and
// metrics fully enabled must stay within 5% of the uninstrumented
// baseline, and the uninstrumented path must not pay for the
// instrumentation at all (no stage tallies, no clock reads). The run
// reports pages/sec and overhead-% as benchmark metrics; knockbench's
// crawler.trace_overhead_pct is the overhead's committed trajectory.
package knockandtalk_test

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"testing"
	"time"

	"github.com/knockandtalk/knockandtalk/internal/crawler"
	"github.com/knockandtalk/knockandtalk/internal/groundtruth"
	"github.com/knockandtalk/knockandtalk/internal/hostenv"
	"github.com/knockandtalk/knockandtalk/internal/store"
	"github.com/knockandtalk/knockandtalk/internal/telemetry"
	"github.com/knockandtalk/knockandtalk/internal/websim"
)

// BenchmarkCrawlTelemetryOverhead runs the BenchmarkCrawlThroughput
// configuration twice per round — tracing off and tracing fully on
// (registry + tracer + stage timings) — in alternating order, and takes
// the median per-round slowdown ratio. It fails if full instrumentation
// costs more than 5% of crawl throughput.
func BenchmarkCrawlTelemetryOverhead(b *testing.B) {
	world, err := websim.Build(groundtruth.CrawlTop2020, hostenv.Windows, 0.05, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	base := crawler.Config{
		Crawl: groundtruth.CrawlTop2020, OS: hostenv.Windows,
		Scale: 0.05, Seed: benchSeed, Workers: 4,
	}
	tracer := telemetry.NewTracer(io.Discard, telemetry.TracerOptions{Buffer: 4096})
	instrumented := base
	instrumented.Metrics = telemetry.NewRegistry()
	instrumented.Tracer = tracer
	instrumented.StageTimings = true

	crawlOnce := func(cfg crawler.Config) (*crawler.Summary, time.Duration) {
		runtime.GC()
		start := time.Now()
		sum, err := crawler.RunWorld(cfg, world, store.New())
		if err != nil {
			b.Fatal(err)
		}
		return sum, time.Since(start)
	}

	// Warm caches and the page-table before measuring.
	crawlOnce(base)
	crawlOnce(instrumented)

	const rounds = 8
	var pages int
	var ratios []float64
	offBest, onBest := time.Duration(1<<62), time.Duration(1<<62)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < rounds; r++ {
			// Each round measures an off,on,on,off quad (mirrored on odd
			// rounds) and keeps the round's slowdown ratio: the symmetric
			// order cancels linear machine drift inside the round, and the
			// median across rounds discards the ones where a GC or
			// scheduler spike landed on one side.
			var offD, onD time.Duration
			measureOff := func() {
				sum, d := crawlOnce(base)
				if sum.StageBusy != nil {
					b.Fatal("uninstrumented crawl must not collect stage tallies")
				}
				pages = sum.Attempted
				offD += d
				if d < offBest {
					offBest = d
				}
			}
			measureOn := func() {
				sum, d := crawlOnce(instrumented)
				if sum.StageBusy == nil || sum.StageBusy["visit"] <= 0 {
					b.Fatalf("instrumented crawl lost its stage tallies: %+v", sum.StageBusy)
				}
				onD += d
				if d < onBest {
					onBest = d
				}
			}
			if r%2 == 0 {
				measureOff()
				measureOn()
				measureOn()
				measureOff()
			} else {
				measureOn()
				measureOff()
				measureOff()
				measureOn()
			}
			ratios = append(ratios, onD.Seconds()/offD.Seconds())
		}
	}
	b.StopTimer()
	if err := tracer.Close(); err != nil {
		b.Fatal(err)
	}

	overhead := overheadPercent(ratios)
	offRate, onRate := float64(pages)/offBest.Seconds(), float64(pages)/onBest.Seconds()
	b.ReportMetric(onRate, "pages/sec")
	b.ReportMetric(overhead, "overhead-%")
	fmt.Printf("telemetry overhead: off %.0f pages/sec, on %.0f pages/sec (%.2f%%), %d trace records\n",
		offRate, onRate, overhead, tracer.Written())

	if tracer.Written()+tracer.Dropped() == 0 {
		b.Fatal("instrumented crawl emitted no trace records")
	}
	if overhead >= 5 {
		b.Fatalf("telemetry overhead %.2f%% exceeds the 5%% budget (off %v, on %v)",
			overhead, offBest, onBest)
	}
}

// overheadPercent is the median of per-round slowdown ratios as a
// percentage. A median below 1 (the measured variant landed faster) is
// noise and reads as zero.
func overheadPercent(ratios []float64) float64 {
	sort.Float64s(ratios)
	median := ratios[len(ratios)/2]
	if len(ratios)%2 == 0 {
		median = (ratios[len(ratios)/2-1] + ratios[len(ratios)/2]) / 2
	}
	return max(0, 100*(median-1))
}
