// Network-condition chain overhead benchmark: the nominal visit path
// now computes its timings through the composable Conditions chain, and
// that indirection must stay within 5% of a fused single-pass
// implementation of the old LatencyModel arithmetic — the chain is free
// when idle. An impaired crawl variant is measured alongside and its
// throughput reported as a benchmark metric.
package knockandtalk_test

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"
	"time"

	"github.com/knockandtalk/knockandtalk/internal/browser"
	"github.com/knockandtalk/knockandtalk/internal/crawler"
	"github.com/knockandtalk/knockandtalk/internal/groundtruth"
	"github.com/knockandtalk/knockandtalk/internal/hostenv"
	"github.com/knockandtalk/knockandtalk/internal/simnet"
	"github.com/knockandtalk/knockandtalk/internal/store"
	"github.com/knockandtalk/knockandtalk/internal/websim"
)

// fusedNominal is the pre-Conditions LatencyModel collapsed into one
// stage: classify once, add base and jitter in a single pass. It is the
// tightest implementation the chain competes against.
type fusedNominal struct {
	v simnet.Vantage
}

func (s fusedNominal) Apply(seed uint64, f simnet.Flow, p simnet.Path) simnet.Path {
	var base, jmax time.Duration
	switch {
	case f.Dst.IsLoopback():
		base, jmax = 150*time.Microsecond, 250*time.Microsecond
	case f.Dst.Is4() && f.Dst.IsPrivate():
		base, jmax = time.Millisecond, 4*time.Millisecond
	case f.Dst.IsLinkLocalUnicast():
		base, jmax = time.Millisecond, 2*time.Millisecond
	default:
		base, jmax = s.v.BaseRTT, s.v.Jitter
	}
	h := fnv.New64a()
	var sb [8]byte
	for i := 0; i < 8; i++ {
		sb[i] = byte(seed >> (8 * i))
	}
	h.Write(sb[:])
	h.Write([]byte(s.v.Name))
	b, _ := f.Dst.MarshalBinary()
	h.Write(b)
	p.RTT += base + time.Duration(h.Sum64()%uint64(jmax))
	return p
}

// BenchmarkNetcondOverhead visits one crawl leg serially through both
// implementations in alternating quads and takes the median per-round
// slowdown of the chain over the fused baseline. Both variants must
// produce identical visit outcomes — the chain is an equivalence, not
// an approximation.
func BenchmarkNetcondOverhead(b *testing.B) {
	const scale = 0.02
	world, err := websim.Build(groundtruth.CrawlTop2020, hostenv.Windows, scale, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	profile := hostenv.DefaultProfile(hostenv.Windows)

	chainOpts := browser.DefaultOptions()
	chainOpts.Background = false
	fusedOpts := browser.DefaultOptions()
	fusedOpts.Background = false
	fusedOpts.Conditions = &simnet.Conditions{
		Name: "nominal", FlowVantage: profile.Vantage.Name,
		Stages: []simnet.Stage{fusedNominal{v: profile.Vantage}},
	}

	// visitAll crawls every target with one browser and returns the
	// elapsed wall time plus a digest of outcomes for the parity check.
	visitAll := func(opts browser.Options) (time.Duration, uint64) {
		runtime.GC()
		h := fnv.New64a()
		br := browser.New(profile, world.Net, opts)
		start := time.Now()
		for _, tgt := range world.Targets {
			res := br.Visit(tgt.URL)
			fmt.Fprintf(h, "%s|%d|%s\n", tgt.Domain, res.CommittedAt, res.Err)
		}
		return time.Since(start), h.Sum64()
	}

	_, chainSum := visitAll(chainOpts)
	_, fusedSum := visitAll(fusedOpts)
	if chainSum != fusedSum {
		b.Fatal("chain and fused-legacy visits diverged: the nominal chain is not timing-equivalent")
	}

	const rounds = 6
	var ratios []float64
	fusedBest, chainBest := time.Duration(1<<62), time.Duration(1<<62)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < rounds; r++ {
			// Symmetric fused,chain,chain,fused quads (mirrored on odd
			// rounds) cancel linear drift; the median across rounds
			// discards GC spikes.
			var fusedD, chainD time.Duration
			measureFused := func() {
				d, _ := visitAll(fusedOpts)
				fusedD += d
				if d < fusedBest {
					fusedBest = d
				}
			}
			measureChain := func() {
				d, _ := visitAll(chainOpts)
				chainD += d
				if d < chainBest {
					chainBest = d
				}
			}
			if r%2 == 0 {
				measureFused()
				measureChain()
				measureChain()
				measureFused()
			} else {
				measureChain()
				measureFused()
				measureFused()
				measureChain()
			}
			ratios = append(ratios, chainD.Seconds()/fusedD.Seconds())
		}
	}
	b.StopTimer()

	// The impaired variant: the same leg crawled under the harshest
	// profile, through the full crawler.
	impairedStart := time.Now()
	sum, err := crawler.RunWorld(crawler.Config{
		Crawl: groundtruth.CrawlTop2020, OS: hostenv.Windows,
		Scale: scale, Seed: benchSeed, Workers: 4, NetProfile: "satellite",
		SkipConnectivityCheck: true,
	}, world, store.New())
	if err != nil {
		b.Fatal(err)
	}
	impairedD := time.Since(impairedStart)

	visits := float64(len(world.Targets))
	fusedRate, chainRate := visits/fusedBest.Seconds(), visits/chainBest.Seconds()
	impairedRate := float64(sum.Attempted) / impairedD.Seconds()
	overhead := overheadPercent(ratios)
	b.ReportMetric(chainRate, "visits/sec")
	b.ReportMetric(overhead, "overhead-%")
	fmt.Printf("netcond chain: fused %.0f visits/sec, chain %.0f visits/sec (%.2f%%), satellite %.0f pages/sec\n",
		fusedRate, chainRate, overhead, impairedRate)

	if overhead >= 5 {
		b.Fatalf("nominal chain overhead %.2f%% exceeds the 5%% budget (fused %v, chain %v)",
			overhead, fusedBest, chainBest)
	}
}
