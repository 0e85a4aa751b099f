// Storage-engine benchmarks: the incremental index must beat a
// from-scratch rebuild by at least 10x for single-visit ingests, and
// listings are measured with their allocations. WAL append and recovery
// are measured end to end by knockbench's ingest and recover workloads.
package knockandtalk_test

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"github.com/knockandtalk/knockandtalk/internal/goldencampaign"
	"github.com/knockandtalk/knockandtalk/internal/pipeline"
	"github.com/knockandtalk/knockandtalk/internal/serve/queryengine"
	"github.com/knockandtalk/knockandtalk/internal/store"
)

// benchVisit is one synthetic visit's records: a page plus two local
// probes, the shape a live ingest commits.
func benchVisit(n int) (store.PageRecord, []store.LocalRequest) {
	domain := fmt.Sprintf("bench-visit-%d.example", n)
	p := store.PageRecord{
		Crawl: "bench-live", OS: "Windows", Domain: domain, Rank: 100000 + n,
		URL: "https://" + domain + "/",
	}
	ls := []store.LocalRequest{
		{
			Crawl: "bench-live", OS: "Windows", Domain: domain, Rank: 100000 + n,
			URL: "ws://127.0.0.1:5939/", Scheme: "ws", Host: "127.0.0.1",
			Port: 5939, Path: "/", Dest: "localhost", Delay: 120 * time.Millisecond,
			SOPExempt: true,
		},
		{
			Crawl: "bench-live", OS: "Windows", Domain: domain, Rank: 100000 + n,
			URL: "https://192.168.0.1/", Scheme: "https", Host: "192.168.0.1",
			Port: 443, Path: "/", Dest: "lan", Delay: 250 * time.Millisecond,
		},
	}
	return p, ls
}

func medianDuration(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	m := ds[len(ds)/2]
	if len(ds)%2 == 0 {
		m = (ds[len(ds)/2-1] + ds[len(ds)/2]) / 2
	}
	return m
}

// BenchmarkStoreEngine compares, over the golden campaign corpus:
//
//   - cold rebuild: a fresh SiteIndex materialized from scratch after a
//     single-visit commit (what every query paid before the delta path);
//   - delta apply: the same commit absorbed by a warm index through
//     DeltaSince (what queries pay now) — gated at >= 10x faster.
//
// Cold and delta rounds alternate over identical visit shapes so
// machine drift cancels, and each leg keeps its median.
func BenchmarkStoreEngine(b *testing.B) {
	st := goldenStore(b)

	const rounds = 32
	visitN := 0
	commitVisit := func() {
		p, ls := benchVisit(visitN)
		visitN++
		batch := &store.Batch{}
		batch.AddPage(p)
		for _, l := range ls {
			batch.AddLocal(l)
		}
		st.AddBatch(batch)
	}

	var cold, delta time.Duration
	for i := 0; i < b.N; i++ {
		// Warm incremental index: materialized once, then kept current
		// by delta applies for the rest of the measurement.
		warm := pipeline.NewIndex(st)
		warm.CrawlTable()

		var coldDs, deltaDs []time.Duration
		for r := 0; r < rounds; r++ {
			commitVisit()
			start := time.Now()
			warm.CrawlTable() // absorbs exactly the one-visit delta
			deltaDs = append(deltaDs, time.Since(start))

			commitVisit()
			start = time.Now()
			fresh := pipeline.NewIndex(st)
			fresh.CrawlTable() // full from-scratch materialization
			coldDs = append(coldDs, time.Since(start))
		}
		cold, delta = medianDuration(coldDs), medianDuration(deltaDs)
	}
	speedup := float64(cold) / float64(delta)

	b.ReportMetric(speedup, "delta-speedup-x")
	fmt.Printf("store engine: cold rebuild %.2fms, delta apply %.1fµs (%.0fx)\n",
		cold.Seconds()*1e3, delta.Seconds()*1e6, speedup)

	if speedup < 10 {
		b.Fatalf("delta apply is only %.1fx faster than a cold rebuild (need >= 10x): cold %v, delta %v",
			speedup, cold, delta)
	}
}

// listingSink keeps BenchmarkListings' results live.
var listingSink int

// BenchmarkListings measures the /v1/pages and /v1/locals render path
// (Engine.Pages and Engine.Locals at the server's usual page size) over
// the golden campaign corpus: unfiltered, one crawl, and one domain.
// Allocations are reported because a listing should copy out only the
// rows it returns, not every match.
func BenchmarkListings(b *testing.B) {
	eng := queryengine.New(goldenStore(b))
	crawl := string(goldencampaign.Crawls[0])
	first, _ := eng.Locals(queryengine.LocalsFilter{Limit: 1})
	domain := first[0].Domain
	for _, bc := range []struct {
		name string
		run  func() int
	}{
		{"pages/all", func() int { _, n := eng.Pages(queryengine.PagesFilter{Limit: 100}); return n }},
		{"pages/crawl", func() int { _, n := eng.Pages(queryengine.PagesFilter{Crawl: crawl, Limit: 100}); return n }},
		{"pages/domain", func() int { _, n := eng.Pages(queryengine.PagesFilter{Domain: domain, Limit: 100}); return n }},
		{"locals/all", func() int { _, n := eng.Locals(queryengine.LocalsFilter{Limit: 100}); return n }},
		{"locals/crawl", func() int { _, n := eng.Locals(queryengine.LocalsFilter{Crawl: crawl, Limit: 100}); return n }},
		{"locals/domain", func() int { _, n := eng.Locals(queryengine.LocalsFilter{Domain: domain, Limit: 100}); return n }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				listingSink += bc.run()
			}
		})
	}
}
