package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Small value pools, so random records collide on their canonical keys
// while differing in fields outside them (Events, CommittedAt, Port).
var (
	selCrawls = []string{"top100k-2020", "top100k-2021"}
	selOSes   = []string{"Windows", "Linux"}
	selErrs   = []string{"", "ERR_NAME_NOT_RESOLVED"}
	selDests  = []string{"localhost", "lan"}
	selURLs   = []string{"https://a.example/", "https://a.example/login"}
)

func selDomain(i int) string { return fmt.Sprintf("d%02d.example", i) }

func pick(rng *rand.Rand, xs []string) string { return xs[rng.Intn(len(xs))] }

func randPage(rng *rand.Rand, domains int) PageRecord {
	return PageRecord{
		Crawl: pick(rng, selCrawls), OS: pick(rng, selOSes),
		Domain: selDomain(rng.Intn(domains)), Rank: 1 + rng.Intn(3),
		URL: pick(rng, selURLs), Err: pick(rng, selErrs),
		CommittedAt: time.Duration(rng.Intn(1000)) * time.Millisecond,
		Events:      rng.Intn(1000),
	}
}

func randLocal(rng *rand.Rand, domains int) LocalRequest {
	return LocalRequest{
		Crawl: pick(rng, selCrawls), OS: pick(rng, selOSes),
		Domain: selDomain(rng.Intn(domains)), Dest: pick(rng, selDests),
		URL:   pick(rng, selURLs),
		Delay: time.Duration(rng.Intn(3)) * time.Second,
		Port:  uint16(1 + rng.Intn(65535)),
	}
}

// randCommits fills st through every write path, in batches that mix
// domains, so shard buffers interleave records in arrival order.
func randCommits(rng *rand.Rand, st *Store, commits, domains int) {
	for c := 0; c < commits; c++ {
		var b Batch
		for n := rng.Intn(8); n > 0; n-- {
			if rng.Intn(2) == 0 {
				b.AddPage(randPage(rng, domains))
			} else {
				b.AddLocal(randLocal(rng, domains))
			}
		}
		switch rng.Intn(3) {
		case 0:
			st.AddBatch(&b)
		case 1:
			st.AddPages(b.pages)
			st.AddLocals(b.locals)
		default:
			for _, p := range b.pages {
				st.AddPage(p)
			}
			for _, l := range b.locals {
				st.AddLocal(l)
			}
		}
	}
}

// pageFilter is one listing query: the domain SelectPages scans for
// plus the remaining fields as a keep function.
type pageFilter struct{ domain, os, crawl, err string }

func (f pageFilter) keep(p *PageRecord) bool {
	return (f.os == "" || p.OS == f.os) && (f.crawl == "" || p.Crawl == f.crawl) &&
		(f.err == "" || p.Err == f.err)
}

type localFilter struct{ domain, os, crawl, dest string }

func (f localFilter) keep(l *LocalRequest) bool {
	return (f.os == "" || l.OS == f.os) && (f.crawl == "" || l.Crawl == f.crawl) &&
		(f.dest == "" || l.Dest == f.dest)
}

// maybe returns "" half the time, else a pick from xs.
func maybe(rng *rand.Rand, xs []string) string {
	if rng.Intn(2) == 0 {
		return ""
	}
	return pick(rng, xs)
}

// randDomainFilter is "", a domain with records, or one with none.
func randDomainFilter(rng *rand.Rand, domains int) string {
	switch rng.Intn(4) {
	case 0, 1:
		return ""
	case 2:
		return "absent.example"
	}
	return selDomain(rng.Intn(domains))
}

// refPages is the definition SelectPages must match: a stable sort of
// the full-scan snapshot, which cut sorts to any limit.
func refPages(st *Store, f pageFilter) []PageRecord {
	rows := st.Pages(func(p *PageRecord) bool {
		return (f.domain == "" || p.Domain == f.domain) && f.keep(p)
	})
	sort.SliceStable(rows, func(i, j int) bool { return pageLess(&rows[i], &rows[j]) })
	return rows
}

func refLocals(st *Store, f localFilter) []LocalRequest {
	rows := st.Locals(func(l *LocalRequest) bool {
		return (f.domain == "" || l.Domain == f.domain) && f.keep(l)
	})
	sort.SliceStable(rows, func(i, j int) bool { return localLess(&rows[i], &rows[j]) })
	return rows
}

// cut truncates rows to limit; limit <= 0 keeps them all.
func cut[T any](rows []T, limit int) []T {
	if limit > 0 && len(rows) > limit {
		return rows[:limit]
	}
	return rows
}

// selLimits are the limits each query is checked at: unlimited, 1, a
// few small ones, exactly total and above it.
func selLimits(total int) []int {
	return []int{0, 1, 5, 100, total, total + 1}
}

// TestSelectMatchesStableSort checks SelectPages and SelectLocals
// against the scan, stable-sort and truncate they replace, on random
// stores whose equal-key records differ outside the key, so any tie
// broken by other than scan order shows.
func TestSelectMatchesStableSort(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		domains := 1 + rng.Intn(20)
		st := New()
		randCommits(rng, st, rng.Intn(120), domains)
		for q := 0; q < 8; q++ {
			pf := pageFilter{randDomainFilter(rng, domains), maybe(rng, selOSes), maybe(rng, selCrawls), maybe(rng, selErrs)}
			pages := refPages(st, pf)
			for _, limit := range selLimits(len(pages)) {
				want := cut(pages, limit)
				got, total := st.SelectPages(pf.domain, pf.keep, limit)
				if total != len(pages) || !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d: SelectPages(%+v, limit %d) = %d rows of %d, want %d of %d\ngot  %v\nwant %v",
						trial, pf, limit, len(got), total, len(want), len(pages), got, want)
				}
			}
			lf := localFilter{randDomainFilter(rng, domains), maybe(rng, selOSes), maybe(rng, selCrawls), maybe(rng, selDests)}
			locals := refLocals(st, lf)
			for _, limit := range selLimits(len(locals)) {
				want := cut(locals, limit)
				got, total := st.SelectLocals(lf.domain, lf.keep, limit)
				if total != len(locals) || !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d: SelectLocals(%+v, limit %d) = %d rows of %d, want %d of %d\ngot  %v\nwant %v",
						trial, lf, limit, len(got), total, len(want), len(locals), got, want)
				}
			}
		}
	}
}

// TestSelectNilKeep checks that a nil keep selects every record (of
// the domain, when one is given).
func TestSelectNilKeep(t *testing.T) {
	st := New()
	randCommits(rand.New(rand.NewSource(1)), st, 50, 5)
	if _, total := st.SelectPages("", nil, 1); total != st.NumPages() {
		t.Errorf("SelectPages nil keep total = %d, want %d", total, st.NumPages())
	}
	if _, total := st.SelectLocals("", nil, 1); total != st.NumLocals() {
		t.Errorf("SelectLocals nil keep total = %d, want %d", total, st.NumLocals())
	}
	d := selDomain(2)
	want := refLocals(st, localFilter{domain: d})
	if got, _ := st.SelectLocals(d, nil, 0); !reflect.DeepEqual(got, want) {
		t.Errorf("SelectLocals(%q, nil, 0) = %v, want %v", d, got, want)
	}
}

// TestSelectDuringCommits runs selections while writers commit (run
// it under -race). Each result must be sorted, hold min(limit, total)
// rows, and count no more matches than the store holds at the end.
func TestSelectDuringCommits(t *testing.T) {
	const writers, commits, domains = 4, 300, 12
	st := New()
	var wg sync.WaitGroup
	var done atomic.Bool
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			randCommits(rand.New(rand.NewSource(int64(w))), st, commits, domains)
		}(w)
	}
	type seen struct {
		pf     pageFilter
		lf     localFilter
		pTotal int
		lTotal int
	}
	// A sample of the selections, checked against the final store once
	// the writers stop; readers drop results when it is full.
	results := make(chan seen, 128)
	var rwg sync.WaitGroup
	for r := 0; r < 2; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for {
				limit := rng.Intn(30)
				pf := pageFilter{randDomainFilter(rng, domains), maybe(rng, selOSes), maybe(rng, selCrawls), maybe(rng, selErrs)}
				pages, pTotal := st.SelectPages(pf.domain, pf.keep, limit)
				lf := localFilter{randDomainFilter(rng, domains), maybe(rng, selOSes), maybe(rng, selCrawls), maybe(rng, selDests)}
				locals, lTotal := st.SelectLocals(lf.domain, lf.keep, limit)
				if want := wantLen(limit, pTotal); len(pages) != want {
					t.Errorf("SelectPages(%+v, limit %d) returned %d rows of %d", pf, limit, len(pages), pTotal)
				}
				if want := wantLen(limit, lTotal); len(locals) != want {
					t.Errorf("SelectLocals(%+v, limit %d) returned %d rows of %d", lf, limit, len(locals), lTotal)
				}
				if !sort.SliceIsSorted(pages, func(i, j int) bool { return pageLess(&pages[i], &pages[j]) }) {
					t.Errorf("SelectPages(%+v) rows out of canonical order", pf)
				}
				if !sort.SliceIsSorted(locals, func(i, j int) bool { return localLess(&locals[i], &locals[j]) }) {
					t.Errorf("SelectLocals(%+v) rows out of canonical order", lf)
				}
				select {
				case results <- seen{pf, lf, pTotal, lTotal}:
				default: // enough kept to check totals against
				}
				if done.Load() {
					return
				}
			}
		}(r)
	}
	wg.Wait()
	done.Store(true)
	rwg.Wait()
	close(results)
	for s := range results {
		if final := len(refPages(st, s.pf)); s.pTotal > final {
			t.Errorf("SelectPages(%+v) counted %d matches, the final store has %d", s.pf, s.pTotal, final)
		}
		if final := len(refLocals(st, s.lf)); s.lTotal > final {
			t.Errorf("SelectLocals(%+v) counted %d matches, the final store has %d", s.lf, s.lTotal, final)
		}
	}
}

func wantLen(limit, total int) int {
	if limit > 0 && limit < total {
		return limit
	}
	return total
}
