package store

// SelectPages returns the page records keep accepts (nil keeps all),
// in canonical order and truncated to limit, plus how many matched
// before truncation. A non-empty domain restricts the match to that
// domain and the scan to the one shard holding it. Records with equal
// canonical keys keep scan order, so rows are exactly a stable sort of
// Pages' matches cut to limit; limit <= 0 means unlimited.
//
// Matches are counted in place under one shard lock at a time, and at
// most limit of them are copied out, so a listing costs a scan plus at
// most O(total·log limit) comparisons rather than a copy and sort of
// every match. keep runs under the shard lock and must not call back
// into the store.
func (s *Store) SelectPages(domain string, keep func(*PageRecord) bool, limit int) ([]PageRecord, int) {
	sel := topK[PageRecord]{less: pageLess, limit: limit}
	s.scanShards(domain, func(sh *shard) {
		for j := range sh.pages {
			p := &sh.pages[j]
			if (domain == "" || p.Domain == domain) && (keep == nil || keep(p)) {
				sel.offer(p)
			}
		}
	})
	return sel.sorted(), sel.total
}

// SelectLocals is SelectPages for local requests.
func (s *Store) SelectLocals(domain string, keep func(*LocalRequest) bool, limit int) ([]LocalRequest, int) {
	sel := topK[LocalRequest]{less: localLess, limit: limit}
	s.scanShards(domain, func(sh *shard) {
		for j := range sh.locals {
			l := &sh.locals[j]
			if (domain == "" || l.Domain == domain) && (keep == nil || keep(l)) {
				sel.offer(l)
			}
		}
	})
	return sel.sorted(), sel.total
}

// scanShards runs fn on domain's shard, or on every shard in index
// order when domain is empty, holding one shard lock at a time.
func (s *Store) scanShards(domain string, fn func(*shard)) {
	lo, hi := 0, numShards
	if domain != "" {
		lo = shardIndex(domain)
		hi = lo + 1
	}
	for i := lo; i < hi; i++ {
		sh := &s.shards[i]
		sh.mu.Lock()
		fn(sh)
		sh.mu.Unlock()
	}
}

// topK keeps the limit smallest rows offered to it (every row when
// limit <= 0), ordered by less and then by arrival, in a max-heap on
// that order whose root is the row the next smaller offer evicts.
type topK[T any] struct {
	less  func(a, b *T) bool
	limit int
	total int   // rows offered so far
	rows  []T   // kept rows
	seq   []int // arrival number of each kept row, for ties
}

func (k *topK[T]) offer(r *T) {
	k.total++
	switch {
	case k.limit <= 0 || len(k.rows) < k.limit:
		k.rows = append(k.rows, *r)
		k.seq = append(k.seq, k.total)
		k.up(len(k.rows) - 1)
	case k.less(r, &k.rows[0]):
		// An offer equal to the root loses the tie: it arrived later.
		k.rows[0], k.seq[0] = *r, k.total
		k.down(0, len(k.rows))
	}
}

// sorted heap-sorts the kept rows into (less, arrival) order.
func (k *topK[T]) sorted() []T {
	for n := len(k.rows) - 1; n > 0; n-- {
		k.swap(0, n)
		k.down(0, n)
	}
	return k.rows
}

// after reports whether row i comes after row j.
func (k *topK[T]) after(i, j int) bool {
	if k.less(&k.rows[j], &k.rows[i]) {
		return true
	}
	return !k.less(&k.rows[i], &k.rows[j]) && k.seq[i] > k.seq[j]
}

func (k *topK[T]) swap(i, j int) {
	k.rows[i], k.rows[j] = k.rows[j], k.rows[i]
	k.seq[i], k.seq[j] = k.seq[j], k.seq[i]
}

func (k *topK[T]) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !k.after(i, p) {
			return
		}
		k.swap(i, p)
		i = p
	}
}

// down restores the heap below i within rows[:n].
func (k *topK[T]) down(i, n int) {
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && k.after(c+1, c) {
			c++
		}
		if !k.after(c, i) {
			return
		}
		k.swap(i, c)
		i = c
	}
}
