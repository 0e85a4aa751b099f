// Package store is the telemetry database of the pipeline's step 4
// ("parsing the logs and storing the network events"). It holds one
// PageRecord per page visit and one LocalRequest per extracted local
// finding, offers the query surface the analysis layer needs, and
// persists to a line-delimited JSON format.
//
// The paper retained 11 TB of raw NetLogs; this store keeps the full
// event stream only where it matters (visits with local activity can be
// retained verbatim) and compact summaries everywhere else.
//
// Writes are sharded: records land in one of several append buffers
// selected by a hash of the record's domain, each behind its own mutex,
// so concurrent crawl workers do not serialize on a single lock. Shard
// assignment is an internal detail — queries see every record, and Save
// merges the shards into a canonical order (by crawl, OS, rank, domain,
// then record-specific tie-breaks) that is byte-for-byte independent of
// worker interleaving and shard count.
package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/knockandtalk/knockandtalk/internal/telemetry"
)

// PageRecord summarizes one page visit.
type PageRecord struct {
	Crawl    string `json:"crawl"`
	OS       string `json:"os"`
	Domain   string `json:"domain"`
	Rank     int    `json:"rank,omitempty"`
	Category string `json:"category,omitempty"`
	URL      string `json:"url"`
	FinalURL string `json:"final_url,omitempty"`
	// Err is the Chrome net error for failed loads, "" for successes.
	Err string `json:"err,omitempty"`
	// CommittedAt is when the landing document finished loading.
	CommittedAt time.Duration `json:"committed_at,omitempty"`
	// Events is the telemetry volume of the visit.
	Events int `json:"events,omitempty"`
}

// OK reports whether the page loaded.
func (p *PageRecord) OK() bool { return p.Err == "" }

// LocalRequest is one local-network request observed during a visit.
type LocalRequest struct {
	Crawl    string `json:"crawl"`
	OS       string `json:"os"`
	Domain   string `json:"domain"`
	Rank     int    `json:"rank,omitempty"`
	Category string `json:"category,omitempty"`

	URL    string `json:"url"`
	Scheme string `json:"scheme"`
	Host   string `json:"host"`
	Port   uint16 `json:"port"`
	Path   string `json:"path"`
	// Dest is "localhost" or "lan".
	Dest string `json:"dest"`
	// Delay is the time from page commit to the request (the Figure 5
	// observable). Negative values are clamped to zero.
	Delay       time.Duration `json:"delay"`
	Initiator   string        `json:"initiator,omitempty"`
	NetError    string        `json:"net_error,omitempty"`
	StatusCode  int           `json:"status_code,omitempty"`
	ViaRedirect bool          `json:"via_redirect,omitempty"`
	SOPExempt   bool          `json:"sop_exempt,omitempty"`
}

// numShards is the write-side fan-out. Sharding is by domain hash, so
// one visit's records (always a single domain) land in one shard and a
// batch commit takes exactly one lock.
const numShards = 64

// shardSeed makes the domain→shard assignment stable for the lifetime
// of the process (it does not need to be stable across processes:
// shard layout is never serialized).
var shardSeed = maphash.MakeSeed()

func shardIndex(domain string) int {
	return int(maphash.String(shardSeed, domain) % numShards)
}

// shard is one append buffer with its own lock.
type shard struct {
	mu     sync.Mutex
	pages  []PageRecord
	locals []LocalRequest
}

// Store accumulates crawl output. It is safe for concurrent use.
type Store struct {
	shards [numShards]shard

	// gen counts mutation epochs: it advances at least once per write
	// call (not per record, keeping the hot crawl path to one atomic add
	// per bulk commit). Derived views — the pipeline's site index, the
	// serving layer's response cache — compare generations to decide
	// whether their snapshot is still current.
	gen atomic.Uint64

	// force counts out-of-band invalidations (BumpGeneration). Ordinary
	// commits move only gen, which delta-aware views absorb
	// incrementally; a force bump tells them their accumulated state may
	// no longer describe the store and they must rebuild from scratch.
	force atomic.Uint64

	// journal remembers the (crawl, domain) scope of recent commits so
	// cached query responses can be revalidated surgically instead of
	// discarded wholesale on every generation bump.
	journal scopeJournal

	// wal, when non-nil, is the write-ahead log every commit appends to
	// before touching the shard buffers. Set once by Open before the
	// store is shared; plain field reads are safe afterwards.
	wal *Log

	// netlogs are low-volume (only visits with local findings retain a
	// capture) and stay behind a single lock.
	nmu     sync.Mutex
	netlogs []NetLogRecord

	// meters, when set via Instrument, counts commits into a telemetry
	// registry. An atomic pointer so Instrument is safe against
	// concurrent writers; nil (the default) costs one load per bulk
	// write.
	meters atomic.Pointer[storeMeters]
}

// storeMeters holds pre-resolved registry handles so the write path
// never takes the registry's map lock.
type storeMeters struct {
	pages, locals, netlogs, commits *telemetry.Counter
	// scopeWraps counts ScopesSince calls the journal could no longer
	// answer (the ring wrapped past the requested generation), each of
	// which degrades a caller to full cache invalidation.
	scopeWraps *telemetry.Counter
}

// Instrument registers the store's write counters into reg
// (store_pages_total, store_locals_total, store_netlogs_total,
// store_commits_total, store_scope_journal_wraps_total) and starts
// counting subsequent writes.
func (s *Store) Instrument(reg *telemetry.Registry) {
	s.meters.Store(&storeMeters{
		pages:      reg.Counter("store_pages_total"),
		locals:     reg.Counter("store_locals_total"),
		netlogs:    reg.Counter("store_netlogs_total"),
		commits:    reg.Counter("store_commits_total"),
		scopeWraps: reg.Counter("store_scope_journal_wraps_total"),
	})
}

// New returns an empty store.
func New() *Store { return &Store{} }

// Generation returns the store's mutation epoch. Two reads separated by
// any write observe different values; snapshots computed at different
// generations must not be conflated.
func (s *Store) Generation() uint64 { return s.gen.Load() }

// ForceGeneration returns the out-of-band invalidation epoch; see
// BumpGeneration.
func (s *Store) ForceGeneration() uint64 { return s.force.Load() }

// BumpGeneration advances the mutation epoch without writing a record,
// forcing derived views to rebuild. Writers need not call it — every
// Add* path bumps on its own. Unlike an ordinary commit, a bump also
// advances the force epoch: it signals that store state may have
// changed out of band, so delta-applied views cannot trust their
// accumulated state and must rebuild in full.
func (s *Store) BumpGeneration() {
	s.force.Add(1)
	s.journal.append(&s.gen, CommitScope{Broad: true})
}

// Reserve pre-sizes the shard buffers for a crawl expected to append
// about nPages page records, so the append path does not repeatedly
// regrow slices mid-crawl.
func (s *Store) Reserve(nPages int) {
	if nPages <= 0 {
		return
	}
	perShard := nPages/numShards + 1
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		if cap(sh.pages)-len(sh.pages) < perShard {
			grown := make([]PageRecord, len(sh.pages), len(sh.pages)+perShard)
			copy(grown, sh.pages)
			sh.pages = grown
		}
		sh.mu.Unlock()
	}
}

// commit is the single write path every public mutator lands on. It
// clamps delays, appends the records to the attached WAL (when one is
// attached) and to the shard buffers — both under the WAL lock, so
// compaction always observes the log as an exact prefix of the shards —
// then advances the generation, journals the commit's scope, and counts
// meters. Negative local delays are clamped in place, so callers see
// the records exactly as stored.
func (s *Store) commit(ps []PageRecord, ls []LocalRequest, nls []NetLogRecord) {
	if len(ps) == 0 && len(ls) == 0 && len(nls) == 0 {
		return
	}
	for i := range ls {
		if ls[i].Delay < 0 {
			ls[i].Delay = 0
		}
	}
	if l := s.wal; l != nil {
		l.mu.Lock()
		l.appendCommit(ps, ls, nls)
		s.apply(ps, ls, nls)
		l.mu.Unlock()
		l.maybeCompact()
	} else {
		s.apply(ps, ls, nls)
	}
	s.journal.append(&s.gen, commitScopeOf(ps, ls, nls))
	if m := s.meters.Load(); m != nil {
		if len(ps) > 0 {
			m.pages.Add(uint64(len(ps)))
		}
		if len(ls) > 0 {
			m.locals.Add(uint64(len(ls)))
		}
		if len(nls) > 0 {
			m.netlogs.Add(uint64(len(nls)))
		}
		m.commits.Inc()
	}
}

// apply lands committed records in the shard buffers, acquiring each
// touched shard's lock once per consecutive same-shard run rather than
// once per record.
func (s *Store) apply(ps []PageRecord, ls []LocalRequest, nls []NetLogRecord) {
	for i := 0; i < len(ps); {
		idx := shardIndex(ps[i].Domain)
		j := i + 1
		for j < len(ps) && shardIndex(ps[j].Domain) == idx {
			j++
		}
		sh := &s.shards[idx]
		sh.mu.Lock()
		sh.pages = append(sh.pages, ps[i:j]...)
		sh.mu.Unlock()
		i = j
	}
	for i := 0; i < len(ls); {
		idx := shardIndex(ls[i].Domain)
		j := i + 1
		for j < len(ls) && shardIndex(ls[j].Domain) == idx {
			j++
		}
		sh := &s.shards[idx]
		sh.mu.Lock()
		sh.locals = append(sh.locals, ls[i:j]...)
		sh.mu.Unlock()
		i = j
	}
	if len(nls) > 0 {
		s.nmu.Lock()
		s.netlogs = append(s.netlogs, nls...)
		s.nmu.Unlock()
	}
}

// AddPage records a page visit.
func (s *Store) AddPage(p PageRecord) {
	s.commit([]PageRecord{p}, nil, nil)
}

// AddLocal records a local-network request.
func (s *Store) AddLocal(l LocalRequest) {
	s.commit(nil, []LocalRequest{l}, nil)
}

// AddPages bulk-appends page records as one commit.
func (s *Store) AddPages(ps []PageRecord) {
	s.commit(ps, nil, nil)
}

// AddLocals bulk-appends local requests as one commit. Negative delays
// are clamped to zero, in the caller's slice.
func (s *Store) AddLocals(ls []LocalRequest) {
	s.commit(nil, ls, nil)
}

// Batch accumulates one worker's records locally so a whole visit can be
// committed to the store in a single lock acquisition (all records of a
// visit share the visited domain and therefore a shard). A Batch is not
// safe for concurrent use; give each worker its own and Reset between
// visits.
type Batch struct {
	pages  []PageRecord
	locals []LocalRequest
}

// AddPage stages a page record.
func (b *Batch) AddPage(p PageRecord) { b.pages = append(b.pages, p) }

// AddLocal stages a local request.
func (b *Batch) AddLocal(l LocalRequest) { b.locals = append(b.locals, l) }

// Len reports the number of staged records.
func (b *Batch) Len() int { return len(b.pages) + len(b.locals) }

// Reset empties the batch, retaining capacity for reuse.
func (b *Batch) Reset() { b.pages = b.pages[:0]; b.locals = b.locals[:0] }

// AddBatch commits the staged records as a single commit (one WAL
// record, one generation bump, one scope journal entry). The batch may
// be Reset and reused afterwards; the store keeps copies.
func (s *Store) AddBatch(b *Batch) {
	s.commit(b.pages, b.locals, nil)
}

// AddRecords commits already-materialized records of all three kinds as
// one commit. It is the merge path of consumers that move records
// between stores wholesale — the fleet coordinator folding a worker's
// uploaded shard into the campaign store — where netlog captures must
// transfer byte-identically (AddNetLog would re-serialize them).
func (s *Store) AddRecords(ps []PageRecord, ls []LocalRequest, nls []NetLogRecord) {
	s.commit(ps, ls, nls)
}

// Pages returns a filtered snapshot of page records; a nil filter keeps
// everything. Order is unspecified (crawl workers interleave anyway);
// records of one domain appear in insertion order relative to each
// other.
func (s *Store) Pages(keep func(*PageRecord) bool) []PageRecord {
	var out []PageRecord
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for j := range sh.pages {
			if keep == nil || keep(&sh.pages[j]) {
				out = append(out, sh.pages[j])
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// ForEachPage visits every page record in the same shard order Pages
// uses, under the shard locks, without materializing a snapshot. The
// callback must copy anything it keeps and must not call back into the
// store.
func (s *Store) ForEachPage(fn func(*PageRecord)) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for j := range sh.pages {
			fn(&sh.pages[j])
		}
		sh.mu.Unlock()
	}
}

// ForEachLocal visits every local request in the same shard order
// Locals uses, with ForEachPage's contract.
func (s *Store) ForEachLocal(fn func(*LocalRequest)) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for j := range sh.locals {
			fn(&sh.locals[j])
		}
		sh.mu.Unlock()
	}
}

// Locals returns a filtered snapshot of local requests; a nil filter
// keeps everything. Ordering follows the same rules as Pages.
func (s *Store) Locals(keep func(*LocalRequest) bool) []LocalRequest {
	var out []LocalRequest
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for j := range sh.locals {
			if keep == nil || keep(&sh.locals[j]) {
				out = append(out, sh.locals[j])
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// NumPages and NumLocals report record counts.
func (s *Store) NumPages() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.pages)
		sh.mu.Unlock()
	}
	return n
}

func (s *Store) NumLocals() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.locals)
		sh.mu.Unlock()
	}
	return n
}

// snapshotAll gathers merged copies of every shard's buffers.
func (s *Store) snapshotAll() (pages []PageRecord, locals []LocalRequest) {
	pages = make([]PageRecord, 0, s.NumPages())
	locals = make([]LocalRequest, 0, s.NumLocals())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		pages = append(pages, sh.pages...)
		locals = append(locals, sh.locals...)
		sh.mu.Unlock()
	}
	return pages, locals
}

// sortAll brings records into the canonical serialization order: pages
// and netlogs by (crawl, OS, rank, domain), locals additionally by
// delay then URL. The order is a total one for any single crawl (one
// record per domain per visit URL), making Save deterministic
// regardless of crawl worker interleaving or shard assignment.
func sortAll(pages []PageRecord, locals []LocalRequest, netlogs []NetLogRecord) {
	SortPages(pages)
	sort.Slice(netlogs, func(i, j int) bool {
		a, b := &netlogs[i], &netlogs[j]
		if a.Crawl != b.Crawl {
			return a.Crawl < b.Crawl
		}
		if a.OS != b.OS {
			return a.OS < b.OS
		}
		return a.Domain < b.Domain
	})
	SortLocals(locals)
}

// SortPages sorts page records into the canonical serialization order.
// Shard iteration order is seed-dependent per process, so any consumer
// that shows a snapshot to a user should sort it first.
func SortPages(pages []PageRecord) {
	sort.Slice(pages, func(i, j int) bool { return pageLess(&pages[i], &pages[j]) })
}

// SortLocals sorts local requests into the canonical serialization
// order; see SortPages.
func SortLocals(locals []LocalRequest) {
	sort.Slice(locals, func(i, j int) bool { return localLess(&locals[i], &locals[j]) })
}

// pageLess is the canonical page order: crawl, OS, rank, domain, URL.
// Save and the listing selection both order by it.
func pageLess(a, b *PageRecord) bool {
	if a.Crawl != b.Crawl {
		return a.Crawl < b.Crawl
	}
	if a.OS != b.OS {
		return a.OS < b.OS
	}
	if a.Rank != b.Rank {
		return a.Rank < b.Rank
	}
	if a.Domain != b.Domain {
		return a.Domain < b.Domain
	}
	// Same site visited at different paths (the login-page
	// extension appends to the same store).
	return a.URL < b.URL
}

// localLess is the canonical local-request order: crawl, OS, domain,
// delay, URL.
func localLess(a, b *LocalRequest) bool {
	if a.Crawl != b.Crawl {
		return a.Crawl < b.Crawl
	}
	if a.OS != b.OS {
		return a.OS < b.OS
	}
	if a.Domain != b.Domain {
		return a.Domain < b.Domain
	}
	if a.Delay != b.Delay {
		return a.Delay < b.Delay
	}
	return a.URL < b.URL
}

// envelope is the JSONL line format: a type tag plus one payload.
type envelope struct {
	T      string        `json:"t"`
	Page   *PageRecord   `json:"page,omitempty"`
	Local  *LocalRequest `json:"local,omitempty"`
	NetLog *NetLogRecord `json:"netlog,omitempty"`
}

// Save writes the store as deterministic JSONL in canonical order.
func (s *Store) Save(w io.Writer) error {
	pages, locals := s.snapshotAll()
	s.nmu.Lock()
	netlogs := make([]NetLogRecord, len(s.netlogs))
	copy(netlogs, s.netlogs)
	s.nmu.Unlock()
	sortAll(pages, locals, netlogs)
	return encodeJSONL(w, pages, locals, netlogs)
}

// encodeJSONL writes records in the Save line format, in the order
// given. Save and the WAL compactor (whose segments are canonical
// Save-format slices) share it, so segment bytes stay load-compatible
// with the golden-pinned export format.
func encodeJSONL(w io.Writer, pages []PageRecord, locals []LocalRequest, netlogs []NetLogRecord) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	enc := json.NewEncoder(bw)
	for i := range pages {
		if err := enc.Encode(envelope{T: "page", Page: &pages[i]}); err != nil {
			return err
		}
	}
	for i := range locals {
		if err := enc.Encode(envelope{T: "local", Local: &locals[i]}); err != nil {
			return err
		}
	}
	for i := range netlogs {
		if err := enc.Encode(envelope{T: "netlog", NetLog: &netlogs[i]}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Load reads JSONL previously written by Save, appending to the store.
//
// Loading into an already-populated store is append-merge: the incoming
// records join the resident ones, so several saved crawls (as in
// `knockquery -in a.jsonl,b.jsonl` or a server mounting multiple
// stores) become one queryable snapshot. Records are facts about
// individual visits — no deduplication is attempted, and loading the
// same file twice doubles its records. Saving the merged store yields
// the same canonical bytes regardless of load order, because Save sorts
// into the canonical (crawl, OS, rank, domain, ...) order.
//
// A decode error aborts the load mid-file: records before the corrupt
// line are already appended. Callers that need all-or-nothing mounting
// should load into a scratch store first.
//
// Records are committed in batches of up to 1024, each one commit (one
// generation step, one WAL record when a log is attached), not one
// commit per record; a retained NetLog capture ends its batch.
func (s *Store) Load(r io.Reader) error {
	return decodeJSONL(r, func(b *walPayload) { s.commit(b.Pages, b.Locals, b.NetLogs) })
}

// LoadFiles append-merges the stores saved at the given paths, in
// order, with Load's semantics. It is the shared mount path of the CLI
// tools and the serving layer.
func (s *Store) LoadFiles(paths ...string) error {
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		err = s.Load(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("store: loading %s: %w", path, err)
		}
	}
	return nil
}
