// Package queryengine is the shared query core over crawl telemetry:
// one implementation of the filter/aggregate surface that both the
// knockquery CLI and the knockserved HTTP service call, so the two
// interrogation paths cannot drift. An Engine wraps a store.Store
// (itself safe for concurrent use) and answers filtered record
// queries, per-site classification reports, and corpus summaries.
//
// Every filter renders to a canonical key (Key methods) that
// identifies a result uniquely within a store generation — the
// contract the serving layer's response cache is built on. The cache
// no longer discards everything on a generation bump: entries carry
// the Scope their filter pinned, and ChangedSince exposes the store's
// commit-scope journal so only entries whose scope intersects a commit
// are invalidated (surgical invalidation).
package queryengine

import (
	"fmt"

	"github.com/knockandtalk/knockandtalk/internal/classify"
	"github.com/knockandtalk/knockandtalk/internal/netlog"
	"github.com/knockandtalk/knockandtalk/internal/pipeline"
	"github.com/knockandtalk/knockandtalk/internal/store"
)

// Engine answers queries over one mounted store. Safe for concurrent
// use. The mutation epoch is the store's own generation counter, so
// every write path — ingest batches, direct store appends — invalidates
// cached results without explicit coordination.
type Engine struct {
	st *store.Store
}

// New wraps a store (typically populated via store.LoadFiles, possibly
// merging several crawls) in an engine.
func New(st *store.Store) *Engine { return &Engine{st: st} }

// Store exposes the underlying store for writers (the ingest plane)
// and for reports that consume a *store.Store directly.
func (e *Engine) Store() *store.Store { return e.st }

// Generation returns the store's mutation epoch. It changes on every
// store write; results computed at different generations must not be
// conflated.
func (e *Engine) Generation() uint64 { return e.st.Generation() }

// BumpGeneration forces a new mutation epoch. Store writers no longer
// need it (every Add* path bumps on its own); it remains for callers
// that mutate store state out of band.
func (e *Engine) BumpGeneration() { e.st.BumpGeneration() }

// ChangedSince reports the scopes of every commit after generation gen
// from the store's commit-scope journal. ok is false when the journal
// no longer covers that span (the caller must assume anything
// changed). This is the cache's revalidation oracle.
func (e *Engine) ChangedSince(gen uint64) ([]store.CommitScope, bool) {
	return e.st.ScopesSince(gen)
}

// Close releases resources derived from the engine's store — today the
// process-wide site index registered by pipeline.IndexFor. The store
// itself is not owned by the engine and stays usable.
func (e *Engine) Close() { pipeline.ReleaseIndex(e.st) }

// LocalsFilter selects local-request records. Zero-valued fields match
// everything; Limit 0 means unlimited.
type LocalsFilter struct {
	Domain string
	Dest   string
	OS     string
	Crawl  string
	Limit  int
}

// Key renders the filter canonically: fixed field order, so two
// equivalent filters always share a cache entry.
func (f LocalsFilter) Key() string {
	return fmt.Sprintf("locals|crawl=%s|dest=%s|domain=%s|os=%s|limit=%d",
		f.Crawl, f.Dest, f.Domain, f.OS, f.Limit)
}

// Locals returns the matching local requests in canonical store order,
// truncated to Limit, plus the total match count before truncation.
// Sorting keeps listings stable across processes; raw shard iteration
// order depends on a per-process hash seed. Only the rows returned are
// copied out of the store (store.SelectLocals).
func (e *Engine) Locals(f LocalsFilter) ([]store.LocalRequest, int) {
	return e.st.SelectLocals(f.Domain, func(l *store.LocalRequest) bool {
		return (f.Dest == "" || l.Dest == f.Dest) &&
			(f.OS == "" || l.OS == f.OS) &&
			(f.Crawl == "" || l.Crawl == f.Crawl)
	}, f.Limit)
}

// PagesFilter selects page records. Zero-valued fields match
// everything; Limit 0 means unlimited.
type PagesFilter struct {
	Domain string
	OS     string
	Crawl  string
	Err    string
	Limit  int
}

// Key renders the filter canonically.
func (f PagesFilter) Key() string {
	return fmt.Sprintf("pages|crawl=%s|domain=%s|err=%s|os=%s|limit=%d",
		f.Crawl, f.Domain, f.Err, f.OS, f.Limit)
}

// Pages returns the matching page records in canonical store order,
// truncated to Limit, plus the total match count before truncation.
func (e *Engine) Pages(f PagesFilter) ([]store.PageRecord, int) {
	return e.st.SelectPages(f.Domain, func(p *store.PageRecord) bool {
		return (f.OS == "" || p.OS == f.OS) &&
			(f.Crawl == "" || p.Crawl == f.Crawl) &&
			(f.Err == "" || p.Err == f.Err)
	}, f.Limit)
}

// SiteReport is one domain's full telemetry: its page visits, its
// local-network requests, and the behavior verdicts the offline
// pipeline assigns to its localhost and LAN traffic.
type SiteReport struct {
	Domain string
	Pages  []store.PageRecord
	Locals []store.LocalRequest
	// LocalhostVerdict and LANVerdict are nil when the site produced no
	// traffic in that destination class.
	LocalhostVerdict *classify.Verdict
	LANVerdict       *classify.Verdict
}

// SiteKey is the canonical cache key for a Site query.
func SiteKey(domain string) string { return "site|domain=" + domain }

// Site assembles one domain's report across all mounted crawls and
// OSes from the store's materialized site index — an O(1) lookup with
// the same records and verdicts the offline pipeline produces, instead
// of a full-store rescan per call.
func (e *Engine) Site(domain string) SiteReport {
	view := pipeline.IndexFor(e.st).Site(domain)
	rep := SiteReport{Domain: domain, Pages: view.Pages, Locals: view.Locals}
	if view.LocalhostVerdict != nil {
		v := *view.LocalhostVerdict
		rep.LocalhostVerdict = &v
	}
	if view.LANVerdict != nil {
		v := *view.LANVerdict
		rep.LANVerdict = &v
	}
	return rep
}

// NetLog retrieves a retained capture, delegating to the store. It
// completes the engine surface so knockquery needs no direct store
// access.
func (e *Engine) NetLog(crawl, os, domain string) (*netlog.Log, bool, error) {
	return e.st.NetLog(crawl, os, domain)
}
