// Package serve is the serving side of the architecture: a stdlib-only
// HTTP service exposing crawl telemetry with two planes.
//
// The query plane serves concurrent JSON reads over one or more
// mounted stores — filtered record listings (/v1/locals, /v1/pages),
// per-site classification reports (/v1/site/{domain}), and the corpus
// summary (/v1/summary) — through the shared queryengine, with a
// bounded LRU response cache keyed on the canonical query. Cached
// responses are scope-tagged and revalidated against the store's
// commit-scope journal, so live ingest of one domain invalidates only
// the entries whose filter scope it intersects — not the whole cache.
//
// The ingest plane (/v1/ingest) accepts NetLog event streams as JSONL,
// parses them incrementally (no whole-body buffering), runs the same
// localnet detect → classify pipeline the offline crawler uses, commits
// the results to the live store via the sharded Batch API, and returns
// the detections.
//
// Production posture: per-plane concurrency limits answering 429 when
// saturated, per-plane request timeouts, graceful shutdown that drains
// in-flight ingests, and a /metrics endpoint serving the service's
// registry in Prometheus text.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"github.com/knockandtalk/knockandtalk/internal/health"
	"github.com/knockandtalk/knockandtalk/internal/report"
	"github.com/knockandtalk/knockandtalk/internal/serve/queryengine"
	"github.com/knockandtalk/knockandtalk/internal/store"
	"github.com/knockandtalk/knockandtalk/internal/telemetry"
	"github.com/knockandtalk/knockandtalk/internal/whois"
)

// Options tune the service; the zero value picks production defaults.
type Options struct {
	// QueryConcurrency caps simultaneous query-plane requests
	// (default 64). Excess requests receive 429.
	QueryConcurrency int
	// IngestConcurrency caps simultaneous ingest uploads (default 4).
	IngestConcurrency int
	// QueryTimeout bounds one query request (default 10s).
	QueryTimeout time.Duration
	// IngestTimeout bounds one ingest upload (default 60s).
	IngestTimeout time.Duration
	// CacheEntries bounds the query response cache (default 512 entries;
	// negative disables caching).
	CacheEntries int
	// MaxIngestBytes bounds one upload body (default 64 MiB). The bound
	// applies to the bytes on the wire and, for Content-Encoding: gzip
	// uploads, to the decompressed stream as well.
	MaxIngestBytes int64
	// MaxRows caps rows returned by a single listing query regardless of
	// the requested limit (default 10000; the total match count is
	// always reported).
	MaxRows int
	// Whois corroborates ingest-plane fraud-detection verdicts with
	// registrant evidence (§4.3.1) when non-nil, matching the offline
	// investigation path. Nil leaves verdicts signature-only.
	Whois *whois.Registry
	// Registry receives the service's operational metrics (requests,
	// rejections, cache, ingest, and pipeline-stage counters). Nil uses
	// a private registry; knockserved passes telemetry.Default() so the
	// debug endpoint and /metrics read the same process-wide state.
	Registry *telemetry.Registry
	// Tracer, when non-nil, records one per-visit trace per ingest
	// upload (parse → detect → classify → commit spans), in the same
	// JSONL form the crawler emits.
	Tracer *telemetry.Tracer
	// Health, when non-nil, registers the ingest plane as an open-ended
	// progress leg on the live operations plane: upload throughput and
	// failure rate become visible on /status alongside any crawls the
	// process runs.
	Health *health.Tracker
}

func (o Options) withDefaults() Options {
	if o.QueryConcurrency <= 0 {
		o.QueryConcurrency = 64
	}
	if o.IngestConcurrency <= 0 {
		o.IngestConcurrency = 4
	}
	if o.QueryTimeout <= 0 {
		o.QueryTimeout = 10 * time.Second
	}
	if o.IngestTimeout <= 0 {
		o.IngestTimeout = 60 * time.Second
	}
	if o.CacheEntries == 0 {
		o.CacheEntries = 512
	}
	if o.MaxIngestBytes <= 0 {
		o.MaxIngestBytes = 64 << 20
	}
	if o.MaxRows <= 0 {
		o.MaxRows = 10000
	}
	return o
}

// Server is the knockserved HTTP service.
type Server struct {
	eng     *queryengine.Engine
	opts    Options
	cache   *queryengine.Cache
	metrics *metrics
	// ingestLeg is the ingest plane's open-ended health progress leg
	// (nil-safe: a no-op when Options.Health is unset).
	ingestLeg *health.CrawlProgress
	queries   chan struct{} // query-plane semaphore
	ingests   chan struct{} // ingest-plane semaphore
	mux       *http.ServeMux
}

// New builds a server over an engine. Ingested telemetry is committed
// to the engine's store, so queries observe uploads immediately.
func New(eng *queryengine.Engine, opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		eng:       eng,
		opts:      opts,
		cache:     queryengine.NewCache(opts.CacheEntries),
		metrics:   newMetrics(opts.Registry),
		ingestLeg: opts.Health.StartCrawl("ingest", "live", 0, 0),
		queries:   make(chan struct{}, opts.QueryConcurrency),
		ingests:   make(chan struct{}, opts.IngestConcurrency),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/locals", s.query("/v1/locals", s.handleLocals))
	mux.HandleFunc("GET /v1/pages", s.query("/v1/pages", s.handlePages))
	mux.HandleFunc("GET /v1/site/{domain}", s.query("/v1/site/{domain}", s.handleSite))
	mux.HandleFunc("GET /v1/summary", s.query("/v1/summary", s.handleSummary))
	mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	mux.Handle("GET /metrics", health.MetricsHandler(s.metrics.reg))
	s.mux = mux
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Engine returns the underlying query engine.
func (s *Server) Engine() *queryengine.Engine { return s.eng }

// Registry returns the metrics registry the server writes to — the
// one passed in Options.Registry, or the server's private registry.
func (s *Server) Registry() *telemetry.Registry { return s.metrics.reg }

// Close releases derived state the server registered against its
// store (the shared site index). Call it after the HTTP server has
// shut down; the engine and store remain usable.
func (s *Server) Close() { s.eng.Close() }

// query wraps a query-plane endpoint with the plane's backpressure,
// timeout, caching, and metrics. endpoint is the route pattern — the
// low-cardinality label the per-endpoint latency histogram records
// under (never the raw path, which embeds the domain for /v1/site).
// Handlers parse the request and return the canonical cache key, the
// scope of the corpus the response depends on, and a render closure; a
// nil render means the handler already answered (bad request).
func (s *Server) query(endpoint string, h func(w http.ResponseWriter, r *http.Request) (key string, scope queryengine.Scope, render func() (any, error))) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.metrics.request(r.URL.Path)
		// Requests arriving with a W3C trace context join the caller's
		// trace: the handler records one server-side request span into
		// the trace sink (child of the propagated span), and the latency
		// histogram tags its bucket exemplar with the trace ID.
		sc, traced := telemetry.ExtractTraceContext(r.Header)
		var traceID string
		outcome := "ok"
		if traced {
			traceID = sc.TraceID.String()
			if vt := s.opts.Tracer.StartVisit("query", "serve", endpoint, r.URL.RequestURI(), 0); vt != nil {
				vt.SetSpanContext(telemetry.SpanContext{
					TraceID: sc.TraceID,
					SpanID:  telemetry.DeriveSpanID(sc.TraceID, "serve:"+endpoint+":"+sc.SpanID.String()),
				}, sc.SpanID)
				defer func() { vt.End(outcome, 0) }()
			}
		}
		select {
		case s.queries <- struct{}{}:
			s.metrics.queriesInflight.Add(1)
			defer func() {
				s.metrics.queriesInflight.Add(-1)
				<-s.queries
			}()
		default:
			outcome = "rejected"
			s.reject(w, "query")
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.opts.QueryTimeout)
		defer cancel()
		key, scope, render := h(w, r.WithContext(ctx))
		if render == nil { // handler already answered (bad request)
			outcome = "bad_request"
			return
		}
		// Response cache: canonical query key, scope-tagged. An entry
		// rendered at an older generation survives as long as no commit
		// since intersects its scope (the cache consults the store's
		// commit-scope journal via ChangedSince). The generation is
		// captured BEFORE rendering: a commit racing the render then makes
		// the entry look older than it may be — over-invalidation, never a
		// stale hit.
		gen := s.eng.Generation()
		if body, cacheOutcome := s.cache.Lookup(key, gen, s.eng.ChangedSince); cacheOutcome != queryengine.Miss {
			s.metrics.cacheHit(cacheOutcome)
			writeJSONBytes(w, body)
			s.metrics.query(endpoint, cacheOutcome.String(), time.Since(start), traceID)
			return
		}
		s.metrics.cacheMiss()
		v, err := render()
		if err != nil {
			outcome = "error"
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		if ctx.Err() != nil {
			outcome = "timeout"
			httpError(w, http.StatusServiceUnavailable, "query timed out")
			return
		}
		body, err := json.Marshal(v)
		if err != nil {
			outcome = "error"
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		s.cache.Put(key, body, gen, scope)
		writeJSONBytes(w, body)
		s.metrics.query(endpoint, queryengine.Miss.String(), time.Since(start), traceID)
	}
}

// reject answers a saturated plane: 429 with a retry hint.
func (s *Server) reject(w http.ResponseWriter, plane string) {
	s.metrics.rejected(plane)
	w.Header().Set("Retry-After", "1")
	httpError(w, http.StatusTooManyRequests, plane+" plane saturated")
}

// ListResponse is the wire envelope of /v1/locals and /v1/pages: the
// (possibly truncated) rows plus the total match count.
type ListResponse struct {
	Total int `json:"total"`
	Rows  any `json:"rows"`
}

func (s *Server) handleLocals(w http.ResponseWriter, r *http.Request) (string, queryengine.Scope, func() (any, error)) {
	q := r.URL.Query()
	f := queryengine.LocalsFilter{
		Domain: q.Get("domain"),
		Dest:   q.Get("dest"),
		OS:     q.Get("os"),
		Crawl:  q.Get("crawl"),
	}
	limit, err := parseLimit(q.Get("limit"), s.opts.MaxRows)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return "", queryengine.Scope{}, nil
	}
	f.Limit = limit
	return f.Key(), queryengine.Scope{Crawl: f.Crawl, Domain: f.Domain}, func() (any, error) {
		rows, total := s.eng.Locals(f)
		if rows == nil {
			rows = []store.LocalRequest{}
		}
		return ListResponse{Total: total, Rows: rows}, nil
	}
}

func (s *Server) handlePages(w http.ResponseWriter, r *http.Request) (string, queryengine.Scope, func() (any, error)) {
	q := r.URL.Query()
	f := queryengine.PagesFilter{
		Domain: q.Get("domain"),
		OS:     q.Get("os"),
		Crawl:  q.Get("crawl"),
		Err:    q.Get("err"),
	}
	limit, err := parseLimit(q.Get("limit"), s.opts.MaxRows)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return "", queryengine.Scope{}, nil
	}
	f.Limit = limit
	return f.Key(), queryengine.Scope{Crawl: f.Crawl, Domain: f.Domain}, func() (any, error) {
		rows, total := s.eng.Pages(f)
		if rows == nil {
			rows = []store.PageRecord{}
		}
		return ListResponse{Total: total, Rows: rows}, nil
	}
}

// SiteResponse is the wire form of /v1/site/{domain}.
type SiteResponse struct {
	Domain           string               `json:"domain"`
	Pages            []store.PageRecord   `json:"pages"`
	Locals           []store.LocalRequest `json:"locals"`
	LocalhostVerdict *report.JSONVerdict  `json:"localhost_verdict,omitempty"`
	LANVerdict       *report.JSONVerdict  `json:"lan_verdict,omitempty"`
}

func (s *Server) handleSite(_ http.ResponseWriter, r *http.Request) (string, queryengine.Scope, func() (any, error)) {
	domain := r.PathValue("domain")
	return queryengine.SiteKey(domain), queryengine.Scope{Domain: domain}, func() (any, error) {
		rep := s.eng.Site(domain)
		resp := SiteResponse{Domain: rep.Domain, Pages: rep.Pages, Locals: rep.Locals}
		if resp.Pages == nil {
			resp.Pages = []store.PageRecord{}
		}
		if resp.Locals == nil {
			resp.Locals = []store.LocalRequest{}
		}
		if rep.LocalhostVerdict != nil {
			v := report.VerdictJSON(*rep.LocalhostVerdict)
			resp.LocalhostVerdict = &v
		}
		if rep.LANVerdict != nil {
			v := report.VerdictJSON(*rep.LANVerdict)
			resp.LANVerdict = &v
		}
		return resp, nil
	}
}

// handleSummary declares the empty scope — the summary depends on the
// whole corpus, so every commit invalidates it.
func (s *Server) handleSummary(_ http.ResponseWriter, r *http.Request) (string, queryengine.Scope, func() (any, error)) {
	return "summary", queryengine.Scope{}, func() (any, error) {
		return report.SummaryJSON(s.eng.Store()), nil
	}
}

// parseLimit parses a ?limit= value, clamping to the server row cap.
// Absent means the cap; 0 would mean unlimited and is clamped too.
func parseLimit(raw string, max int) (int, error) {
	if raw == "" {
		return max, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad limit %q", raw)
	}
	if n == 0 || n > max {
		return max, nil
	}
	return n, nil
}

func writeJSON(w http.ResponseWriter, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSONBytes(w, body)
}

func writeJSONBytes(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
	w.Write([]byte("\n"))
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
