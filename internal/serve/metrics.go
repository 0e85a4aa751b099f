package serve

import (
	"time"

	"github.com/knockandtalk/knockandtalk/internal/pipeline"
	"github.com/knockandtalk/knockandtalk/internal/serve/queryengine"
	"github.com/knockandtalk/knockandtalk/internal/telemetry"
)

// Registry metric families the service maintains. Per-path and
// per-plane counters are labeled; GET /metrics renders the registry in
// Prometheus text, so the wire shape is the registry itself.
const (
	MetricRequests         = "serve_requests_total" // label: path
	MetricRejected         = "serve_rejected_total" // label: plane
	MetricInflight         = "serve_inflight"       // gauge, label: plane
	MetricCacheHits        = "serve_cache_hits_total"
	MetricCacheMisses      = "serve_cache_misses_total"
	MetricCacheRevalidated = "serve_cache_revalidated_total" // hits fast-forwarded across generations
	MetricIngestUploads    = "serve_ingest_uploads_total"
	MetricIngestFailed     = "serve_ingest_failed_total"
	MetricIngestEvents     = "serve_ingest_events_total"
	MetricIngestDetections = "serve_ingest_detections_total"
	MetricIngestBusyNS     = "serve_ingest_busy_ns"
	MetricIngestNS         = "serve_ingest_ns"                  // histogram
	MetricIngestByClass    = "serve_ingest_detections_by_class" // label: class
	// MetricQueryNS is the query plane's server-observed latency
	// histogram, labeled by endpoint (the route pattern) and cache
	// outcome (hit/miss/revalidated). It is the server-side half of the
	// knockload report: client-observed tails compare against it.
	MetricQueryNS = "serve_query_ns"
)

// metrics holds the service's operational counters, all registered in
// a telemetry.Registry (the server's own by default, or a process-wide
// one the binary passes in Options.Registry). Fixed-name hot-path
// handles are pre-resolved; per-label counters (path, plane, class)
// resolve through the registry's read-locked fast path.
type metrics struct {
	reg *telemetry.Registry

	hits, misses    *telemetry.Counter
	reval           *telemetry.Counter
	uploads, failed *telemetry.Counter
	events, found   *telemetry.Counter
	ingestNS        *telemetry.Counter
	ingestHist      *telemetry.Histogram
	queriesInflight *telemetry.Gauge
	ingestsInflight *telemetry.Gauge
	stages          *pipeline.StageMeters
}

func newMetrics(reg *telemetry.Registry) *metrics {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &metrics{
		reg:             reg,
		hits:            reg.Counter(MetricCacheHits),
		misses:          reg.Counter(MetricCacheMisses),
		reval:           reg.Counter(MetricCacheRevalidated),
		uploads:         reg.Counter(MetricIngestUploads),
		failed:          reg.Counter(MetricIngestFailed),
		events:          reg.Counter(MetricIngestEvents),
		found:           reg.Counter(MetricIngestDetections),
		ingestNS:        reg.Counter(MetricIngestBusyNS),
		ingestHist:      reg.Histogram(MetricIngestNS),
		queriesInflight: reg.Gauge(MetricInflight, "plane", "query"),
		ingestsInflight: reg.Gauge(MetricInflight, "plane", "ingest"),
		stages:          pipeline.NewStageMeters(reg),
	}
}

// stage records one pipeline-stage execution with a pre-measured
// elapsed time. The ingest handler's extra stages (parse, commit,
// netlog) report through it with the same single measurement their
// trace spans carry, so a trace file and /metrics agree on busy time.
// A non-empty traceID tags the latency bucket's exemplar.
func (m *metrics) stage(name string, items int, elapsed time.Duration, traceID string) {
	m.reg.Counter(pipeline.MetricStageRuns, "stage", name).Inc()
	m.reg.Counter(pipeline.MetricStageItems, "stage", name).Add(uint64(items))
	m.reg.Counter(pipeline.MetricStageBusyNS, "stage", name).Add(uint64(elapsed))
	m.reg.Histogram(pipeline.MetricStageNS, "stage", name).ObserveDurationExemplar(elapsed, traceID)
}

func (m *metrics) request(path string) {
	m.reg.Counter(MetricRequests, "path", path).Inc()
}

// query records one answered query-plane request: full handler time
// (queueing, cache lookup, render, serialization, write) under the
// endpoint's route pattern and the cache outcome that produced the
// response. Requests that arrived with a trace context tag the latency
// bucket's exemplar with their trace ID.
func (m *metrics) query(endpoint, cache string, elapsed time.Duration, traceID string) {
	m.reg.Histogram(MetricQueryNS, "endpoint", endpoint, "cache", cache).ObserveDurationExemplar(elapsed, traceID)
}

func (m *metrics) rejected(plane string) {
	m.reg.Counter(MetricRejected, "plane", plane).Inc()
}

// cacheHit counts a response served from the cache; a revalidated
// entry counts as a hit and as a revalidation.
func (m *metrics) cacheHit(o queryengine.Outcome) {
	m.hits.Inc()
	if o == queryengine.Revalidated {
		m.reval.Inc()
	}
}

func (m *metrics) cacheMiss() { m.misses.Inc() }

func (m *metrics) ingested(events, detections int, elapsed time.Duration, classes map[string]int) {
	m.uploads.Inc()
	m.events.Add(uint64(events))
	m.found.Add(uint64(detections))
	m.ingestNS.Add(uint64(elapsed))
	m.ingestHist.ObserveDuration(elapsed)
	for class, n := range classes {
		m.reg.Counter(MetricIngestByClass, "class", class).Add(uint64(n))
	}
}

func (m *metrics) ingestFailed() { m.failed.Inc() }
