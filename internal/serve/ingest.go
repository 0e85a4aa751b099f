package serve

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"

	"github.com/knockandtalk/knockandtalk/internal/netlog"
	"github.com/knockandtalk/knockandtalk/internal/pipeline"
	"github.com/knockandtalk/knockandtalk/internal/report"
	"github.com/knockandtalk/knockandtalk/internal/store"
	"github.com/knockandtalk/knockandtalk/internal/telemetry"
)

// IngestResponse is the wire form of POST /v1/ingest: what the offline
// pipeline would have stored for this visit, returned to the uploader.
type IngestResponse struct {
	Crawl  string `json:"crawl"`
	OS     string `json:"os"`
	Domain string `json:"domain"`
	// Events is the number of NetLog events parsed from the stream.
	Events int `json:"events"`
	// Detections are the extracted local-network requests, in the same
	// record form the crawler stores.
	Detections []store.LocalRequest `json:"detections"`
	// LocalhostVerdict and LANVerdict carry the behavior classification
	// of this upload's detections, when any exist in that class.
	LocalhostVerdict *report.JSONVerdict `json:"localhost_verdict,omitempty"`
	LANVerdict       *report.JSONVerdict `json:"lan_verdict,omitempty"`
}

// handleIngest runs the detection pipeline online over one uploaded
// visit: NetLog JSONL events stream in, the localnet detector and the
// classifier run exactly as in the offline crawl, and the resulting
// records are committed to the live store in one sharded batch. The
// upload is all-or-nothing: a malformed line rejects the whole stream
// with its line number and commits nothing.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	s.metrics.request(r.URL.Path)
	select {
	case s.ingests <- struct{}{}:
		s.metrics.ingestsInflight.Add(1)
		defer func() {
			s.metrics.ingestsInflight.Add(-1)
			<-s.ingests
		}()
	default:
		s.metrics.ingestFailed()
		s.reject(w, "ingest")
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.IngestTimeout)
	defer cancel()
	start := time.Now()

	q := r.URL.Query()
	domain := q.Get("domain")
	if domain == "" {
		s.metrics.ingestFailed()
		httpError(w, http.StatusBadRequest, "domain query parameter is required")
		return
	}
	crawl := q.Get("crawl")
	if crawl == "" {
		crawl = "live"
	}
	osName := q.Get("os")
	if osName == "" {
		osName = "Linux"
	}
	rank := 0
	if raw := q.Get("rank"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			s.metrics.ingestFailed()
			httpError(w, http.StatusBadRequest, "bad rank "+strconv.Quote(raw))
			return
		}
		rank = n
	}
	url := q.Get("url")
	if url == "" {
		url = "https://" + domain + "/"
	}
	var committedAt time.Duration
	if raw := q.Get("committed_at"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d < 0 {
			s.metrics.ingestFailed()
			httpError(w, http.StatusBadRequest, "bad committed_at "+strconv.Quote(raw))
			return
		}
		committedAt = d
	}
	// Query values are substrings of the request line. The records
	// committed below keep interned copies instead, so none of them
	// holds the line alive and repeated values share one copy.
	crawl, osName, domain, url = pipeline.Intern(crawl), pipeline.Intern(osName), pipeline.Intern(domain), pipeline.Intern(url)
	category := pipeline.Intern(q.Get("category"))

	// One trace record per upload, in the same form the crawler emits;
	// the deferred End reports the final outcome whichever path returns.
	// An uploader that propagated a W3C trace context parents the ingest
	// record under its span; otherwise the ingest roots its own trace,
	// derived from the visit identity exactly as the crawler derives it,
	// so an ingest replay of a simulated visit shares its trace ID.
	vt := s.opts.Tracer.StartVisit(crawl, osName, domain, url, rank)
	if vt != nil {
		traceID, parent := telemetry.TraceID{}, telemetry.SpanID{}
		if sc, ok := telemetry.ExtractTraceContext(r.Header); ok {
			traceID, parent = sc.TraceID, sc.SpanID
		} else {
			traceID = telemetry.DeriveTraceID(0, crawl, osName, url)
		}
		vt.SetSpanContext(telemetry.SpanContext{
			TraceID: traceID,
			SpanID:  telemetry.DeriveSpanID(traceID, "ingest:"+domain),
		}, parent)
	}
	outcome := "ok"
	log := &netlog.Log{}
	defer func() {
		vt.End(outcome, log.Len())
		// The ingest plane has no fixed worker slots; -1 skips the
		// per-worker bookkeeping while still feeding throughput and
		// failure rate.
		s.ingestLeg.VisitDone(-1, time.Since(start), outcome == "ok")
	}()

	// Parse the stream incrementally: one event per Next call, bounded
	// body (gzip-compressed uploads are decompressed transparently, with
	// the decompressed stream bounded too), periodic deadline checks.
	// Only the decoded events are held; the raw JSONL is never buffered.
	body, err := RequestBody(w, r, s.opts.MaxIngestBytes)
	if err != nil {
		s.metrics.ingestFailed()
		outcome = err.Error()
		if errors.Is(err, ErrUnsupportedEncoding) {
			httpError(w, http.StatusUnsupportedMediaType, err.Error())
			return
		}
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	parseStart := time.Now()
	dec := netlog.NewJSONLReader(body)
	for {
		ev, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			s.metrics.ingestFailed()
			outcome = err.Error()
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) || errors.Is(err, ErrBodyTooLarge) {
				httpError(w, http.StatusRequestEntityTooLarge, err.Error())
				return
			}
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		log.Events = append(log.Events, ev)
		if len(log.Events)%1024 == 0 && ctx.Err() != nil {
			s.metrics.ingestFailed()
			outcome = "ingest timed out"
			httpError(w, http.StatusServiceUnavailable, "ingest timed out")
			return
		}
	}
	// Elapsed time is measured once and fed to the span and the stage
	// counters alike — the trace file and /metrics cannot disagree.
	parseElapsed := time.Since(parseStart)
	vt.Add("parse", parseStart, parseElapsed, log.Len())
	s.metrics.stage("parse", log.Len(), parseElapsed, vt.TraceIDString())

	// The offline pipeline, online: the same canonical detect →
	// classify path the crawler and the examples run, with verdicts
	// corroborated via WHOIS when the server mounts a registry, and
	// per-stage timings feeding /metrics and the visit trace.
	out := pipeline.Process(log, pipeline.Visit{
		Crawl: crawl, OS: osName, Domain: domain, Rank: rank,
		Category: category, URL: url, CommittedAt: committedAt,
	}, pipeline.Options{
		Classify: true,
		Whois:    s.opts.Whois,
		Meters:   s.metrics.stages,
		Trace:    vt,
	})
	resp := IngestResponse{Crawl: crawl, OS: osName, Domain: domain, Events: log.Len()}
	resp.Detections = out.Locals
	if resp.Detections == nil {
		resp.Detections = []store.LocalRequest{}
	}

	classCounts := map[string]int{}
	if out.LocalhostVerdict != nil {
		v := report.VerdictJSON(*out.LocalhostVerdict)
		resp.LocalhostVerdict = &v
		classCounts[v.Class] += len(out.Localhost)
	}
	if out.LANVerdict != nil {
		v := report.VerdictJSON(*out.LANVerdict)
		resp.LANVerdict = &v
		classCounts[v.Class] += len(out.LAN)
	}

	// Commit the visit in one sharded batch (all records share the
	// domain, hence the shard) and retain the capture if asked. The
	// store bumps its generation on commit, so cached query responses
	// and the site index go stale on their own.
	st := s.eng.Store()
	var batch store.Batch
	out.StageInto(&batch)
	commitStart := time.Now()
	st.AddBatch(&batch)
	commitElapsed := time.Since(commitStart)
	vt.Add("commit", commitStart, commitElapsed, batch.Len())
	s.metrics.stage("commit", batch.Len(), commitElapsed, vt.TraceIDString())
	if q.Get("retain") == "1" && len(out.Findings) > 0 {
		nlStart := time.Now()
		err := st.AddNetLog(crawl, osName, domain, log)
		nlElapsed := time.Since(nlStart)
		s.metrics.stage("netlog", 1, nlElapsed, vt.TraceIDString())
		if err != nil {
			// Retention is best-effort, as in the crawler; the records
			// are committed regardless.
			vt.AddErr("netlog", nlStart, nlElapsed, 0, "retention failed")
			s.metrics.ingestFailed()
			s.ingestLeg.RetentionError()
		} else {
			vt.Add("netlog", nlStart, nlElapsed, 1)
		}
	}
	s.metrics.ingested(log.Len(), len(resp.Detections), time.Since(start), classCounts)
	writeJSON(w, resp)
}
