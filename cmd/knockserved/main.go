// Command knockserved serves crawl telemetry over HTTP: concurrent
// JSON queries over mounted stores plus live ingestion of NetLog event
// streams through the same detection pipeline the offline crawler
// runs.
//
// Usage:
//
//	knockserved -in run/top100k-2020.jsonl,run/top100k-2021.jsonl
//	knockserved -in crawl.jsonl -addr :8080 -save live.jsonl
//	knockserved -in crawl.jsonl -wal-dir ./live.wal   # durable ingest: crash-safe, remounts on restart
//
// Endpoints:
//
//	GET  /v1/locals?domain=&dest=&os=&crawl=&limit=   local-request records
//	GET  /v1/pages?domain=&os=&crawl=&err=&limit=     page records
//	GET  /v1/site/{domain}                            per-site report + verdicts
//	GET  /v1/summary                                  corpus summary
//	POST /v1/ingest?domain=&os=&crawl=&...            NetLog JSONL stream in, detections out
//	GET  /metrics                                     the metrics registry (Prometheus text)
//
// The -debug-addr listener additionally carries the operations plane:
// /status (live progress + alerts), /healthz (readiness), the same
// Prometheus /metrics, pprof, and expvar's standard variables.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/knockandtalk/knockandtalk/internal/health"
	"github.com/knockandtalk/knockandtalk/internal/serve"
	"github.com/knockandtalk/knockandtalk/internal/serve/queryengine"
	"github.com/knockandtalk/knockandtalk/internal/store"
	"github.com/knockandtalk/knockandtalk/internal/telemetry"
)

var logger *slog.Logger

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8080", "listen address")
		in        = flag.String("in", "", "comma-separated JSONL store paths to mount (optional)")
		save      = flag.String("save", "", "write the store (including ingested telemetry) to this path on shutdown")
		queryConc = flag.Int("query-concurrency", 64, "max simultaneous query requests before 429")
		ingConc   = flag.Int("ingest-concurrency", 4, "max simultaneous ingest uploads before 429")
		queryTO   = flag.Duration("query-timeout", 10*time.Second, "per-query deadline")
		ingTO     = flag.Duration("ingest-timeout", 60*time.Second, "per-upload deadline")
		cacheN    = flag.Int("cache", 512, "response cache entries (negative disables)")
		walDir    = flag.String("wal-dir", "", "durable WAL directory: ingested telemetry is journaled and checkpointed; a prior run found there is remounted instead of -in")
		drainTO   = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
		debugAddr = flag.String("debug-addr", "", "serve /status, /healthz, Prometheus /metrics, pprof, and expvar on this address (e.g. 127.0.0.1:6060)")
		traceOut  = flag.String("trace-out", "", "write one JSONL trace record per ingested visit to this path (inspect with knocktrace)")
		logFormat = flag.String("log-format", "text", "diagnostic log format: text or json")
	)
	flag.Parse()
	telemetry.RegisterBuildInfo(nil)

	var err error
	logger, err = health.NewLogger(*logFormat, "knockserved")
	if err != nil {
		fmt.Fprintf(os.Stderr, "knockserved: %v\n", err)
		os.Exit(1)
	}

	// The tracker exists for the process lifetime; readiness is held
	// false until the service listener is up and cleared again at drain,
	// so /healthz tracks whether this instance should receive traffic.
	tracker := health.New(health.Options{})
	tracker.SetReady(false)

	st := store.New()
	var lg *store.Log
	if *walDir != "" {
		// Durable serving: ingested telemetry commits through the WAL, so
		// a crashed instance restarts with everything it had accepted. A
		// directory that replays records is the source of truth and the
		// -in exports are skipped; an empty one is seeded from -in (the
		// load is journaled, making the WAL self-contained).
		var rec store.Recovery
		st, lg, rec, err = store.Open(*walDir, store.LogOptions{})
		if err != nil {
			fatal("opening wal", "dir", *walDir, "err", err)
		}
		if n := rec.SegmentRecords + rec.WALRecords; n > 0 {
			// The journal is the source of truth and -in is skipped; say
			// so loudly (Warn on a truncated tail) so a partial remount is
			// visible rather than silently serving a smaller corpus.
			lvl := slog.LevelInfo
			if rec.Truncated {
				lvl = slog.LevelWarn
			}
			logger.Log(context.Background(), lvl, "wal recovered, serving journal instead of -in",
				"dir", *walDir, "records", n, "segments", rec.Segments,
				"segment_records", rec.SegmentRecords, "wal_records", rec.WALRecords,
				"truncated_tail", rec.Truncated, "tail_err", rec.TailErr)
			*in = ""
		}
	}
	if *in != "" {
		var paths []string
		for _, p := range strings.Split(*in, ",") {
			paths = append(paths, strings.TrimSpace(p))
		}
		if err := st.LoadFiles(paths...); err != nil {
			fatal("loading stores", "err", err)
		}
		if lg != nil {
			// The seed load was journaled through the WAL's buffered
			// writer; make it durable before serving. Otherwise a crash
			// before the first ticker checkpoint leaves a partial journal
			// that a restart would silently prefer over the full -in
			// export.
			if err := lg.Checkpoint(); err != nil {
				fatal("checkpointing seeded wal", "dir", *walDir, "err", err)
			}
			logger.Info("wal seeded from -in", "dir", *walDir,
				"pages", st.NumPages(), "locals", st.NumLocals(), "netlogs", st.NumNetLogs())
		}
	}
	var tracer *telemetry.Tracer
	if *traceOut != "" {
		tf, err := os.Create(*traceOut)
		if err != nil {
			fatal("creating trace file", "path", *traceOut, "err", err)
		}
		defer tf.Close()
		tracer = telemetry.NewTracer(tf, telemetry.TracerOptions{Registry: telemetry.Default()})
	}
	eng := queryengine.New(st)
	srv := serve.New(eng, serve.Options{
		QueryConcurrency:  *queryConc,
		IngestConcurrency: *ingConc,
		QueryTimeout:      *queryTO,
		IngestTimeout:     *ingTO,
		CacheEntries:      *cacheN,
		Registry:          telemetry.Default(),
		Tracer:            tracer,
		Health:            tracker,
	})

	wd := health.NewWatchdog(tracker, health.WatchdogOptions{
		TraceDrops: tracer.Dropped, Logger: logger, Registry: srv.Registry(),
	})
	wd.Start()
	defer wd.Stop()

	if *debugAddr != "" {
		go serveDebug(*debugAddr, tracker, srv.Registry())
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	if lg != nil {
		// Periodic durability point: accepted ingests become crash-safe
		// within a second. The ticker goroutine exits when Close makes
		// Checkpoint fail (shutdown) — never fatal mid-serve.
		ticker := time.NewTicker(time.Second)
		defer ticker.Stop()
		go func() {
			for range ticker.C {
				if err := lg.Checkpoint(); err != nil {
					return
				}
			}
		}()
	}
	tracker.SetReady(true)
	logger.Info("listening", "addr", *addr,
		"pages", st.NumPages(), "locals", st.NumLocals(), "netlogs", st.NumNetLogs())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fatal("listener failed", "err", err)
	case <-ctx.Done():
	}

	// Graceful shutdown: flip readiness so load balancers stop routing
	// here, then stop accepting and drain in-flight requests (ingest
	// uploads included) within the drain budget.
	tracker.SetReady(false)
	logger.Info("draining")
	shCtx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	if err := hs.Shutdown(shCtx); err != nil {
		logger.Error("drain incomplete", "err", err)
	}
	srv.Close()
	if lg != nil {
		// The drain has quiesced ingest; flush whatever the last ticker
		// checkpoint missed and detach the WAL.
		if err := lg.Close(); err != nil {
			logger.Error("closing wal", "err", err)
		} else {
			logger.Info("wal closed", "dir", *walDir)
		}
	}
	if tracer != nil {
		if err := tracer.Close(); err != nil {
			logger.Error("writing trace", "err", err)
		} else {
			logger.Info("trace written", "path", *traceOut,
				"records", tracer.Written(), "dropped", tracer.Dropped())
		}
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			fatal("saving store", "err", err)
		}
		if err := st.Save(f); err != nil {
			fatal("saving store", "err", err)
		}
		if err := f.Close(); err != nil {
			fatal("saving store", "err", err)
		}
		logger.Info("store saved", "path", *save)
	}
}

// serveDebug exposes the operational surface on its own listener,
// separate from the service planes: the health endpoints (/status,
// /healthz, Prometheus /metrics), pprof profiles, and expvar's
// standard variables (/debug/vars).
func serveDebug(addr string, tracker *health.Tracker, reg *telemetry.Registry) {
	mux := http.NewServeMux()
	health.Mount(mux, tracker, reg)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	logger.Info("debug listener up", "addr", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		logger.Error("debug listener failed", "addr", addr, "err", err)
	}
}

func fatal(msg string, args ...any) {
	logger.Error(msg, args...)
	os.Exit(1)
}
