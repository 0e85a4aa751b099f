package health

import (
	"encoding/json"
	"log/slog"
	"net"
	"net/http"

	"github.com/knockandtalk/knockandtalk/internal/telemetry"
)

// Mount wires the health endpoints onto an existing mux (knockserved
// folds them into its -debug-addr listener):
//
//	/status  — JSON progress per crawl leg plus active alerts
//	/healthz — liveness + readiness (200 while ready, 503 otherwise)
//	/metrics — the registry in Prometheus text exposition format
//
// reg nil uses the process-default registry.
func Mount(mux *http.ServeMux, t *Tracker, reg *telemetry.Registry) {
	if reg == nil {
		reg = telemetry.Default()
	}
	mux.HandleFunc("GET /status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(t.Status())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if t.Ready() {
			w.Write([]byte("ok\n"))
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("not ready\n"))
	})
	mux.Handle("GET /metrics", MetricsHandler(reg))
}

// MetricsHandler serves reg in Prometheus text exposition format: the
// one metrics rendering every process exposes, on the health plane and
// on knockserved's API plane alike.
func MetricsHandler(reg *telemetry.Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// Handler returns a standalone mux carrying the health endpoints.
func Handler(t *Tracker, reg *telemetry.Registry) http.Handler {
	mux := http.NewServeMux()
	Mount(mux, t, reg)
	return mux
}

// Serve starts the status listener on addr and returns the bound
// address (addr may use port 0) and a shutdown func. addr "" disables
// the listener: the returned stop is a no-op and the address empty,
// so callers thread the flag through unconditionally.
func Serve(addr string, t *Tracker, reg *telemetry.Registry, logger *slog.Logger) (string, func(), error) {
	if addr == "" {
		return "", func() {}, nil
	}
	if logger == nil {
		logger = slog.Default()
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: Handler(t, reg)}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			logger.Error("status listener failed", "addr", ln.Addr().String(), "err", err)
		}
	}()
	logger.Info("status listener up", "addr", ln.Addr().String())
	stop := func() { srv.Close() }
	return ln.Addr().String(), stop, nil
}
