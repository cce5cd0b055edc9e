package service

import (
	"io"
	"log/slog"
	"net/http"
	"time"

	"stochsched/internal/obs"
	"stochsched/pkg/api"
)

// This file is the server's observability surface: the instrumentation
// middleware every request passes through (request IDs, trace recording,
// the structured access log), GET /v1/trace/{id}, and GET /readyz. The
// Prometheus exposition lives in prometheus.go; the substrate (spans,
// traces, the ring buffer) in internal/obs.

// instrument wraps the route mux with per-request observability: it
// assigns a process-unique request id (echoed as X-Request-Id on every
// response), opens a trace whose spans the handlers below record into,
// retains the finished trace in the ring buffer for GET /v1/trace/{id}
// (a ring of capacity 0, retention off, keeps none), and emits one
// structured access-log line from the trace root's annotations. None of it
// touches response bodies — the byte-identity guarantees are indifferent
// to tracing.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		begin := time.Now()
		id := obs.NewRequestID()
		w.Header().Set("X-Request-Id", id)

		tr := obs.NewTrace(id)
		ctx := obs.WithTrace(r.Context(), tr)
		r = r.WithContext(ctx)
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		tr.Finish()
		s.rec.Add(tr)

		if s.log.Enabled(ctx, levelFor(sw.status())) {
			s.accessLog(r, id, tr, sw.status(), time.Since(begin))
		}
	})
}

// levelFor maps a response status onto the access-log level: server
// faults are warnings (they demand attention even at the default level),
// everything else — including client errors and sheds, which are the
// service working as designed — logs at info.
func levelFor(status int) slog.Level {
	if status >= 500 {
		return slog.LevelWarn
	}
	return slog.LevelInfo
}

// accessLog emits the one structured line per request. Request-level
// facts the handlers annotated onto the trace root (endpoint, scenario
// kind, spec hash, cache outcome) ride along when present.
func (s *Server) accessLog(r *http.Request, id string, tr *obs.Trace, status int, d time.Duration) {
	attrs := make([]any, 0, 16)
	attrs = append(attrs,
		"request_id", id,
		"method", r.Method,
		"path", r.URL.Path,
		"status", status,
		"latency_ms", float64(d.Nanoseconds())/1e6,
	)
	root := tr.Root()
	for _, key := range []string{"endpoint", "kind", "spec_hash", "outcome"} {
		if v := root.Attr(key); v != "" {
			attrs = append(attrs, key, v)
		}
	}
	s.log.Log(r.Context(), levelFor(status), "request", attrs...)
}

// statusWriter records the response status for the access log. Flush is
// forwarded so NDJSON streaming (sweep results) keeps working through the
// wrapper.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// status returns the recorded status (200 when the handler never wrote —
// net/http sends 200 on an empty-bodied return).
func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// handleTrace serves GET /v1/trace/{id}: the retained span tree of a
// recent request, identified by the X-Request-Id its response carried.
// Traces survive for the last TraceBuffer requests; beyond that (or with
// retention disabled) the answer is 404.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	tr, ok := s.rec.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, api.ErrCodeNotFound,
			"unknown request id (traces survive for the last N requests; see -trace-buffer)")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, tr.Snapshot())
}

// handleReadyz serves GET /readyz — readiness, as distinct from the
// /healthz liveness probe. The node is unready (503 + the standard error
// envelope) when a boot-time state restore is still in progress (the
// cache and job store are cold-loading — see Server.SetRestoring) or when
// admission would shed a new request right now: every execution slot busy
// and the interactive queue at its bound. A load balancer draining on
// /readyz steers traffic away before clients see 429s, and cluster peers
// probing it treat an unready node as down (degraded-mode local
// fallback); /healthz stays 200 throughout, so the process is not killed
// for being busy.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.restoring.Load() {
		writeError(w, http.StatusServiceUnavailable, api.ErrCodeUnavailable,
			"state restore in progress")
		return
	}
	if s.admit.Saturated() {
		writeError(w, http.StatusServiceUnavailable, api.ErrCodeOverloaded,
			"admission queue saturated: new requests would be shed")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}
