package service

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// BenchmarkWarmHitObservability times the observability middleware on
// the cheapest path the service has — a warm cache hit — with trace
// retention on (default ring buffer) versus off. Both record each
// request's span tree, which the access log reads, so the delta is the
// price of retaining it; keeping tracing cheap is an explicit goal
// (tracing must be affordable in production, not a debug-only mode).
func BenchmarkWarmHitObservability(b *testing.B) {
	body := `{"kind":"mg1","mg1":{"spec":{"classes":[{"rate":0.5,"service_mean":1,"hold_cost":2}]},"policy":"cmu","horizon":20,"burnin":2},"seed":7,"replications":3}`
	run := func(b *testing.B, cfg Config) {
		b.Helper()
		h := New(cfg).Handler()
		warm := httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(body))
		h.ServeHTTP(httptest.NewRecorder(), warm)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req := httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				b.Fatalf("code %d", w.Code)
			}
		}
	}
	b.Run("tracing", func(b *testing.B) { run(b, Config{}) })
	b.Run("no-retention", func(b *testing.B) { run(b, Config{TraceBuffer: -1}) })
}
