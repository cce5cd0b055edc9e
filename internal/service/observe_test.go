package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"stochsched/pkg/api"
)

const simulateBody = `{"kind":"mg1","mg1":{"spec":{"classes":[{"rate":0.5,"service_mean":1,"hold_cost":2}]},"policy":"cmu","horizon":20,"burnin":2},"seed":7,"replications":3}`

// get issues a GET against the handler.
func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestEveryResponseCarriesRequestID(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	seen := make(map[string]bool)
	probes := []*httptest.ResponseRecorder{
		post(t, h, "/v1/index", gittinsIndexBody),
		post(t, h, "/v1/simulate", `not json`), // 400 path
		get(t, h, "/healthz"),
		get(t, h, "/v1/stats"),
		get(t, h, "/metrics"),
		get(t, h, "/v1/trace/nope"), // 404 path
	}
	for i, w := range probes {
		id := w.Header().Get("X-Request-Id")
		if id == "" {
			t.Errorf("probe %d: no X-Request-Id header (status %d)", i, w.Code)
			continue
		}
		if seen[id] {
			t.Errorf("probe %d: duplicate request id %q", i, id)
		}
		seen[id] = true
	}
}

// spanNames flattens a span tree into its set of span names.
func spanNames(s *api.Span, into map[string]*api.Span) {
	into[s.Name] = s
	for i := range s.Children {
		spanNames(&s.Children[i], into)
	}
}

// fetchTrace resolves a response's X-Request-Id into its trace.
func fetchTrace(t *testing.T, h http.Handler, w *httptest.ResponseRecorder) *api.TraceResponse {
	t.Helper()
	id := w.Header().Get("X-Request-Id")
	if id == "" {
		t.Fatal("response has no X-Request-Id")
	}
	tw := get(t, h, "/v1/trace/"+id)
	if tw.Code != http.StatusOK {
		t.Fatalf("GET /v1/trace/%s: %d %s", id, tw.Code, tw.Body)
	}
	var tr api.TraceResponse
	if err := json.Unmarshal(tw.Body.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	return &tr
}

func TestTraceCoversMissAndHit(t *testing.T) {
	s := New(Config{})
	h := s.Handler()

	// Cache miss: the trace must cover parse, admission, cache lookup,
	// compute, and encode.
	miss := post(t, h, "/v1/simulate", simulateBody)
	if miss.Code != http.StatusOK {
		t.Fatalf("simulate: %d %s", miss.Code, miss.Body)
	}
	tr := fetchTrace(t, h, miss)
	if !tr.Complete || tr.Root.Name != "request" {
		t.Fatalf("trace header %+v", tr)
	}
	spans := map[string]*api.Span{}
	spanNames(&tr.Root, spans)
	for _, want := range []string{"parse", "cache", "admission", "compute", "encode", "write"} {
		if spans[want] == nil {
			t.Errorf("miss trace lacks %q span (have %v)", want, keys(spans))
		}
	}
	if got := attr(spans["cache"], "outcome"); got != "miss" {
		t.Errorf("cache outcome = %q, want miss", got)
	}
	root := spans["request"]
	if attr(root, "endpoint") != "simulate" || attr(root, "kind") != "mg1" {
		t.Errorf("root annotations %+v", root.Attrs)
	}
	if len(attr(root, "spec_hash")) != 64 {
		t.Errorf("spec_hash annotation %q", attr(root, "spec_hash"))
	}

	// Cache hit: same spec again — no admission, no compute, outcome hit.
	hit := post(t, h, "/v1/simulate", simulateBody)
	if got := hit.Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("X-Cache = %q, want hit", got)
	}
	htr := fetchTrace(t, h, hit)
	hspans := map[string]*api.Span{}
	spanNames(&htr.Root, hspans)
	if got := attr(hspans["cache"], "outcome"); got != "hit" {
		t.Errorf("hit cache outcome = %q", got)
	}
	for _, absent := range []string{"admission", "compute", "encode"} {
		if hspans[absent] != nil {
			t.Errorf("hit trace has a %q span; hits must bypass the compute path", absent)
		}
	}
	if attr(hspans["request"], "outcome") != "hit" {
		t.Errorf("root outcome %+v", hspans["request"].Attrs)
	}
}

func keys(m map[string]*api.Span) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func attr(s *api.Span, key string) string {
	if s == nil {
		return ""
	}
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

func TestTraceUnknownIDAndDisabledBuffer(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	w := get(t, h, "/v1/trace/r-nope-000001")
	if w.Code != http.StatusNotFound {
		t.Fatalf("unknown id: %d", w.Code)
	}
	var env api.ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Err.Code != api.ErrCodeNotFound {
		t.Fatalf("envelope %s (err %v)", w.Body, err)
	}

	// TraceBuffer < 0 disables retention: responses still carry ids, but
	// the trace endpoint never finds them.
	sd := New(Config{TraceBuffer: -1})
	hd := sd.Handler()
	r := post(t, hd, "/v1/index", gittinsIndexBody)
	id := r.Header().Get("X-Request-Id")
	if id == "" {
		t.Fatal("disabled tracing dropped the X-Request-Id header")
	}
	if w := get(t, hd, "/v1/trace/"+id); w.Code != http.StatusNotFound {
		t.Errorf("disabled buffer served a trace: %d", w.Code)
	}
}

// TestTracingDoesNotPerturbBodies pins the determinism contract: the same
// spec served with tracing on and off yields byte-identical bodies.
func TestTracingDoesNotPerturbBodies(t *testing.T) {
	on := post(t, New(Config{}).Handler(), "/v1/simulate", simulateBody)
	off := post(t, New(Config{TraceBuffer: -1}).Handler(), "/v1/simulate", simulateBody)
	if on.Code != http.StatusOK || off.Code != http.StatusOK {
		t.Fatalf("codes %d/%d", on.Code, off.Code)
	}
	if !bytes.Equal(on.Body.Bytes(), off.Body.Bytes()) {
		t.Error("tracing changed the response body")
	}
}

func TestMetricsExposition(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	post(t, h, "/v1/index", gittinsIndexBody)
	post(t, h, "/v1/index", gittinsIndexBody)
	post(t, h, "/v1/simulate", `garbage`) // error path must also show up

	w := get(t, h, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	body := w.Body.String()

	// Every line is a comment or a valid sample (format 0.0.4).
	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9eE+.\-]+(Inf)?$`)
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !sample.MatchString(line) {
			t.Errorf("malformed exposition line %q", line)
		}
	}

	for _, want := range []string{
		`stochsched_requests_total{endpoint="index"} 2`,
		`stochsched_cache_hits_total{endpoint="index"} 1`,
		`stochsched_cache_misses_total{endpoint="index"} 1`,
		`stochsched_errors_total{endpoint="simulate"} 1`,
		`stochsched_request_duration_seconds_count{endpoint="index"} 2`,
		`stochsched_request_duration_seconds_bucket{endpoint="index",le="+Inf"} 2`,
		"stochsched_cache_entries 1",
		"stochsched_engine_workers ",
		`stochsched_engine_chunks_total{mode="worker"}`,
		"stochsched_admission_queue_wait_seconds_total",
		"stochsched_sweep_cells_executed_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
}

// TestMetricsAgreesWithStats pins the shared-state contract: histogram
// counts and request totals on /metrics equal the /v1/stats view.
func TestMetricsAgreesWithStats(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	for i := 0; i < 5; i++ {
		post(t, h, "/v1/index", gittinsIndexBody)
	}
	var stats api.StatsResponse
	if err := json.Unmarshal(get(t, h, "/v1/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	metrics := get(t, h, "/metrics").Body.String()

	ep := stats.Endpoints["index"]
	for _, pair := range [][2]string{
		{"stochsched_requests_total", fmt.Sprint(ep.Requests)},
		{"stochsched_cache_hits_total", fmt.Sprint(ep.CacheHits)},
		{"stochsched_request_duration_seconds_count", fmt.Sprint(ep.Latency.Count)},
	} {
		want := pair[0] + `{endpoint="index"} ` + pair[1]
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics disagree with stats: want line %q", want)
		}
	}
}

func TestReadyzStates(t *testing.T) {
	// MaxQueue -1: the queue budget is zero, so one occupied slot means a
	// new Acquire would shed — exactly the unready condition.
	s := New(Config{MaxInflight: 1, MaxQueue: -1})
	h := s.Handler()

	if w := get(t, h, "/readyz"); w.Code != http.StatusOK || w.Body.String() != "ok\n" {
		t.Fatalf("idle readyz: %d %q", w.Code, w.Body)
	}

	if err := s.admit.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	w := get(t, h, "/readyz")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated readyz: %d, want 503", w.Code)
	}
	var env api.ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Err.Code != api.ErrCodeOverloaded {
		t.Fatalf("envelope %s (err %v)", w.Body, err)
	}
	// Liveness stays green while readiness is red.
	if w := get(t, h, "/healthz"); w.Code != http.StatusOK {
		t.Errorf("healthz during saturation: %d", w.Code)
	}

	s.admit.Release()
	if w := get(t, h, "/readyz"); w.Code != http.StatusOK {
		t.Errorf("readyz after release: %d", w.Code)
	}
}

// TestTerminationPathsRecordMetrics audits that every way a request can
// terminate — 405 wrong method, 400 parse failure, 429 shed — lands in the
// endpoint's counters and its latency histogram.
func TestTerminationPathsRecordMetrics(t *testing.T) {
	cases := []struct {
		name     string
		fire     func(t *testing.T, s *Server, h http.Handler) int // returns got status
		endpoint string
		want     int
		bucket   func(m *EndpointMetrics) int64
	}{
		{
			name: "405 wrong method",
			fire: func(t *testing.T, _ *Server, h http.Handler) int {
				return get(t, h, "/v1/index").Code
			},
			endpoint: "index",
			want:     http.StatusMethodNotAllowed,
			bucket:   func(m *EndpointMetrics) int64 { return m.errors.Load() },
		},
		{
			name: "400 parse failure",
			fire: func(t *testing.T, _ *Server, h http.Handler) int {
				return post(t, h, "/v1/simulate", `{"kind":"nope"}`).Code
			},
			endpoint: "simulate",
			want:     http.StatusBadRequest,
			bucket:   func(m *EndpointMetrics) int64 { return m.errors.Load() },
		},
		{
			name: "429 shed",
			fire: func(t *testing.T, s *Server, h http.Handler) int {
				if err := s.admit.Acquire(context.Background()); err != nil {
					t.Fatal(err)
				}
				defer s.admit.Release()
				return post(t, h, "/v1/index", gittinsIndexBody).Code
			},
			endpoint: "index",
			want:     http.StatusTooManyRequests,
			bucket:   func(m *EndpointMetrics) int64 { return m.shed.Load() },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{MaxInflight: 1, MaxQueue: -1})
			h := s.Handler()
			m := s.eps[tc.endpoint]
			if got := tc.fire(t, s, h); got != tc.want {
				t.Fatalf("status %d, want %d", got, tc.want)
			}
			if n := m.requests.Load(); n != 1 {
				t.Errorf("requests = %d, want 1", n)
			}
			if n := tc.bucket(m); n != 1 {
				t.Errorf("termination counter = %d, want 1", n)
			}
			if _, total := m.hist.totals(); total != 1 {
				t.Errorf("histogram count = %d, want 1 (terminated requests must record latency)", total)
			}
		})
	}
}

// TestAccessLogEmitted pins the structured log line: one Info record per
// request with the request id, endpoint, and outcome attributes.
func TestAccessLogEmitted(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	s := New(Config{Logger: logger})
	h := s.Handler()
	w := post(t, h, "/v1/index", gittinsIndexBody)

	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("log line not JSON: %v (%q)", err, buf.String())
	}
	if rec["msg"] != "request" {
		t.Errorf("msg = %v", rec["msg"])
	}
	if rec["request_id"] != w.Header().Get("X-Request-Id") {
		t.Errorf("request_id %v != header %q", rec["request_id"], w.Header().Get("X-Request-Id"))
	}
	for key, want := range map[string]any{
		"endpoint": "index", "kind": "bandit", "outcome": "miss",
		"path": "/v1/index", "status": float64(200),
	} {
		if rec[key] != want {
			t.Errorf("log[%s] = %v, want %v", key, rec[key], want)
		}
	}
	if _, ok := rec["latency_ms"]; !ok {
		t.Error("log lacks latency_ms")
	}
}
