package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"stochsched/internal/scenario/scenariotest"
	"stochsched/pkg/api"
)

// This file covers the /v1/index surface: the kind-dispatched endpoint,
// the removed legacy index routes, the method-scoped routing (405 +
// Allow), and the standard error envelope.

// indexEnvelope wraps a kind's bare payload into its /v1/index form.
func indexEnvelope(kind string, payload []byte) string {
	return fmt.Sprintf(`{"kind":%q,%q:%s}`, kind, kind, payload)
}

// TestIndexGoldenCompat pins the removal of the legacy per-family index
// routes (gittins, whittle, priority under /v1/): each answers 404, and
// the /v1/index body docs/api.md gives as its replacement still answers
// the route's golden byte for byte, with a repeat served from the cache.
func TestIndexGoldenCompat(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens are amd64-exact; running on %s", runtime.GOARCH)
	}
	for _, tc := range []struct{ route, stem, golden string }{
		{"gittins", "index", "gittins"},
		{"whittle", "whittle", "whittle"},
		{"priority", "priority", "priority"},
	} {
		req, err := os.ReadFile(filepath.Join("testdata", tc.stem+"_req.json"))
		if err != nil {
			t.Fatal(err)
		}
		golden, err := os.ReadFile(filepath.Join("testdata", tc.golden+"_golden.json"))
		if err != nil {
			t.Fatal(err)
		}
		h := New(Config{}).Handler()
		if w := post(t, h, "/v1/"+tc.route, string(req)); w.Code != http.StatusNotFound {
			t.Errorf("/v1/%s: code %d, want 404", tc.route, w.Code)
		}
		for i, want := range []string{"miss", "hit"} {
			w := post(t, h, "/v1/index", string(req))
			if w.Code != http.StatusOK {
				t.Fatalf("/v1/index (%s): code %d: %s", tc.stem, w.Code, w.Body)
			}
			if got := w.Body.Bytes(); string(got) != string(golden) {
				t.Errorf("/v1/index (%s) request %d differs from %s_golden.json:\ngot  %s\nwant %s", tc.stem, i, tc.golden, got, golden)
			}
			if got := w.Header().Get("X-Cache"); got != want {
				t.Errorf("/v1/index (%s) request %d: X-Cache = %q, want %s", tc.stem, i, got, want)
			}
		}
	}
}

// TestIndexRejectsBadRequests covers the 400 surface of the new endpoint.
func TestIndexRejectsBadRequests(t *testing.T) {
	h := New(Config{}).Handler()
	bad := []string{
		`not json`,
		`{"kind":"quantum","quantum":{}}`,              // unknown kind
		`{"kind":"bandit"}`,                            // missing payload
		`{"kind":"bandit","restless":{}}`,              // payload under the wrong kind
		indexEnvelope("bandit", []byte(`{"beta":2}`)),  // payload fails validation
		`{"kind":"mg1","mg1":{"classes":[]},"x":true}`, // extra field
		// The canonical restless body with more active projects than total.
		strings.Replace(scenariotest.IndexBody("restless"), `"n":10,"m":3`, `"n":2,"m":3`, 1),
	}
	for _, body := range bad {
		if w := post(t, h, "/v1/index", body); w.Code != http.StatusBadRequest {
			t.Errorf("body %q: code %d, want 400 (%s)", body, w.Code, w.Body)
		}
	}
	if w := post(t, h, "/v1/index", gittinsIndexBody); w.Code != http.StatusOK {
		t.Errorf("/v1/index with bandit kind: code %d, want 200 (%s)", w.Code, w.Body)
	}
}

// TestMethodNotAllowedOnEveryRoute is the regression suite for the
// method-scoped patterns: every /v1 route must answer wrong-method
// requests with 405, an Allow header naming the supported verbs, and the
// standard JSON error envelope — not Go's plain-text default and not the
// old accept-anything behavior.
func TestMethodNotAllowedOnEveryRoute(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	// A live sweep id so the {id} routes resolve.
	st := submitSweep(t, h, fmt.Sprintf(sweepBody, 0))
	waitSweep(t, h, st.ID)

	routes := []struct {
		path  string
		allow string // exact Allow header
	}{
		{"/v1/index", "POST"},
		{"/v1/simulate", "POST"},
		{"/v1/batch", "POST"},
		{"/v1/sweep", "POST"},
		{"/v1/sweep/" + st.ID, "GET, DELETE"},
		{"/v1/sweep/" + st.ID + "/results", "GET"},
		{"/v1/stats", "GET"},
	}
	for _, rt := range routes {
		for _, method := range []string{http.MethodGet, http.MethodPut, http.MethodPatch} {
			if strings.Contains(rt.allow, method) {
				continue
			}
			req := httptest.NewRequest(method, rt.path, nil)
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusMethodNotAllowed {
				t.Errorf("%s %s: code %d, want 405", method, rt.path, w.Code)
				continue
			}
			if got := w.Header().Get("Allow"); got != rt.allow {
				t.Errorf("%s %s: Allow = %q, want %q", method, rt.path, got, rt.allow)
			}
			var env api.ErrorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
				t.Errorf("%s %s: non-envelope 405 body %q", method, rt.path, w.Body)
				continue
			}
			if env.Err.Code != api.ErrCodeMethodNotAllowed {
				t.Errorf("%s %s: code %q, want %q", method, rt.path, env.Err.Code, api.ErrCodeMethodNotAllowed)
			}
		}
	}
}

// TestErrorEnvelopeShape pins the standardized error body
// {"error":{"code","message"}} across representative failure classes.
func TestErrorEnvelopeShape(t *testing.T) {
	s := New(Config{})
	h := s.Handler()

	check := func(w *httptest.ResponseRecorder, wantStatus int, wantCode string) {
		t.Helper()
		if w.Code != wantStatus {
			t.Fatalf("code %d, want %d (%s)", w.Code, wantStatus, w.Body)
		}
		// The raw shape: "error" must be an object with exactly code+message.
		var raw struct {
			Err map[string]json.RawMessage `json:"error"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &raw); err != nil || raw.Err == nil {
			t.Fatalf("body %q is not the object envelope (%v)", w.Body, err)
		}
		var env api.ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
			t.Fatal(err)
		}
		if env.Err.Code != wantCode || env.Err.Message == "" {
			t.Errorf("envelope %+v, want code %q with a message", env.Err, wantCode)
		}
	}

	check(post(t, h, "/v1/index", `not json`), http.StatusBadRequest, api.ErrCodeBadRequest)
	check(post(t, h, "/v1/index", `{"kind":"quantum","quantum":{}}`), http.StatusBadRequest, api.ErrCodeBadRequest)

	req := httptest.NewRequest(http.MethodGet, "/v1/sweep/swp-nope", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	check(w, http.StatusNotFound, api.ErrCodeNotFound)
}
