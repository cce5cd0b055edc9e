package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"stochsched/internal/scenario/scenariotest"
	"stochsched/pkg/api"
)

const sweepBody = `{
  "base": {
    "kind": "mg1",
    "mg1": {
      "spec": {"classes": [
        {"rate": 0.3, "service_mean": 0.5, "hold_cost": 4},
        {"rate": 0.2, "service_mean": 1, "hold_cost": 1}
      ]},
      "policy": "cmu", "horizon": 400, "burnin": 50
    },
    "seed": 7, "replications": 6
  },
  "grid": {"axes": [{"path": "mg1.spec.classes.0.rate", "values": [0.2, 0.3]}]},
  "policies": ["cmu", "fifo"],
  "parallel": %d
}`

// submitSweep posts a sweep and returns its accepted status.
func submitSweep(t *testing.T, h http.Handler, body string) api.SweepStatus {
	t.Helper()
	w := post(t, h, "/v1/sweep", body)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: code %d: %s", w.Code, w.Body)
	}
	var st api.SweepStatus
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// getJSON GETs path and decodes the body into v.
func getJSON(t testing.TB, h http.Handler, path string, v any) int {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if v != nil && w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), v); err != nil {
			t.Fatalf("%s: %v (%s)", path, err, w.Body)
		}
	}
	return w.Code
}

// waitSweep polls the status endpoint until the job is terminal.
func waitSweep(t testing.TB, h http.Handler, id string) api.SweepStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st api.SweepStatus
		if code := getJSON(t, h, "/v1/sweep/"+id, &st); code != http.StatusOK {
			t.Fatalf("status: code %d", code)
		}
		if st.State != api.SweepRunning {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s stuck: %+v", id, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// sweepResults GETs the NDJSON stream of a job.
func sweepResults(t *testing.T, h http.Handler, id string) []byte {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/v1/sweep/"+id+"/results", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("results: code %d: %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("results Content-Type %q", ct)
	}
	return w.Body.Bytes()
}

func TestSweepEndToEnd(t *testing.T) {
	s := New(Config{})
	h := s.Handler()

	st := submitSweep(t, h, fmt.Sprintf(sweepBody, 0))
	if st.Points != 2 || st.CellsTotal != 4 || len(st.SweepHash) != 64 {
		t.Fatalf("accepted status %+v", st)
	}
	final := waitSweep(t, h, st.ID)
	if final.State != api.SweepDone || final.CellsDone != 4 || final.RowsReady != 2 {
		t.Fatalf("final status %+v", final)
	}

	stream := sweepResults(t, h, st.ID)
	lines := bytes.Split(bytes.TrimRight(stream, "\n"), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("stream has %d rows, want 2:\n%s", len(lines), stream)
	}
	for i, line := range lines {
		var row api.SweepRow
		if err := json.Unmarshal(line, &row); err != nil {
			t.Fatal(err)
		}
		if row.Point != i || row.Metric != "cost_rate" || len(row.Policies) != 2 {
			t.Fatalf("row %d: %+v", i, row)
		}
		// In a stable M/G/1, cµ never loses to FIFO on holding cost.
		if row.Best != "cmu" {
			t.Errorf("row %d best = %q", i, row.Best)
		}
		if row.Policies[0].Regret != 0 || row.Policies[1].Regret < 0 {
			t.Errorf("row %d regrets %+v", i, row.Policies)
		}
	}

	// Cells went through the shared cache: sweep_cells counters must show
	// 4 lookups, and the cache must hold the 4 simulate bodies.
	var stats api.StatsResponse
	getJSON(t, h, "/v1/stats", &stats)
	sc := stats.Endpoints["sweep_cells"]
	if sc.Requests != 4 || sc.CacheMisses != 4 {
		t.Errorf("sweep_cells after cold sweep: %+v", sc)
	}
	if stats.Cache.Entries != 4 || len(stats.Cache.ShardEntries) != 16 {
		t.Errorf("cache stats %+v", stats.Cache)
	}
	if stats.Sweeps.Jobs != 1 || stats.Sweeps.Running != 0 {
		t.Errorf("sweep store stats %+v", stats.Sweeps)
	}

	// A warm, overlapping second sweep (same grid, one more policy point
	// shared) is served from cache: hits, not misses.
	st2 := submitSweep(t, h, fmt.Sprintf(sweepBody, 0))
	if waitSweep(t, h, st2.ID).State != api.SweepDone {
		t.Fatal("warm sweep failed")
	}
	getJSON(t, h, "/v1/stats", &stats)
	sc = stats.Endpoints["sweep_cells"]
	if sc.CacheHits != 4 || sc.CacheMisses != 4 {
		t.Errorf("sweep_cells after warm sweep: %+v", sc)
	}
	// Same results either way.
	if !bytes.Equal(stream, sweepResults(t, h, st2.ID)) {
		t.Error("warm sweep results differ from cold sweep")
	}
}

// TestSweepNDJSONByteIdenticalAcrossParallelism is the sweep half of the
// determinism contract: two fresh servers (empty caches, so two independent
// computations), the same sweep at parallel 1 vs 8 — the streamed NDJSON
// must match byte for byte.
func TestSweepNDJSONByteIdenticalAcrossParallelism(t *testing.T) {
	run := func(parallel int) []byte {
		h := New(Config{}).Handler()
		st := submitSweep(t, h, fmt.Sprintf(sweepBody, parallel))
		if waitSweep(t, h, st.ID).State != api.SweepDone {
			t.Fatalf("parallel %d sweep failed", parallel)
		}
		return sweepResults(t, h, st.ID)
	}
	s1, s8 := run(1), run(8)
	if len(s1) == 0 || !bytes.Equal(s1, s8) {
		t.Fatalf("sweep NDJSON differs between parallel 1 and 8:\n%s\nvs\n%s", s1, s8)
	}
}

func TestSweepJobStoreEvictionOverHTTP(t *testing.T) {
	s := New(Config{SweepMaxJobs: 2})
	h := s.Handler()
	var ids []string
	for i := 0; i < 3; i++ {
		// Distinct seeds keep the jobs distinct sweeps.
		body := strings.Replace(fmt.Sprintf(sweepBody, 0), `"seed": 7`, fmt.Sprintf(`"seed": %d`, 100+i), 1)
		st := submitSweep(t, h, body)
		waitSweep(t, h, st.ID)
		ids = append(ids, st.ID)
	}
	if code := getJSON(t, h, "/v1/sweep/"+ids[0], nil); code != http.StatusNotFound {
		t.Errorf("evicted job status code %d, want 404", code)
	}
	if code := getJSON(t, h, "/v1/sweep/"+ids[2], nil); code != http.StatusOK {
		t.Errorf("latest job status code %d, want 200", code)
	}
	var stats api.StatsResponse
	getJSON(t, h, "/v1/stats", &stats)
	if stats.Sweeps.Jobs != 2 || stats.Sweeps.Evictions != 1 {
		t.Errorf("sweep store stats %+v", stats.Sweeps)
	}
}

func TestSweepCancellationViaDELETE(t *testing.T) {
	// One execution slot, held by the test: every sweep cell queues behind
	// it in admission, so the job is deterministically mid-flight when the
	// DELETE lands, and cancellation must pull the queued cells back out.
	s := New(Config{MaxInflight: 1})
	h := s.Handler()
	if err := s.admit.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.admit.Release()

	st := submitSweep(t, h, fmt.Sprintf(sweepBody, 2))
	req := httptest.NewRequest(http.MethodDelete, "/v1/sweep/"+st.ID, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("DELETE: code %d: %s", w.Code, w.Body)
	}

	final := waitSweep(t, h, st.ID)
	if final.State != api.SweepCancelled {
		t.Fatalf("state %q, want cancelled (status %+v)", final.State, final)
	}
	if final.RowsReady != 0 {
		t.Errorf("cancelled sweep produced %d rows with the slot held", final.RowsReady)
	}
	// The results stream of a cancelled job ends cleanly with the rows it
	// has (here: none).
	if stream := sweepResults(t, h, st.ID); len(stream) != 0 {
		t.Errorf("cancelled stream %q", stream)
	}

	// DELETE of an unknown job is a 404.
	req = httptest.NewRequest(http.MethodDelete, "/v1/sweep/swp-nope", nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusNotFound {
		t.Errorf("unknown DELETE code %d", w.Code)
	}
}

// TestSweepSubmitRejectsAntitheticCell: a cell /v1/simulate would reject
// for its own antithetic flag is rejected at submission, naming the point,
// instead of being accepted and failing the job when the cell runs.
func TestSweepSubmitRejectsAntitheticCell(t *testing.T) {
	h := New(Config{}).Handler()
	base := withField(t, []byte(scenariotest.SimulateBody("mdp", 7)), "antithetic", "true")
	body := fmt.Sprintf(`{"base":%s,"grid":{"axes":[{"path":"mdp.burnin","values":[40,50]}]},"policies":["optimal","myopic"]}`, base)
	w := post(t, h, "/v1/sweep", body)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("antithetic mdp sweep: code %d, want 400: %s", w.Code, w.Body)
	}
	var e api.ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	const want = `sweep: point 0 policy "optimal": kind mdp does not support antithetic replications: state transitions are categorical draws`
	if e.Err.Message != want {
		t.Errorf("message %q, want %q", e.Err.Message, want)
	}
}

func TestSweepSubmitRejectsBadRequests(t *testing.T) {
	s := New(Config{SweepMaxCells: 8})
	h := s.Handler()
	base := `{"kind":"mg1","mg1":{"spec":{"classes":[{"rate":0.3,"service_mean":0.5,"hold_cost":4}]},"policy":"cmu","horizon":400,"burnin":50},"seed":7,"replications":5}`
	bad := []string{
		`not json`,
		`{"grid":{"axes":[]}}`, // no base
		fmt.Sprintf(`{"base":%s,"policies":["cmu","lifo"]}`, base),                                           // unknown policy
		fmt.Sprintf(`{"base":%s,"grid":{"axes":[{"path":"mg1.nope.x","values":[1]}]}}`, base),                // bad path
		fmt.Sprintf(`{"base":%s,"grid":{"axes":[{"path":"mg1.spec.classes.0.rate","values":[9.5]}]}}`, base), // unstable point
		fmt.Sprintf(`{"base":%s,"grid":{"axes":[{"path":"seed","values":[1,2,3,4,5,6,7,8,9]}]}}`, base),      // over cell budget
		fmt.Sprintf(`{"base":%s,"grid":{"axes":[{"path":"replications","values":[0]}]}}`, base),              // invalid reps
		fmt.Sprintf(`{"base":%s,"extra":true}`, base),                                                        // unknown field
	}
	for _, body := range bad {
		if w := post(t, h, "/v1/sweep", body); w.Code != http.StatusBadRequest {
			t.Errorf("body %q: code %d, want 400 (%s)", body, w.Code, w.Body)
		}
	}
	// Wrong method on the collection: GET /v1/sweep has no route.
	req := httptest.NewRequest(http.MethodGet, "/v1/sweep", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/sweep code %d, want 405", w.Code)
	}
}
