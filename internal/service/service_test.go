package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stochsched/pkg/api"
)

// simResp decodes /v1/simulate bodies in tests. The server assembles
// responses generically (envelope + kind-keyed fragment), so only tests
// need a struct naming every kind.
type simResp struct {
	SpecHash     string              `json:"spec_hash"`
	Seed         uint64              `json:"seed"`
	Replications int64               `json:"replications"`
	MG1          *api.MG1Result      `json:"mg1"`
	Bandit       *api.BanditResult   `json:"bandit"`
	Restless     *api.RestlessResult `json:"restless"`
	Batch        *api.BatchResult    `json:"batch"`
}

// post sends body to path on the handler and returns the recorder.
func post(t testing.TB, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

const gittinsBody = `{"beta":0.9,"transitions":[[0.5,0.5],[0.2,0.8]],"rewards":[1,0.3]}`

// gittinsIndexBody is gittinsBody as a /v1/index request.
var gittinsIndexBody = indexEnvelope("bandit", []byte(gittinsBody))

func TestGittinsEndpointCacheHitMiss(t *testing.T) {
	s := New(Config{})
	h := s.Handler()

	first := post(t, h, "/v1/index", gittinsIndexBody)
	if first.Code != http.StatusOK {
		t.Fatalf("first request: %d %s", first.Code, first.Body)
	}
	if got := first.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("first X-Cache = %q, want miss", got)
	}
	var resp api.GittinsResponse
	if err := json.Unmarshal(first.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.States != 2 || len(resp.Restart) != 2 || len(resp.Largest) != 2 {
		t.Fatalf("response %+v", resp)
	}
	if len(resp.SpecHash) != 64 {
		t.Errorf("spec_hash %q", resp.SpecHash)
	}
	// The two independent algorithms must agree.
	for i := range resp.Restart {
		if d := resp.Restart[i] - resp.Largest[i]; d > 1e-6 || d < -1e-6 {
			t.Errorf("state %d: restart %v vs largest %v", i, resp.Restart[i], resp.Largest[i])
		}
	}

	second := post(t, h, "/v1/index", gittinsIndexBody)
	if second.Code != http.StatusOK {
		t.Fatalf("second request: %d", second.Code)
	}
	if got := second.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("second X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Error("hit body differs from miss body")
	}
	// Whitespace-different but semantically identical spec also hits.
	third := post(t, h, "/v1/index", "  "+gittinsIndexBody+"\n")
	if got := third.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("reformatted spec X-Cache = %q, want hit", got)
	}

	ep := s.eps["index"].snapshot()
	if ep.CacheMisses != 1 || ep.CacheHits != 2 || ep.Requests != 3 {
		t.Errorf("stats %+v", ep)
	}
	if ep.HitRate < 0.66 || ep.HitRate > 0.67 {
		t.Errorf("hit rate %v", ep.HitRate)
	}
}

func TestGittinsEndpointRejectsBadSpecs(t *testing.T) {
	h := New(Config{}).Handler()
	bad := []string{
		`not json`,
		indexEnvelope("bandit", []byte(`{"beta":1.5,"transitions":[[1]],"rewards":[1]}`)),
		indexEnvelope("bandit", []byte(`{"beta":0.9,"transitions":[[0.6,0.6],[0.2,0.8]],"rewards":[1,0.3]}`)),
		indexEnvelope("bandit", []byte(`{"beta":0.9,"transitions":[[1,0],[0,1]],"rewards":[1]}`)),
		gittinsIndexBody + `{"again":true}`,
		indexEnvelope("bandit", []byte(`{"beta":0.9,"transitions":[[1,0],[0,1]],"rewards":[1,0],"bogus":1}`)),
	}
	for _, body := range bad {
		if w := post(t, h, "/v1/index", body); w.Code != http.StatusBadRequest {
			t.Errorf("spec %q: code %d, want 400", body, w.Code)
		}
	}
	// Wrong method.
	req := httptest.NewRequest(http.MethodGet, "/v1/index", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET code %d, want 405", w.Code)
	}
}

func TestCacheSingleflightDedup(t *testing.T) {
	c := NewCache(4, 0)
	const waiters = 16
	var computes atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	outcomes := make([]Outcome, waiters)
	bodies := make([][]byte, waiters)

	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, out, err := c.Do(context.Background(), "k", func() ([]byte, error) {
				computes.Add(1)
				close(started)
				<-release
				return []byte("value"), nil
			})
			if err != nil {
				t.Error(err)
			}
			outcomes[i] = out
			bodies[i] = body
		}(i)
	}
	<-started
	// All other goroutines are either blocked in Do waiting on the entry or
	// about to be; give them a beat to pile up, then release the compute.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	var misses, dedups, hits int
	for i := range outcomes {
		if !bytes.Equal(bodies[i], []byte("value")) {
			t.Fatalf("goroutine %d got %q", i, bodies[i])
		}
		switch outcomes[i] {
		case Miss:
			misses++
		case Dedup:
			dedups++
		case Hit:
			hits++
		}
	}
	if misses != 1 {
		t.Errorf("misses = %d, want 1", misses)
	}
	if dedups == 0 {
		t.Error("no waiter joined the in-flight computation")
	}
	if misses+dedups+hits != waiters {
		t.Errorf("outcomes %d/%d/%d don't cover %d waiters", misses, dedups, hits, waiters)
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	c := NewCache(1, 0)
	calls := 0
	_, _, err := c.Do(context.Background(), "k", func() ([]byte, error) { calls++; return nil, fmt.Errorf("boom") })
	if err == nil {
		t.Fatal("error swallowed")
	}
	body, out, err := c.Do(context.Background(), "k", func() ([]byte, error) { calls++; return []byte("ok"), nil })
	if err != nil || string(body) != "ok" || out != Miss {
		t.Fatalf("retry: body=%q out=%v err=%v", body, out, err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
}

func TestCacheEviction(t *testing.T) {
	c := NewCache(1, 2)
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, _, err := c.Do(context.Background(), key, func() ([]byte, error) { return []byte(key), nil }); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.Len(); n > 3 {
		t.Fatalf("cache grew to %d entries with budget 2", n)
	}
}

func TestSingleflightDedupOverHTTP(t *testing.T) {
	// Concurrent identical requests against a fresh server: whatever the
	// interleaving, compute-equivalent outcomes must be 1 miss and the rest
	// hits or dedups, with every body byte-identical.
	s := New(Config{})
	h := s.Handler()
	const n = 8
	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := post(t, h, "/v1/index", gittinsIndexBody)
			if w.Code != http.StatusOK {
				t.Errorf("request %d: code %d", i, w.Code)
			}
			bodies[i] = w.Body.Bytes()
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("body %d differs", i)
		}
	}
	ep := s.eps["index"].snapshot()
	if ep.CacheMisses != 1 {
		t.Errorf("misses = %d, want 1 (dedup %d, hits %d)", ep.CacheMisses, ep.Deduplicated, ep.CacheHits)
	}
}

func TestAdmissionShedding(t *testing.T) {
	a := NewAdmission(1, 2)
	if err := a.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Fill the waiting queue with two blocked acquirers.
	errs := make(chan error, 4)
	for i := 0; i < 2; i++ {
		go func() { errs <- a.Acquire(context.Background()) }()
	}
	for a.Waiting() != 2 {
		time.Sleep(time.Millisecond)
	}
	// Third waiter must be shed immediately.
	if err := a.Acquire(context.Background()); err != ErrShed {
		t.Fatalf("over-queue Acquire = %v, want ErrShed", err)
	}
	// Releasing lets the queued waiters through in turn.
	a.Release()
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	a.Release()
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	a.Release()

	// A waiter whose request is cancelled leaves the queue with its error.
	if err := a.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() { errs <- a.Acquire(ctx) }()
	for a.Waiting() != 1 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errs; err != context.Canceled {
		t.Fatalf("cancelled Acquire = %v", err)
	}
	if a.Waiting() != 0 {
		t.Fatalf("waiting = %d after cancel", a.Waiting())
	}
	a.Release()
}

func TestServerSheds429(t *testing.T) {
	s := New(Config{MaxInflight: 1, MaxQueue: 1})
	h := s.Handler()

	// Occupy the single execution slot the way a slow computation would:
	// hold the admission slot until released. Requests for distinct specs
	// are distinct computation leaders, so they contend for the slot
	// (identical specs would dedup instead — see the singleflight tests).
	block := make(chan struct{})
	var wg sync.WaitGroup
	if err := s.admit.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-block
		s.admit.Release()
	}()

	specB := strings.Replace(gittinsIndexBody, "0.3]", "0.31]", 1)
	specC := strings.Replace(gittinsIndexBody, "0.3]", "0.32]", 1)

	// One computation may wait for the slot.
	waiting := make(chan int, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := post(t, h, "/v1/index", specB)
		waiting <- w.Code
	}()
	for s.admit.Waiting() != 1 {
		time.Sleep(time.Millisecond)
	}

	// The queue is now full: the next distinct computation must shed 429.
	w := post(t, h, "/v1/index", specC)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-capacity request: code %d, want 429", w.Code)
	}
	if !strings.Contains(w.Body.String(), "overloaded") {
		t.Errorf("shed body %q", w.Body)
	}
	if shed := s.eps["index"].snapshot().Shed; shed != 1 {
		t.Errorf("shed counter = %d, want 1", shed)
	}

	// Unblock: the queued computation completes normally.
	close(block)
	if code := <-waiting; code != http.StatusOK {
		t.Fatalf("queued request: code %d, want 200", code)
	}
	wg.Wait()

	// Cache hits bypass admission entirely: with the slot held again, a
	// repeat of the completed spec must still be served.
	if err := s.admit.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if w := post(t, h, "/v1/index", specB); w.Code != http.StatusOK || w.Header().Get("X-Cache") != "hit" {
		t.Fatalf("cache hit under full admission: code %d, X-Cache %q", w.Code, w.Header().Get("X-Cache"))
	}
	s.admit.Release()
}

func TestCachePanicDoesNotPoisonKey(t *testing.T) {
	c := NewCache(1, 0)
	_, _, err := c.Do(context.Background(), "k", func() ([]byte, error) { panic("boom") })
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panic surfaced as %v", err)
	}
	// The key must be retryable afterwards, not wedged on a never-closed
	// entry.
	done := make(chan struct{})
	go func() {
		defer close(done)
		body, out, err := c.Do(context.Background(), "k", func() ([]byte, error) { return []byte("ok"), nil })
		if err != nil || string(body) != "ok" || out != Miss {
			t.Errorf("retry after panic: body=%q out=%v err=%v", body, out, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("key wedged after panic")
	}
}

const mg1SimBody = `{
  "kind": "mg1",
  "mg1": {
    "spec": {"classes": [
      {"rate": 0.3, "service_mean": 0.5, "hold_cost": 4},
      {"rate": 0.2, "service_mean": 1, "hold_cost": 1}
    ]},
    "policy": "cmu",
    "horizon": 2000,
    "burnin": 200
  },
  "seed": 7,
  "replications": 20,
  "parallel": %d
}`

// TestSimulateDeterministicAcrossParallelism is the service-level half of
// the engine's byte-identity guarantee: two fresh servers, same (spec,
// seed), parallelism 1 vs 8 — the HTTP bodies must be byte-identical, and
// both requests must be cache misses (so the equality is between two
// independent computations, not a cache echo).
func TestSimulateDeterministicAcrossParallelism(t *testing.T) {
	h1 := New(Config{}).Handler()
	h8 := New(Config{}).Handler()

	w1 := post(t, h1, "/v1/simulate", fmt.Sprintf(mg1SimBody, 1))
	w8 := post(t, h8, "/v1/simulate", fmt.Sprintf(mg1SimBody, 8))
	if w1.Code != http.StatusOK || w8.Code != http.StatusOK {
		t.Fatalf("codes %d, %d: %s %s", w1.Code, w8.Code, w1.Body, w8.Body)
	}
	if w1.Header().Get("X-Cache") != "miss" || w8.Header().Get("X-Cache") != "miss" {
		t.Fatal("expected two independent computations")
	}
	if !bytes.Equal(w1.Body.Bytes(), w8.Body.Bytes()) {
		t.Fatalf("parallel=1 and parallel=8 bodies differ:\n%s\n%s", w1.Body, w8.Body)
	}

	var resp simResp
	if err := json.Unmarshal(w1.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Replications != 20 || resp.MG1 == nil || len(resp.MG1.L) != 2 {
		t.Fatalf("response %+v", resp)
	}
	if resp.MG1.CostRateMean <= 0 {
		t.Errorf("cost rate %v", resp.MG1.CostRateMean)
	}
}

// TestSimulateParallelismSharesCacheKey: on one server, the same spec at a
// different parallelism is a cache hit — parallel is excluded from the key.
func TestSimulateParallelismSharesCacheKey(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	w1 := post(t, h, "/v1/simulate", fmt.Sprintf(mg1SimBody, 1))
	w8 := post(t, h, "/v1/simulate", fmt.Sprintf(mg1SimBody, 8))
	if w1.Code != http.StatusOK || w8.Code != http.StatusOK {
		t.Fatalf("codes %d, %d", w1.Code, w8.Code)
	}
	if got := w8.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("same spec at different parallelism: X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(w1.Body.Bytes(), w8.Body.Bytes()) {
		t.Error("bodies differ")
	}
	// A different seed is a different request.
	w := post(t, h, "/v1/simulate", strings.Replace(fmt.Sprintf(mg1SimBody, 1), `"seed": 7`, `"seed": 8`, 1))
	if got := w.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("different seed: X-Cache = %q, want miss", got)
	}
}

func TestSimulateBandit(t *testing.T) {
	body := `{
	  "kind": "bandit",
	  "bandit": {
	    "spec": {"beta": 0.9, "projects": [
	      {"transitions": [[0.5,0.5],[0.2,0.8]], "rewards": [1, 0.3]},
	      {"transitions": [[0.9,0.1],[0.4,0.6]], "rewards": [0.5, 0.8]}
	    ]},
	    "start": [0, 1]
	  },
	  "seed": 3,
	  "replications": 50
	}`
	h := New(Config{}).Handler()
	w := post(t, h, "/v1/simulate", body)
	if w.Code != http.StatusOK {
		t.Fatalf("code %d: %s", w.Code, w.Body)
	}
	var resp simResp
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Bandit == nil || resp.Bandit.RewardMean <= 0 {
		t.Fatalf("response %+v", resp)
	}
}

func TestSimulateKlimov(t *testing.T) {
	body := `{
	  "kind": "mg1",
	  "mg1": {
	    "spec": {
	      "classes": [
	        {"rate": 0.2, "service_mean": 0.5, "hold_cost": 2},
	        {"rate": 0.1, "service_mean": 0.5, "hold_cost": 1}
	      ],
	      "feedback": [[0, 0.3], [0, 0]]
	    },
	    "policy": "klimov",
	    "horizon": 1000,
	    "burnin": 100
	  },
	  "seed": 5,
	  "replications": 10
	}`
	h := New(Config{}).Handler()
	w := post(t, h, "/v1/simulate", body)
	if w.Code != http.StatusOK {
		t.Fatalf("code %d: %s", w.Code, w.Body)
	}
	var resp simResp
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.MG1 == nil || resp.MG1.Policy != "klimov" || len(resp.MG1.Order) != 2 {
		t.Fatalf("response %+v", resp)
	}
	if resp.MG1.CostRateMean <= 0 {
		t.Errorf("cost rate %v", resp.MG1.CostRateMean)
	}
}

func TestSimulateRejectsBadRequests(t *testing.T) {
	h := New(Config{MaxReplications: 100}).Handler()
	bad := []string{
		`{"kind":"mg1","seed":1,"replications":10}`,                                                  // missing model
		fmt.Sprintf(strings.Replace(mg1SimBody, `"replications": 20`, `"replications": 0`, 1), 1),    // no reps
		fmt.Sprintf(strings.Replace(mg1SimBody, `"replications": 20`, `"replications": 1000`, 1), 1), // over cap
		fmt.Sprintf(strings.Replace(mg1SimBody, `"policy": "cmu"`, `"policy": "lifo"`, 1), 1),        // bad policy
		fmt.Sprintf(strings.Replace(mg1SimBody, `"horizon": 2000`, `"horizon": 100`, 1), 1),          // horizon < burnin
		`{"kind":"quantum","seed":1,"replications":10}`,
		// Work-budget guards: a huge horizon (or a discount pushing the
		// episode length out) must be rejected, not executed.
		fmt.Sprintf(strings.Replace(mg1SimBody, `"horizon": 2000`, `"horizon": 1e12`, 1), 1),
		`{"kind":"bandit","bandit":{"spec":{"beta":0.9999999999,"projects":[
		  {"transitions":[[1]],"rewards":[1]}]},"start":[0]},"seed":1,"replications":10}`,
	}
	for _, body := range bad {
		if w := post(t, h, "/v1/simulate", body); w.Code != http.StatusBadRequest {
			t.Errorf("body %q: code %d, want 400", body, w.Code)
		}
	}
}

func TestWhittleEndpoint(t *testing.T) {
	// MachineRepair(3, ...) is the canonical indexable project; its Whittle
	// indices must be increasing in the deterioration state.
	body := `{"kind": "restless", "restless": {
	  "beta": 0.9,
	  "passive": {
	    "transitions": [[0.7,0.3,0],[0,0.7,0.3],[0,0,1]],
	    "rewards": [1, 0.6, 0.1]
	  },
	  "active": {
	    "transitions": [[1,0,0],[1,0,0],[1,0,0]],
	    "rewards": [-0.5, -0.5, -0.5]
	  },
	  "check_indexability": true
	}}`
	h := New(Config{}).Handler()
	w := post(t, h, "/v1/index", body)
	if w.Code != http.StatusOK {
		t.Fatalf("code %d: %s", w.Code, w.Body)
	}
	var resp api.WhittleResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Whittle) != 3 {
		t.Fatalf("response %+v", resp)
	}
	if resp.Indexable == nil || !*resp.Indexable {
		t.Errorf("machine-repair project reported non-indexable: %+v", resp)
	}
	if !(resp.Whittle[0] < resp.Whittle[2]) {
		t.Errorf("whittle indices not increasing in deterioration: %v", resp.Whittle)
	}
}

func TestPriorityEndpointMG1(t *testing.T) {
	body := `{"kind":"mg1","mg1":{"classes":[
	  {"rate": 0.3, "service_mean": 0.5, "hold_cost": 4},
	  {"rate": 0.2, "service_mean": 1, "hold_cost": 1}
	]}}`
	h := New(Config{}).Handler()
	w := post(t, h, "/v1/index", body)
	if w.Code != http.StatusOK {
		t.Fatalf("code %d: %s", w.Code, w.Body)
	}
	var resp api.PriorityResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Rule != "cmu" {
		t.Errorf("rule %q", resp.Rule)
	}
	// cµ: class 0 has 4/0.5 = 8, class 1 has 1/1 = 1 → order [0, 1].
	if len(resp.Order) != 2 || resp.Order[0] != 0 || resp.Order[1] != 1 {
		t.Errorf("order %v", resp.Order)
	}
	if resp.Indices[0] != 8 || resp.Indices[1] != 1 {
		t.Errorf("indices %v", resp.Indices)
	}
	if resp.CostRate == nil || *resp.CostRate <= 0 {
		t.Errorf("cost rate %v", resp.CostRate)
	}
	if len(resp.Wq) != 2 || resp.Wq[0] >= resp.Wq[1] {
		t.Errorf("Wq %v: high priority should wait less", resp.Wq)
	}
}

func TestPriorityEndpointKlimovAndBatch(t *testing.T) {
	h := New(Config{}).Handler()

	klimov := `{"kind":"mg1","mg1":{
	  "classes":[
	    {"rate": 0.2, "service_mean": 0.5, "hold_cost": 2},
	    {"rate": 0.1, "service_mean": 0.5, "hold_cost": 1}
	  ],
	  "feedback": [[0, 0.3], [0, 0]]
	}}`
	w := post(t, h, "/v1/index", klimov)
	if w.Code != http.StatusOK {
		t.Fatalf("klimov code %d: %s", w.Code, w.Body)
	}
	var resp api.PriorityResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Rule != "klimov" || len(resp.Order) != 2 || len(resp.Indices) != 2 {
		t.Errorf("klimov response %+v", resp)
	}

	batchBody := `{"kind":"batch","batch":{"jobs":[
	  {"weight": 1, "dist": {"kind": "exp", "mean": 2}},
	  {"weight": 4, "dist": {"kind": "det", "value": 1}},
	  {"weight": 1, "dist": {"kind": "exp", "mean": 0.5}}
	]}}`
	w = post(t, h, "/v1/index", batchBody)
	if w.Code != http.StatusOK {
		t.Fatalf("batch code %d: %s", w.Code, w.Body)
	}
	resp = api.PriorityResponse{}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Rule != "wsept" {
		t.Errorf("rule %q", resp.Rule)
	}
	// Smith ratios: 0.5, 4, 2 → WSEPT order [1, 2, 0]; SEPT by mean
	// (2, 1, 0.5) → [2, 1, 0]; LEPT is its reverse.
	if fmt.Sprint(resp.Order) != "[1 2 0]" {
		t.Errorf("wsept order %v", resp.Order)
	}
	if fmt.Sprint(resp.SEPT) != "[2 1 0]" || fmt.Sprint(resp.LEPT) != "[0 1 2]" {
		t.Errorf("sept %v lept %v", resp.SEPT, resp.LEPT)
	}
	if resp.ExactWeightedFlowtime == nil || *resp.ExactWeightedFlowtime <= 0 {
		t.Errorf("flowtime %v", resp.ExactWeightedFlowtime)
	}
}

func TestStatsEndpoint(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	post(t, h, "/v1/index", gittinsIndexBody)
	post(t, h, "/v1/index", gittinsIndexBody)

	req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("code %d", w.Code)
	}
	var resp api.StatsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	g := resp.Endpoints["index"]
	if g.Requests != 2 || g.CacheHits != 1 || g.CacheMisses != 1 {
		t.Errorf("index stats %+v", g)
	}
	if resp.Cache.Entries != 1 {
		t.Errorf("cache entries %d", resp.Cache.Entries)
	}
	if _, ok := resp.Endpoints["simulate"]; !ok {
		t.Error("simulate endpoint missing from stats")
	}
}

func TestHealthz(t *testing.T) {
	h := New(Config{}).Handler()
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK || w.Body.String() != "ok\n" {
		t.Fatalf("healthz: %d %q", w.Code, w.Body)
	}
}
