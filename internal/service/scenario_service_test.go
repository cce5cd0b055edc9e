package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"stochsched/internal/scenario/scenariotest"
	"stochsched/internal/sweep"
)

// This file covers the scenario-registry surface of the service: the
// restless and batch simulate kinds, the per-request parallelism clamp,
// uniform work-budget enforcement, and sweeps over non-mg1 kinds.

const restlessSimBody = `{
  "kind": "restless",
  "restless": {
    "spec": {
      "beta": 0.9,
      "passive": {"transitions": [[0.7,0.3,0],[0,0.7,0.3],[0,0,1]],
                  "rewards": [1, 0.6, 0.1]},
      "active":  {"transitions": [[1,0,0],[1,0,0],[1,0,0]],
                  "rewards": [-0.5, -0.5, -0.5]}
    },
    "n": 10, "m": 3, "policy": "whittle", "horizon": 200, "burnin": 50
  },
  "seed": 11, "replications": 20, "parallel": %d
}`

const batchSimBody = `{
  "kind": "batch",
  "batch": {
    "spec": {"jobs": [
      {"weight": 1, "dist": {"kind": "exp", "mean": 2}},
      {"weight": 4, "dist": {"kind": "det", "value": 1}},
      {"weight": 1, "dist": {"kind": "exp", "mean": 0.5}}
    ], "machines": 2},
    "policy": "wsept"
  },
  "seed": 3, "replications": 40, "parallel": %d
}`

func TestSimulateRestless(t *testing.T) {
	h := New(Config{}).Handler()
	w := post(t, h, "/v1/simulate", fmt.Sprintf(restlessSimBody, 0))
	if w.Code != http.StatusOK {
		t.Fatalf("code %d: %s", w.Code, w.Body)
	}
	var resp simResp
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Restless == nil || resp.Restless.Policy != "whittle" {
		t.Fatalf("response %+v", resp)
	}
	if resp.Restless.RewardMean <= 0 || resp.Restless.RewardCI95 <= 0 {
		t.Errorf("estimate %+v", resp.Restless)
	}

	// The myopic rule is a different spec (and in this machine-repair fleet
	// a weaker policy, but that is probabilistic — only the shape is
	// asserted here).
	myopic := strings.Replace(fmt.Sprintf(restlessSimBody, 0), `"policy": "whittle"`, `"policy": "myopic"`, 1)
	if w := post(t, h, "/v1/simulate", myopic); w.Code != http.StatusOK {
		t.Fatalf("myopic: code %d: %s", w.Code, w.Body)
	}
}

func TestSimulateBatch(t *testing.T) {
	h := New(Config{}).Handler()
	w := post(t, h, "/v1/simulate", fmt.Sprintf(batchSimBody, 0))
	if w.Code != http.StatusOK {
		t.Fatalf("code %d: %s", w.Code, w.Body)
	}
	var resp simResp
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	b := resp.Batch
	if b == nil || b.Policy != "wsept" || b.Objective != "weighted_flowtime" {
		t.Fatalf("response %+v", resp)
	}
	// Smith ratios 0.5, 4, 2 → WSEPT order [1, 2, 0].
	if fmt.Sprint(b.Order) != "[1 2 0]" {
		t.Errorf("order %v", b.Order)
	}
	if !(b.MakespanMean > 0 && b.FlowtimeMean >= b.MakespanMean && b.WeightedFlowtimeMean > b.FlowtimeMean) {
		t.Errorf("objectives %+v", b)
	}
}

// TestSimulateNewKindsDeterministicAcrossParallelism extends the
// byte-identity guarantee to the registry's new kinds: fresh servers at
// parallel 1 vs 8, same body.
func TestSimulateNewKindsDeterministicAcrossParallelism(t *testing.T) {
	for _, kind := range []struct{ name, body string }{
		{"restless", restlessSimBody},
		{"batch", batchSimBody},
	} {
		w1 := post(t, New(Config{}).Handler(), "/v1/simulate", fmt.Sprintf(kind.body, 1))
		w8 := post(t, New(Config{}).Handler(), "/v1/simulate", fmt.Sprintf(kind.body, 8))
		if w1.Code != http.StatusOK || w8.Code != http.StatusOK {
			t.Fatalf("%s: codes %d, %d: %s %s", kind.name, w1.Code, w8.Code, w1.Body, w8.Body)
		}
		if !bytes.Equal(w1.Body.Bytes(), w8.Body.Bytes()) {
			t.Errorf("%s bodies differ between parallel 1 and 8:\n%s\n%s", kind.name, w1.Body, w8.Body)
		}
	}
}

// TestRequestPoolClampedToServerCapacity is the regression test for the
// per-request pool escape: a request's parallel knob must never buy more
// workers than the server was configured with. Smaller knobs are Limit
// views of the shared pool, so even many concurrent capped requests draw
// from — never add to — the configured capacity (slot accounting is
// pinned by the engine's Limit tests).
func TestRequestPoolClampedToServerCapacity(t *testing.T) {
	s := New(Config{Parallel: 2})
	if got := s.requestPool(0); got != s.pool {
		t.Error("parallel 0 should reuse the shared pool")
	}
	if got := s.requestPool(1024); got != s.pool {
		t.Errorf("parallel 1024 built a pool of size %d past the configured 2", s.requestPool(1024).Size())
	}
	if got := s.requestPool(2); got != s.pool {
		t.Error("parallel == capacity should reuse the shared pool")
	}
	if got := s.requestPool(1); got == s.pool || got.Size() != 1 {
		t.Errorf("parallel 1 pool: %v (size %d)", got == s.pool, got.Size())
	}
	// End to end: an over-sized parallel still inside [0, 1024] is served
	// (clamped), not errored.
	w := post(t, s.Handler(), "/v1/simulate", fmt.Sprintf(mg1SimBody, 1000))
	if w.Code != http.StatusOK {
		t.Fatalf("clamped request: code %d: %s", w.Code, w.Body)
	}
}

// TestWorkBudgetEnforcedPerKind: every registered kind routes its work
// estimate through the scenario interface, so an over-budget request of
// any kind is a 400, not a slot-monopolizing computation.
func TestWorkBudgetEnforcedPerKind(t *testing.T) {
	h := New(Config{MaxSimWork: 1000}).Handler()
	over := map[string]string{
		"mg1": fmt.Sprintf(strings.Replace(mg1SimBody, `"horizon": 2000`, `"horizon": 1e6`, 1), 1),
		"klimov": `{"kind":"mg1","mg1":{"spec":{"classes":[
		    {"rate":0.2,"service_mean":0.5,"hold_cost":2},
		    {"rate":0.1,"service_mean":0.5,"hold_cost":1}],
		    "feedback":[[0,0.3],[0,0]]},
		  "policy":"klimov","horizon":1e6,"burnin":100},"seed":5,"replications":10}`,
		"bandit": `{"kind":"bandit","bandit":{"spec":{"beta":0.99999,"projects":[
		    {"transitions":[[1]],"rewards":[1]}]},"start":[0]},"seed":1,"replications":10}`,
		"restless": strings.Replace(fmt.Sprintf(restlessSimBody, 0), `"horizon": 200`, `"horizon": 200000`, 1),
		"batch":    strings.Replace(fmt.Sprintf(batchSimBody, 0), `"replications": 40`, `"replications": 2000`, 1),
	}
	for kind, body := range over {
		w := post(t, h, "/v1/simulate", body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s over budget: code %d, want 400 (%s)", kind, w.Code, w.Body)
		}
		if !strings.Contains(w.Body.String(), "work budget") {
			t.Errorf("%s over budget: error %q does not name the budget", kind, w.Body)
		}
	}
	// The same shapes inside the default budget succeed.
	h = New(Config{}).Handler()
	for kind, body := range map[string]string{
		"restless": fmt.Sprintf(restlessSimBody, 0),
		"batch":    fmt.Sprintf(batchSimBody, 0),
	} {
		if w := post(t, h, "/v1/simulate", body); w.Code != http.StatusOK {
			t.Errorf("%s within budget: code %d (%s)", kind, w.Code, w.Body)
		}
	}
}

// TestSimulateRejectsBadNewKindRequests covers the 400 paths of the new
// kinds' request shapes and policies.
func TestSimulateRejectsBadNewKindRequests(t *testing.T) {
	h := New(Config{}).Handler()
	bad := []string{
		strings.Replace(fmt.Sprintf(restlessSimBody, 0), `"policy": "whittle"`, `"policy": "psychic"`, 1),
		strings.Replace(fmt.Sprintf(restlessSimBody, 0), `"n": 10, "m": 3`, `"n": 2, "m": 3`, 1),
		strings.Replace(fmt.Sprintf(restlessSimBody, 0), `"horizon": 200, "burnin": 50`, `"horizon": 10, "burnin": 50`, 1),
		strings.Replace(fmt.Sprintf(batchSimBody, 0), `"policy": "wsept"`, `"policy": "fifo"`, 1),
		strings.Replace(fmt.Sprintf(batchSimBody, 0), `"policy": "wsept"`, `"policy": "wsept", "objective": "karma"`, 1),
		`{"kind":"restless","batch":{},"seed":1,"replications":5}`, // payload under the wrong kind
	}
	for _, body := range bad {
		if w := post(t, h, "/v1/simulate", body); w.Code != http.StatusBadRequest {
			t.Errorf("body %q: code %d, want 400 (%s)", body, w.Code, w.Body)
		}
	}
}

// TestSimulateRejectsOneReplication: a budget of one replication, fixed or
// as the precision ceiling, answers 400 for every kind. Below two samples
// the CI95 is +Inf, which JSON cannot encode (it used to answer 500).
func TestSimulateRejectsOneReplication(t *testing.T) {
	h := New(Config{}).Handler()
	reps := regexp.MustCompile(`"replications":\d+`)
	for _, kind := range scenariotest.SimulateKinds() {
		body := scenariotest.SimulateBody(kind, 3)
		for form, repl := range map[string]string{
			"fixed":     `"replications":1`,
			"precision": `"precision":{"target_ci95":0.1,"max_replications":1}`,
		} {
			w := post(t, h, "/v1/simulate", reps.ReplaceAllString(body, repl))
			if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "must be at least 2") {
				t.Errorf("%s %s: code %d (%s), want 400", kind, form, w.Code, w.Body)
			}
		}
	}
}

// TestErlangShapeBounded: an Erlang shape beyond the wire bound answers 400
// before any sampling; unbounded, k = 1e12 would multiply 1e12 uniforms
// per draw with no budget or timeout able to stop it.
func TestErlangShapeBounded(t *testing.T) {
	h := New(Config{}).Handler()
	body := `{"kind":"batch","batch":{"spec":{"jobs":[
		{"weight":1,"dist":{"kind":"erlang","k":1000000000000,"rate":1000000000000}}
	]},"policy":"wsept"},"seed":1,"replications":2}`
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- post(t, h, "/v1/simulate", body) }()
	select {
	case w := <-done:
		var env struct {
			Err struct{ Message string } `json:"error"`
		}
		err := json.Unmarshal(w.Body.Bytes(), &env)
		if err != nil || w.Code != http.StatusBadRequest || !strings.Contains(env.Err.Message, "k <= 100") {
			t.Errorf("code %d (%s), want 400 naming the bound", w.Code, w.Body)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("k = 1e12 was not rejected before sampling")
	}
	ok := strings.Replace(body, `"k":1000000000000,"rate":1000000000000`, `"k":100,"rate":100`, 1)
	if w := post(t, h, "/v1/simulate", ok); w.Code != http.StatusOK {
		t.Errorf("k = 100: code %d (%s), want 200", w.Code, w.Body)
	}
}

// TestStatsCacheEntriesCompat pins the /v1/stats JSON shape: the cache
// entry count is served once, as cache.entries, and the removed top-level
// mirrors (cache_entries, in_flight, waiting) stay gone.
func TestStatsCacheEntriesCompat(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	post(t, h, "/v1/index", gittinsIndexBody)
	post(t, h, "/v1/index", `{"kind":"batch","batch":{"jobs":[{"weight":1,"dist":{"kind":"det","value":1}}]}}`)

	var raw map[string]json.RawMessage
	if code := getJSON(t, h, "/v1/stats", &raw); code != http.StatusOK {
		t.Fatalf("stats code %d", code)
	}
	for _, field := range []string{"endpoints", "cache", "sweeps", "engine"} {
		if _, ok := raw[field]; !ok {
			t.Errorf("stats body missing %q", field)
		}
	}
	for _, field := range []string{"cache_entries", "in_flight", "waiting"} {
		if _, ok := raw[field]; ok {
			t.Errorf("stats body carries removed top-level %q", field)
		}
	}
	var cache struct {
		Entries int `json:"entries"`
	}
	if err := json.Unmarshal(raw["cache"], &cache); err != nil {
		t.Fatal(err)
	}
	if cache.Entries != 2 {
		t.Errorf("cache.entries %d, want 2", cache.Entries)
	}
}

const restlessSweepBody = `{
  "base": {
    "kind": "restless",
    "restless": {
      "spec": {
        "beta": 0.9,
        "passive": {"transitions": [[0.7,0.3,0],[0,0.7,0.3],[0,0,1]],
                    "rewards": [1, 0.6, 0.1]},
        "active":  {"transitions": [[1,0,0],[1,0,0],[1,0,0]],
                    "rewards": [-0.5, -0.5, -0.5]}
      },
      "n": 10, "m": 3, "policy": "whittle", "horizon": 150, "burnin": 30
    },
    "seed": 11, "replications": 10
  },
  "grid": {"axes": [{"path": "restless.m", "values": [2, 4]}]},
  "policies": ["whittle", "myopic", "random"],
  "parallel": %d
}`

// TestSweepRestlessKind proves the sweep layer is kind-agnostic: a sweep
// whose base is a restless body substitutes policies at restless.policy,
// compares on the reward metric (higher wins), and streams byte-identical
// NDJSON at parallel 1 vs 8.
func TestSweepRestlessKind(t *testing.T) {
	run := func(parallel int) []byte {
		h := New(Config{}).Handler()
		st := submitSweep(t, h, fmt.Sprintf(restlessSweepBody, parallel))
		if st.Points != 2 || st.CellsTotal != 6 {
			t.Fatalf("accepted status %+v", st)
		}
		if final := waitSweep(t, h, st.ID); final.State != sweep.StateDone {
			t.Fatalf("sweep ended %q: %+v", final.State, final)
		}
		return sweepResults(t, h, st.ID)
	}
	stream := run(1)
	lines := bytes.Split(bytes.TrimRight(stream, "\n"), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("stream has %d rows:\n%s", len(lines), stream)
	}
	for i, line := range lines {
		var row sweep.Row
		if err := json.Unmarshal(line, &row); err != nil {
			t.Fatal(err)
		}
		if row.Point != i || row.Metric != "reward" || len(row.Policies) != 3 {
			t.Fatalf("row %d: %+v", i, row)
		}
		if row.Params[0].Path != "restless.m" {
			t.Errorf("row %d params %+v", i, row.Params)
		}
		// Reward orientation: regret is best − mean, 0 for the winner,
		// nonnegative elsewhere.
		for _, pr := range row.Policies {
			if pr.Regret < 0 {
				t.Errorf("row %d policy %s negative regret %v", i, pr.Policy, pr.Regret)
			}
			if pr.Policy == row.Best && pr.Regret != 0 {
				t.Errorf("row %d winner %s has regret %v", i, pr.Policy, pr.Regret)
			}
		}
		// In the machine-repair fleet the index rules dominate the random
		// baseline by a wide margin.
		if row.Best == "random" {
			t.Errorf("row %d: random won: %s", i, line)
		}
	}
	if p8 := run(8); !bytes.Equal(stream, p8) {
		t.Errorf("restless sweep NDJSON differs between parallel 1 and 8:\n%s\nvs\n%s", stream, p8)
	}
}

// TestSweepBatchKind: same for the batch kind — policies substitute at
// batch.policy and the comparison metric follows the base's objective.
func TestSweepBatchKind(t *testing.T) {
	body := fmt.Sprintf(`{
	  "base": %s,
	  "grid": {"axes": [{"path": "batch.spec.machines", "values": [1, 2]}]},
	  "policies": ["wsept", "sept", "lept"]
	}`, fmt.Sprintf(batchSimBody, 0))
	h := New(Config{}).Handler()
	st := submitSweep(t, h, body)
	if final := waitSweep(t, h, st.ID); final.State != sweep.StateDone {
		t.Fatalf("sweep ended %q: %+v", final.State, final)
	}
	lines := bytes.Split(bytes.TrimRight(sweepResults(t, h, st.ID), "\n"), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("stream has %d rows", len(lines))
	}
	var row sweep.Row
	if err := json.Unmarshal(lines[0], &row); err != nil {
		t.Fatal(err)
	}
	if row.Metric != "weighted_flowtime" || len(row.Policies) != 3 {
		t.Fatalf("row %+v", row)
	}
	// On one machine WSEPT minimizes expected weighted flowtime exactly.
	if row.Best != "wsept" {
		t.Errorf("single-machine best = %q, want wsept (%s)", row.Best, lines[0])
	}
}
