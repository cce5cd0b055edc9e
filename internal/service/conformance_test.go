package service

// Endpoint conformance: every registered scenario kind must be reachable
// through all four public surfaces — /v1/simulate, /v1/sweep, /v1/batch,
// and (for kinds with an Index) /v1/index — using the canonical bodies
// from scenariotest. A kind that registers without wiring one of these
// paths fails here.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"stochsched/internal/scenario"
	"stochsched/internal/scenario/scenariotest"
	"stochsched/pkg/api"
)

// sweepAxes gives each kind one numeric grid axis over its canonical body,
// so the sweep surface is exercised per kind with a two-point grid.
var sweepAxes = map[string]string{
	"mg1":      `{"path":"mg1.spec.classes.0.rate","values":[0.2,0.3]}`,
	"mmm":      `{"path":"mmm.spec.classes.0.rate","values":[0.7,0.8]}`,
	"bandit":   `{"path":"bandit.spec.beta","values":[0.85,0.9]}`,
	"restless": `{"path":"restless.m","values":[2,3]}`,
	"batch":    `{"path":"batch.spec.machines","values":[1,2]}`,
	"jackson":  `{"path":"jackson.spec.classes.0.rate","values":[0.6,0.8]}`,
	"polling":  `{"path":"polling.spec.queues.0.rate","values":[0.3,0.4]}`,
	"mdp":      `{"path":"mdp.burnin","values":[40,50]}`,
	"flowshop": `{"path":"flowshop.spec.jobs.0.stages.0.rate","values":[1.5,2]}`,
}

func TestEveryKindSimulates(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	for _, kind := range scenario.Kinds() {
		body := scenariotest.SimulateBody(kind, 11)
		if body == "" {
			t.Fatalf("kind %q has no canonical body in scenariotest", kind)
		}
		w := post(t, h, "/v1/simulate", body)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: /v1/simulate code %d: %s", kind, w.Code, w.Body)
		}
		var env map[string]json.RawMessage
		if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if _, ok := env[kind]; !ok {
			t.Errorf("%s: response body has no %q fragment: %s", kind, kind, w.Body)
		}
		if len(env["spec_hash"]) != 66 { // 64 hex chars plus quotes
			t.Errorf("%s: spec_hash %s", kind, env["spec_hash"])
		}
	}
}

func TestEveryKindEnforcesWorkBudget(t *testing.T) {
	s := New(Config{MaxSimWork: 1})
	h := s.Handler()
	for _, kind := range scenario.Kinds() {
		w := post(t, h, "/v1/simulate", scenariotest.SimulateBody(kind, 11))
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: over-budget request got %d, want 400: %s", kind, w.Code, w.Body)
		}
	}
}

func TestEveryKindSweeps(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	for _, kind := range scenario.Kinds() {
		axis, ok := sweepAxes[kind]
		if !ok {
			t.Fatalf("kind %q has no sweep axis in the conformance table", kind)
		}
		body := fmt.Sprintf(`{"base": %s, "grid": {"axes": [%s]}}`,
			scenariotest.SimulateBody(kind, 11), axis)
		st := submitSweep(t, h, body)
		final := waitSweep(t, h, st.ID)
		if final.State != api.SweepDone {
			t.Fatalf("%s: sweep finished %q: %+v", kind, final.State, final)
		}
		if final.RowsReady != 2 {
			t.Errorf("%s: RowsReady = %d, want 2", kind, final.RowsReady)
		}
		stream := sweepResults(t, h, st.ID)
		lines := bytes.Split(bytes.TrimRight(stream, "\n"), []byte("\n"))
		if len(lines) != 2 {
			t.Fatalf("%s: %d result rows, want 2", kind, len(lines))
		}
		for _, line := range lines {
			var row struct {
				Metric   string `json:"metric"`
				Best     string `json:"best"`
				Policies []struct {
					Policy string   `json:"policy"`
					Regret *float64 `json:"regret"`
				} `json:"policies"`
			}
			if err := json.Unmarshal(line, &row); err != nil {
				t.Fatalf("%s: row %s: %v", kind, line, err)
			}
			if len(row.Policies) == 0 || row.Best == "" || row.Metric == "" {
				t.Errorf("%s: row lacks policy outcomes or a winner: %s", kind, line)
			}
			for _, p := range row.Policies {
				if p.Regret == nil || *p.Regret < 0 {
					t.Errorf("%s: policy %q row has no nonnegative regret: %s", kind, p.Policy, line)
				}
			}
		}
	}
}

func TestEveryKindBatches(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	var items []string
	var kinds []string
	for _, kind := range scenario.Kinds() {
		items = append(items, fmt.Sprintf(`{"op":"simulate","body":%s}`, scenariotest.SimulateBody(kind, 11)))
		kinds = append(kinds, kind)
	}
	for _, kind := range scenario.IndexKinds() {
		items = append(items, fmt.Sprintf(`{"op":"index","body":%s}`, scenariotest.IndexBody(kind)))
		kinds = append(kinds, kind)
	}
	body := fmt.Sprintf(`{"items":[%s]}`, joinItems(items))
	w := post(t, h, "/v1/batch", body)
	if w.Code != http.StatusOK {
		t.Fatalf("/v1/batch code %d: %s", w.Code, w.Body)
	}
	var resp api.BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) != len(items) {
		t.Fatalf("%d batch results, want %d", len(resp.Items), len(items))
	}
	for i, r := range resp.Items {
		if r.Status != http.StatusOK {
			t.Errorf("item %d (%s): status %d: %s", i, kinds[i], r.Status, r.Body)
		}
	}
}

func joinItems(items []string) string {
	out := ""
	for i, it := range items {
		if i > 0 {
			out += ","
		}
		out += it
	}
	return out
}

func TestEveryIndexerKindIndexes(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	for _, kind := range scenario.IndexKinds() {
		body := scenariotest.IndexBody(kind)
		if body == "" {
			t.Fatalf("indexer kind %q has no canonical index body in scenariotest", kind)
		}
		w := post(t, h, "/v1/index", body)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: /v1/index code %d: %s", kind, w.Code, w.Body)
		}
		var resp struct {
			SpecHash string `json:"spec_hash"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(resp.SpecHash) != 64 {
			t.Errorf("%s: spec_hash %q", kind, resp.SpecHash)
		}
		// Identical spec must hit the cache under the same key.
		again := post(t, h, "/v1/index", body)
		if got := again.Header().Get("X-Cache"); got != "hit" {
			t.Errorf("%s: repeat X-Cache = %q, want hit", kind, got)
		}
		if !bytes.Equal(w.Body.Bytes(), again.Body.Bytes()) {
			t.Errorf("%s: cache hit body differs from miss body", kind)
		}
	}
}

// withField returns the JSON object body with one top-level member set to
// the raw JSON value.
func withField(t *testing.T, body []byte, name, value string) []byte {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	m[name] = json.RawMessage(value)
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestValidateSimulateAgreement pins the one-check contract: sweep
// submission (Server.ValidateSimulate) rejects exactly the bodies POST
// /v1/simulate answers 400, with the same message. Per kind it probes the
// canonical body, its antithetic twin, and a policy outside the kind's
// list; for bandit also the spec faults only the solver reports (a
// discount outside (0,1), no projects).
func TestValidateSimulateAgreement(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	probes := map[string][]byte{}
	for _, kind := range scenariotest.SimulateKinds() {
		body := []byte(scenariotest.SimulateBody(kind, 11))
		sc, ok := scenario.Lookup(kind)
		if !ok {
			t.Fatalf("kind %q is not registered", kind)
		}
		badPolicy, err := api.SetString(body, sc.PolicyPath(), "no-such-policy")
		if err != nil {
			t.Fatal(err)
		}
		probes[kind] = body
		probes[kind+"/antithetic"] = withField(t, body, "antithetic", "true")
		probes[kind+"/unknown policy"] = badPolicy
	}
	beta2, err := api.SetNumber([]byte(scenariotest.SimulateBody("bandit", 11)), "bandit.spec.beta", 2)
	if err != nil {
		t.Fatal(err)
	}
	probes["bandit/beta=2"] = beta2
	probes["bandit/no projects"] = []byte(`{"kind":"bandit","bandit":{"spec":{"beta":0.9,"projects":[]},"start":[],"policy":"gittins"},"seed":11,"replications":10}`)

	for name, body := range probes {
		verr := s.ValidateSimulate(body)
		w := post(t, h, "/v1/simulate", string(body))
		switch w.Code {
		case http.StatusOK:
			if verr != nil {
				t.Errorf("%s: /v1/simulate answers 200 but ValidateSimulate rejects: %v", name, verr)
			}
		case http.StatusBadRequest:
			var e api.ErrorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
				t.Fatalf("%s: error envelope %s: %v", name, w.Body, err)
			}
			switch {
			case verr == nil:
				t.Errorf("%s: /v1/simulate answers 400 %q but ValidateSimulate accepts", name, e.Err.Message)
			case verr.Error() != e.Err.Message:
				t.Errorf("%s: messages differ:\nValidateSimulate: %s\n/v1/simulate:     %s", name, verr, e.Err.Message)
			}
		default:
			t.Errorf("%s: /v1/simulate code %d: %s", name, w.Code, w.Body)
		}
	}
}
