package scenario

// Registry-wide conformance of the target-precision (adaptive) mode and the
// antithetic knob: every registered kind must accept a precision block,
// stay byte-identical across parallelism, report a replications_used within
// budget, and reproduce the exact bytes of the equivalent fixed-budget
// request — the determinism contract the adaptive rounds are built on.
// Kinds reject the antithetic knob exactly when their sampling involves
// categorical draws; the rejection must be a BadSpec (client-fault) error.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"stochsched/internal/engine"
	"stochsched/internal/scenario/scenariotest"
)

// adaptiveBody swaps the canonical body's fixed replications field for a
// precision block. Field order changes (maps), which ParseRequest accepts;
// hashing happens on the parsed form, not the raw bytes.
func adaptiveBody(t *testing.T, body []byte, targetCI float64, maxReps int) []byte {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("decoding canonical body: %v", err)
	}
	delete(m, "replications")
	m["precision"] = json.RawMessage(
		fmt.Sprintf(`{"target_ci95":%g,"max_replications":%d}`, targetCI, maxReps))
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("re-encoding adaptive body: %v", err)
	}
	return out
}

// withReplications returns the canonical body with the fixed replication
// count replaced.
func withReplications(t *testing.T, body []byte, reps int) []byte {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("decoding canonical body: %v", err)
	}
	m["replications"] = json.RawMessage(fmt.Sprintf("%d", reps))
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("re-encoding body: %v", err)
	}
	return out
}

// kindFragment extracts the kind-keyed result fragment from an encoded
// response body.
func kindFragment(t *testing.T, kind string, body []byte) json.RawMessage {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("decoding response body: %v", err)
	}
	frag, ok := m[kind]
	if !ok {
		t.Fatalf("response body has no %q fragment:\n%s", kind, body)
	}
	return frag
}

func TestAdaptiveConformance(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(kind, func(t *testing.T) {
			// A loose target, which the canonical bodies meet after one round.
			t.Run("loose", func(t *testing.T) { checkAdaptive(t, kind, 0.2, 64, 0) })
			// An unreachable target spends the ceiling in three rounds of 32
			// (cumulative 32, 64, 96): rounds two and three must continue the
			// substreams and the accumulators where the round before stopped.
			t.Run("rounds=3", func(t *testing.T) { checkAdaptive(t, kind, 1e-9, 96, 96) })
		})
	}
}

// checkAdaptive runs kind's canonical body under a precision block of
// target and maxReps and checks the adaptive contract. wantUsed, when
// nonzero, is the exact replication count the run must spend.
func checkAdaptive(t *testing.T, kind string, target float64, maxReps int, wantUsed int64) {
	fixed := []byte(scenariotest.SimulateBody(kind, 7))
	body := adaptiveBody(t, fixed, target, maxReps)

	req, err := ParseRequest(body, Limits{})
	if err != nil {
		t.Fatalf("ParseRequest(adaptive): %v", err)
	}
	if req.Precision == nil || req.Replications != 0 {
		t.Fatalf("parsed request: precision=%v replications=%d, want precision set and replications 0",
			req.Precision, req.Replications)
	}

	// The adaptive request must hash differently from its fixed
	// counterpart — they are different computations.
	fr, err := ParseRequest(fixed, Limits{})
	if err != nil {
		t.Fatalf("ParseRequest(fixed): %v", err)
	}
	if req.Hash() == fr.Hash() {
		t.Errorf("adaptive and fixed requests share hash %s", req.Hash())
	}

	// Determinism across parallelism — the acceptance criterion:
	// stopping decisions happen at round boundaries only, so the
	// response bytes cannot depend on the pool width.
	ctx := context.Background()
	b1, err := Run(ctx, req, engine.NewPool(1))
	if err != nil {
		t.Fatalf("Run(parallel=1): %v", err)
	}
	req8, err := ParseRequest(body, Limits{})
	if err != nil {
		t.Fatalf("re-ParseRequest: %v", err)
	}
	b8, err := Run(ctx, req8, engine.NewPool(8))
	if err != nil {
		t.Fatalf("Run(parallel=8): %v", err)
	}
	if !bytes.Equal(b1, b8) {
		t.Errorf("adaptive parallel=1 and parallel=8 bodies differ:\n%s\n%s", b1, b8)
	}

	// Envelope: replications echoes the ceiling; replications_used is
	// a multiple-of-rounds spend within [1, maxReps].
	var env struct {
		Replications     int64 `json:"replications"`
		ReplicationsUsed int64 `json:"replications_used"`
	}
	if err := json.Unmarshal(b1, &env); err != nil {
		t.Fatalf("decoding envelope: %v", err)
	}
	if env.Replications != int64(maxReps) {
		t.Errorf("envelope replications = %d, want the ceiling %d", env.Replications, maxReps)
	}
	if env.ReplicationsUsed < 1 || env.ReplicationsUsed > int64(maxReps) {
		t.Errorf("replications_used = %d outside [1, %d]", env.ReplicationsUsed, maxReps)
	}
	if wantUsed != 0 && env.ReplicationsUsed != wantUsed {
		t.Errorf("replications_used = %d, want %d", env.ReplicationsUsed, wantUsed)
	}

	// Adaptive ≡ fixed: a fixed-budget request of exactly the used
	// count must produce a byte-identical result fragment (the
	// envelopes differ by design: spec_hash and replications_used).
	eq, err := ParseRequest(withReplications(t, fixed, int(env.ReplicationsUsed)), Limits{})
	if err != nil {
		t.Fatalf("ParseRequest(fixed equivalent): %v", err)
	}
	be, err := Run(ctx, eq, engine.NewPool(3))
	if err != nil {
		t.Fatalf("Run(fixed equivalent): %v", err)
	}
	if af, ff := kindFragment(t, kind, b1), kindFragment(t, kind, be); !bytes.Equal(af, ff) {
		t.Errorf("adaptive result differs from the %d-replication fixed run:\n%s\n%s",
			env.ReplicationsUsed, af, ff)
	}

	// Budget enforcement runs against the precision ceiling.
	work := req.Scenario.Work(req.Payload)
	tight := Limits{MaxSimWork: work * float64(maxReps) / 2}
	if _, err := ParseRequest(body, tight); err == nil {
		t.Errorf("ParseRequest accepted an adaptive request exceeding MaxSimWork %g", tight.MaxSimWork)
	}
	if _, err := ParseRequest(body, Limits{MaxReplications: maxReps - 1}); err == nil {
		t.Errorf("ParseRequest accepted max_replications above the MaxReplications limit")
	}
}

// TestAdaptiveStopsBeforeCeiling pins the point of the mode on one cheap
// kind: a loose target must stop well under the ceiling, and a tighter
// target must spend at least as much.
func TestAdaptiveStopsBeforeCeiling(t *testing.T) {
	fixed := []byte(scenariotest.SimulateBody("batch", 11))
	run := func(target float64) int64 {
		req, err := ParseRequest(adaptiveBody(t, fixed, target, 4096), Limits{})
		if err != nil {
			t.Fatal(err)
		}
		body, err := Run(context.Background(), req, engine.NewPool(0))
		if err != nil {
			t.Fatal(err)
		}
		var env struct {
			ReplicationsUsed int64 `json:"replications_used"`
		}
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatal(err)
		}
		return env.ReplicationsUsed
	}
	loose, tight := run(0.2), run(0.02)
	if loose >= 4096 {
		t.Errorf("loose target spent the whole ceiling (%d)", loose)
	}
	if tight < loose {
		t.Errorf("tighter target spent fewer replications (%d) than the loose one (%d)", tight, loose)
	}
}

func TestPrecisionReplicationsMutuallyExclusive(t *testing.T) {
	body := []byte(scenariotest.SimulateBody("mmm", 7))
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	m["precision"] = json.RawMessage(`{"target_ci95":0.1,"max_replications":64}`)
	both, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseRequest(both, Limits{}); err == nil ||
		!strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("body with both replications and precision parsed: err=%v", err)
	}
	for _, bad := range []string{
		`{"target_ci95":0,"max_replications":64}`,
		`{"target_ci95":-0.1,"max_replications":64}`,
		`{"target_ci95":0.1,"max_replications":0}`,
		`{"target_ci95":0.1,"confidence":1.2,"max_replications":64}`,
		`{"target_ci95":0.1,"max_replications":64,"bogus":1}`,
	} {
		var m2 map[string]json.RawMessage
		if err := json.Unmarshal(body, &m2); err != nil {
			t.Fatal(err)
		}
		delete(m2, "replications")
		m2["precision"] = json.RawMessage(bad)
		b, err := json.Marshal(m2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseRequest(b, Limits{}); err == nil {
			t.Errorf("invalid precision block %s parsed", bad)
		}
	}
}

// TestAntitheticConformance: the knob is either accepted — with the same
// parallelism-invariance contract and a distinct hash — or rejected as a
// BadSpec naming the knob. Kinds driven by categorical draws must reject.
func TestAntitheticConformance(t *testing.T) {
	mustReject := map[string]bool{"bandit": true, "mdp": true, "restless": true}
	for _, kind := range Kinds() {
		t.Run(kind, func(t *testing.T) {
			body := []byte(scenariotest.SimulateBody(kind, 7))
			var m map[string]json.RawMessage
			if err := json.Unmarshal(body, &m); err != nil {
				t.Fatal(err)
			}
			m["antithetic"] = json.RawMessage("true")
			ab, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			req, err := ParseRequest(ab, Limits{})
			if err != nil {
				t.Fatalf("ParseRequest(antithetic): %v", err)
			}
			if !req.Antithetic {
				t.Fatal("antithetic flag not parsed")
			}
			plain, err := ParseRequest(body, Limits{})
			if err != nil {
				t.Fatal(err)
			}
			if req.Hash() == plain.Hash() {
				t.Errorf("antithetic and plain requests share hash %s", req.Hash())
			}

			ctx := context.Background()
			b1, err := Run(ctx, req, engine.NewPool(1))
			if err != nil {
				var bad BadSpec
				if !errors.As(err, &bad) || !strings.Contains(err.Error(), "antithetic") {
					t.Fatalf("antithetic rejection must be a BadSpec naming the knob, got %v", err)
				}
				return
			}
			if mustReject[kind] {
				t.Fatalf("kind %s accepted antithetic despite categorical transitions", kind)
			}
			req8, err := ParseRequest(ab, Limits{})
			if err != nil {
				t.Fatal(err)
			}
			b8, err := Run(ctx, req8, engine.NewPool(8))
			if err != nil {
				t.Fatalf("Run(parallel=8): %v", err)
			}
			if !bytes.Equal(b1, b8) {
				t.Errorf("antithetic parallel=1 and parallel=8 bodies differ:\n%s\n%s", b1, b8)
			}
			// The pairing must actually change the sample path: the plain
			// run's fragment and the antithetic one cannot coincide.
			pb, err := Run(ctx, plain, engine.NewPool(0))
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(kindFragment(t, kind, b1), kindFragment(t, kind, pb)) {
				t.Errorf("antithetic run produced the plain run's bytes — pairing had no effect")
			}
		})
	}
}
