package sweep

// Common-random-numbers coverage: the crn knob's hash and cell-body
// semantics (against the fake backend), and the statistical point of the
// default — paired policy comparisons on shared streams have lower
// variance than independently seeded ones (against the real scenario
// registry). Also pins the sweep surface of target-precision cells: the
// stopping rule's spend flows from the cell envelope into row policies.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"stochsched/internal/engine"
	"stochsched/internal/scenario"
	"stochsched/pkg/api"
)

func boolPtr(b bool) *bool { return &b }

func TestCRNHashAndSeeds(t *testing.T) {
	be := &fakeBackend{}
	def, err := Expand(fakeRequest(0), be, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !def.CRN {
		t.Error("omitted crn did not default to common random numbers")
	}

	// Explicit true is the default: same hash, same cell bodies.
	on := fakeRequest(0)
	on.CRN = boolPtr(true)
	pOn, err := Expand(on, be, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pOn.Hash != def.Hash {
		t.Error("explicit crn true changed the sweep hash")
	}
	for i := 0; i < def.Cells(); i++ {
		if !bytes.Equal(pOn.Cell(i), def.Cell(i)) {
			t.Fatalf("explicit crn true changed cell %d", i)
		}
	}

	// False is a different experiment: new hash, per-policy seeds.
	off := fakeRequest(0)
	off.CRN = boolPtr(false)
	pOff, err := Expand(off, be, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pOff.Hash == def.Hash {
		t.Error("crn false kept the sweep hash")
	}
	if pOff.CRN {
		t.Error("plan reports crn on for a crn false request")
	}
	seeds := map[uint64]string{}
	for i := 0; i < pOff.Cells(); i++ {
		var c fakeCell
		if err := json.Unmarshal(pOff.Cell(i), &c); err != nil {
			t.Fatal(err)
		}
		pol := pOff.Policies[i%len(pOff.Policies)]
		if c.Seed == 7 {
			t.Errorf("cell %d kept the base seed", i)
		}
		if prev, dup := seeds[c.Seed]; dup && prev != pol {
			t.Errorf("policies %q and %q share derived seed %d", prev, pol, c.Seed)
		}
		seeds[c.Seed] = pol
	}
	if len(seeds) != 2 {
		t.Errorf("derived %d distinct seeds, want one per policy", len(seeds))
	}

	// Derivation is deterministic: a second expansion is byte-identical.
	pOff2, err := Expand(off, be, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pOff.Cells(); i++ {
		if !bytes.Equal(pOff.Cell(i), pOff2.Cell(i)) {
			t.Fatalf("crn false cell %d not reproducible", i)
		}
	}

	// A seed axis gives each point its own seed, and each point's policies
	// derive theirs from it.
	seeded := fakeRequest(0)
	seeded.CRN = boolPtr(false)
	seeded.Grid = api.Grid{Axes: []api.Axis{{Path: "seed", Values: []float64{1, 2, 3}}}}
	pSeeded, err := Expand(seeded, be, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pSeeded.Cells(); i++ {
		var c fakeCell
		if err := json.Unmarshal(pSeeded.Cell(i), &c); err != nil {
			t.Fatal(err)
		}
		pt, pol := i/len(pSeeded.Policies), pSeeded.Policies[i%len(pSeeded.Policies)]
		if want := independentSeed(uint64(pt+1), pol); c.Seed != want {
			t.Errorf("point %d policy %q: seed %d, want %d derived from the point's seed %d", pt, pol, c.Seed, want, pt+1)
		}
	}

	// Without a policy list there is nothing to decorrelate.
	bare := &api.SweepRequest{Base: json.RawMessage(fakeBase), CRN: boolPtr(false)}
	if _, err := Expand(bare, be, 0); err == nil || !strings.Contains(err.Error(), "policy") {
		t.Errorf("crn false without policies err = %v", err)
	}
}

func TestRowsCarryCRNFlag(t *testing.T) {
	rows, stream := runPlan(t, &fakeBackend{}, fakeRequest(0), nil)
	if !rows[0].CRN {
		t.Error("default sweep row does not report crn")
	}
	if !bytes.Contains(stream, []byte(`"crn":true`)) {
		t.Errorf("NDJSON lacks the crn member: %s", stream)
	}
	off := fakeRequest(0)
	off.CRN = boolPtr(false)
	rows, stream = runPlan(t, &fakeBackend{}, off, nil)
	if rows[0].CRN {
		t.Error("crn false sweep row reports crn")
	}
	if !bytes.Contains(stream, []byte(`"crn":false`)) {
		t.Errorf("NDJSON lacks the crn member: %s", stream)
	}
}

// scenarioBackend executes cells against the real scenario registry on a
// fixed pool — the in-process equivalent of the service backend, minus
// the cache.
type scenarioBackend struct{ pool *engine.Pool }

func (scenarioBackend) ValidateSimulate(body []byte) error {
	req, err := scenario.ParseRequest(body, scenario.Limits{})
	if err != nil {
		return err
	}
	return req.Scenario.Validate(req.Payload, req.Opts())
}

func (b scenarioBackend) Simulate(ctx context.Context, body []byte) ([]byte, error) {
	req, err := scenario.ParseRequest(body, scenario.Limits{})
	if err != nil {
		return nil, err
	}
	return scenario.Run(ctx, req, b.pool)
}

// flowshopBase is a small two-policy comparison: three exponential-stage
// jobs whose SEPT and LEPT makespans are strongly positively correlated
// when simulated on shared draws.
func flowshopBase(seed uint64, tail string) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(`{"kind":"flowshop","flowshop":{"spec":{"jobs":[
		{"stages":[{"kind":"exp","rate":2},{"kind":"exp","rate":1}]},
		{"stages":[{"kind":"exp","rate":1},{"kind":"exp","rate":2}]},
		{"stages":[{"kind":"exp","rate":1.5},{"kind":"exp","rate":1.5}]}
	]},"policy":"sept"},"seed":%d,%s}`, seed, tail))
}

// TestCRNReducesPairedVariance is the statistical contract of the default:
// across independent trials, the variance of the SEPT−LEPT mean-makespan
// difference under common random numbers must be well below the
// independently-seeded variance. The margin (half) is loose against the
// measured ratio (~10x), so the test is not seed-sensitive in practice.
func TestCRNReducesPairedVariance(t *testing.T) {
	be := scenarioBackend{pool: engine.NewPool(2)}
	diff := func(seed uint64, crn bool) float64 {
		req := &api.SweepRequest{
			Base:     flowshopBase(seed, `"replications":16`),
			Policies: []string{"sept", "lept"},
			CRN:      boolPtr(crn),
		}
		rows, _ := runPlan(t, be, req, be.pool)
		if len(rows) != 1 || len(rows[0].Policies) != 2 {
			t.Fatalf("unexpected rows %+v", rows)
		}
		return rows[0].Policies[0].Mean - rows[0].Policies[1].Mean
	}
	variance := func(crn bool) float64 {
		const trials = 24
		var sum, sum2 float64
		for s := 0; s < trials; s++ {
			d := diff(uint64(1000+s), crn)
			sum += d
			sum2 += d * d
		}
		mean := sum / trials
		return sum2/trials - mean*mean
	}
	paired, independent := variance(true), variance(false)
	if !(paired < independent/2) {
		t.Errorf("CRN paired variance %g not well below independent %g", paired, independent)
	}
}

// TestSweepOverAdaptiveCells: a sweep whose base runs in target-precision
// mode surfaces each cell's replications_used in the row, and the NDJSON
// stays byte-identical across parallelism (stopping happens inside the
// deterministic cell, never in the sweep layer).
func TestSweepOverAdaptiveCells(t *testing.T) {
	req := func() *api.SweepRequest {
		return &api.SweepRequest{
			Base:     flowshopBase(7, `"precision":{"target_ci95":0.1,"max_replications":256}`),
			Policies: []string{"sept", "lept"},
		}
	}
	be := scenarioBackend{pool: engine.NewPool(2)}
	rows, s1 := runPlan(t, be, req(), engine.NewPool(1))
	for _, pr := range rows[0].Policies {
		if pr.ReplicationsUsed < 1 || pr.ReplicationsUsed > 256 {
			t.Errorf("policy %q replications_used = %d outside [1, 256]", pr.Policy, pr.ReplicationsUsed)
		}
	}
	if !bytes.Contains(s1, []byte(`"replications_used":`)) {
		t.Errorf("NDJSON lacks replications_used: %s", s1)
	}
	_, s8 := runPlan(t, be, req(), engine.NewPool(8))
	if !bytes.Equal(s1, s8) {
		t.Fatalf("adaptive sweep NDJSON differs across parallelism:\n%s\nvs\n%s", s1, s8)
	}

	// Fixed-budget rows keep the legacy shape: no replications_used member.
	fixedReq := &api.SweepRequest{
		Base:     flowshopBase(7, `"replications":16`),
		Policies: []string{"sept", "lept"},
	}
	if _, s := runPlan(t, be, fixedReq, be.pool); bytes.Contains(s, []byte(`"replications_used"`)) {
		t.Errorf("fixed-budget sweep row grew a replications_used member: %s", s)
	}
}
