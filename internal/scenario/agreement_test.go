package scenario

// Analytic-vs-simulation agreement: the analytic Index answers and the
// simulated estimates must agree for specs where theory gives the exact
// value. These are the cross-checks that make the dual analytic/simulation
// surface trustworthy — a drift in either path breaks the comparison here.

import (
	"context"
	"math"
	"testing"

	"stochsched/internal/engine"
	"stochsched/internal/queueing"
	"stochsched/internal/rng"
	"stochsched/internal/stats"
	"stochsched/pkg/api"
)

// jacksonTandem is a stable two-station tandem with exponential services:
// class 0 arrives at station 0 (rate 1, mean 0.5) and feeds class 1 at
// station 1 (mean 0.4). Product form gives station loads 0.5 and 0.4,
// hence station mean queue lengths ρ/(1−ρ) = 1 and 2/3 exactly.
const jacksonTandem = `{"stations":2,"classes":[
	{"station":0,"rate":1,"service":{"kind":"exp","rate":2},"hold_cost":2,"next":1},
	{"station":1,"service":{"kind":"exp","rate":2.5},"hold_cost":1}
]}`

func TestJacksonProductFormMatchesSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	sc, _ := Lookup("jackson")
	idx := sc.Index

	payload, err := idx.Parse([]byte(jacksonTandem))
	if err != nil {
		t.Fatal(err)
	}
	v, err := idx.Compute(payload, idx.Hash(payload))
	if err != nil {
		t.Fatal(err)
	}
	analytic := v.(*api.JacksonResponse)
	wantL := []float64{1, 2.0 / 3.0}
	for st, want := range wantL {
		if math.Abs(analytic.StationL[st]-want) > 1e-9 {
			t.Errorf("product-form station %d L = %v, want %v", st, analytic.StationL[st], want)
		}
	}

	var nw api.Network
	if err := DecodeStrict([]byte(jacksonTandem), &nw); err != nil {
		t.Fatal(err)
	}
	model, err := networkModel(&nw)
	if err != nil {
		t.Fatal(err)
	}
	pol := networkPolicy(model, "fcfs")
	rep := queueing.ReplicatedResult{L: make([]stats.Running, len(model.Classes))}
	if err := engine.ReplicateReduce(context.Background(), engine.NewPool(0), 24, rng.New(3), func(s *rng.Stream) (*queueing.SimResult, error) {
		return model.Simulate(pol, 4000, 500, 0, s)
	}, rep.Add); err != nil {
		t.Fatal(err)
	}
	// With one class per station the class L is the station L. An 8%
	// relative tolerance leaves generous slack over the CI at this budget.
	for st, want := range wantL {
		got := rep.L[st].Mean()
		if math.Abs(got-want) > 0.08*want {
			t.Errorf("simulated station %d L = %v, want %v (analytic)", st, got, want)
		}
	}
}

func TestMDPOptimalGainMatchesSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	sc, _ := Lookup("mdp")
	idx := sc.Index

	mdpSpec := `{"actions":[
		{"transitions":[[0.9,0.1],[0.6,0.4]],"rewards":[1,0]},
		{"transitions":[[0.2,0.8],[0.3,0.7]],"rewards":[2,-1]}
	]}`
	payload, err := idx.Parse([]byte(mdpSpec))
	if err != nil {
		t.Fatal(err)
	}
	v, err := idx.Compute(payload, idx.Hash(payload))
	if err != nil {
		t.Fatal(err)
	}
	analytic := v.(*api.MDPResponse)

	// The LP and RVI solve the same model by different machinery; they must
	// agree to solver tolerance.
	if math.Abs(analytic.Gain-analytic.LPGain) > 1e-6 {
		t.Errorf("RVI gain %v and LP gain %v disagree", analytic.Gain, analytic.LPGain)
	}

	body := `{"kind":"mdp","mdp":{"spec":{"actions":[
		{"transitions":[[0.9,0.1],[0.6,0.4]],"rewards":[1,0]},
		{"transitions":[[0.2,0.8],[0.3,0.7]],"rewards":[2,-1]}
	]},"policy":"optimal","horizon":6000,"burnin":500},"seed":5,"replications":16}`
	req, err := ParseRequest([]byte(body), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := req.Scenario.Simulate(context.Background(), engine.NewPool(0), req.Payload, req.Seed, req.Replications, SimOpts{})
	if err != nil {
		t.Fatal(err)
	}
	sim := res.(*api.MDPResult)
	tol := math.Max(3*sim.RewardCI95, 0.02)
	if math.Abs(sim.RewardMean-analytic.Gain) > tol {
		t.Errorf("simulated optimal reward %v ± %v vs analytic gain %v (tol %v)",
			sim.RewardMean, sim.RewardCI95, analytic.Gain, tol)
	}
}

func TestRestlessLPBoundDominatesSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	sc, _ := Lookup("restless")
	idx := sc.Index

	spec := `{"beta":0.9,
		"passive":{"transitions":[[0.7,0.3,0],[0,0.7,0.3],[0,0,1]],"rewards":[1,0.6,0.1]},
		"active":{"transitions":[[1,0,0],[1,0,0],[1,0,0]],"rewards":[-0.5,-0.5,-0.5]},
		"n":10,"m":3}`
	payload, err := idx.Parse([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	v, err := idx.Compute(payload, idx.Hash(payload))
	if err != nil {
		t.Fatal(err)
	}
	analytic := v.(*api.WhittleResponse)
	if analytic.LPBound == nil {
		t.Fatal("no lp_bound in the index response despite n/m in the payload")
	}

	body := `{"kind":"restless","restless":{"spec":{"beta":0.9,
		"passive":{"transitions":[[0.7,0.3,0],[0,0.7,0.3],[0,0,1]],"rewards":[1,0.6,0.1]},
		"active":{"transitions":[[1,0,0],[1,0,0],[1,0,0]],"rewards":[-0.5,-0.5,-0.5]}},
		"n":10,"m":3,"policy":"whittle","horizon":2000,"burnin":200},"seed":9,"replications":16}`
	req, err := ParseRequest([]byte(body), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := req.Scenario.Simulate(context.Background(), engine.NewPool(0), req.Payload, req.Seed, req.Replications, SimOpts{})
	if err != nil {
		t.Fatal(err)
	}
	sim := res.(*api.RestlessResult)

	// The relaxation bound dominates any feasible policy, the Whittle
	// heuristic included: simulated reward must not exceed it beyond noise.
	if sim.RewardMean-3*sim.RewardCI95 > *analytic.LPBound {
		t.Errorf("simulated whittle reward %v ± %v exceeds the LP upper bound %v",
			sim.RewardMean, sim.RewardCI95, *analytic.LPBound)
	}
	// And the heuristic should be good here: within 15% of the bound.
	if sim.RewardMean < 0.85*(*analytic.LPBound) {
		t.Errorf("simulated whittle reward %v implausibly far below the LP bound %v",
			sim.RewardMean, *analytic.LPBound)
	}
}
