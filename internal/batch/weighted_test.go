package batch

import (
	"math"
	"testing"

	"stochsched/internal/dist"
	"stochsched/internal/rng"
)

// On a single machine the wµ list policy must attain the weighted DP
// optimum (the exponential case of Smith's rule).
func TestWMuOptimalSingleMachine(t *testing.T) {
	s := rng.New(650)
	for trial := 0; trial < 40; trial++ {
		n := 2 + s.Intn(5)
		rates := randRates(n, s)
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = 0.2 + 2*s.Float64()
		}
		opt, err := ExpOptimalWeightedDP(rates, weights, 1)
		if err != nil {
			t.Fatal(err)
		}
		val, err := ExpPolicyValueWeighted(rates, weights, 1, WMuOrder(rates, weights))
		if err != nil {
			t.Fatal(err)
		}
		if val > opt+1e-9 {
			t.Fatalf("trial %d: wµ value %v exceeds optimum %v", trial, val, opt)
		}
	}
}

// With unit weights the weighted DP must collapse to the flowtime DP.
func TestWeightedReducesToFlowtime(t *testing.T) {
	s := rng.New(651)
	rates := randRates(5, s)
	ones := []float64{1, 1, 1, 1, 1}
	a, err := ExpOptimalWeightedDP(rates, ones, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExpOptimalDP(rates, 2, Flowtime)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-b) > 1e-9 {
		t.Fatalf("weighted(1) %v != flowtime %v", a, b)
	}
}

// On parallel machines the wµ list policy is near-optimal; measure and
// bound the worst observed gap.
func TestWMuNearOptimalParallel(t *testing.T) {
	s := rng.New(652)
	worst := 0.0
	for trial := 0; trial < 40; trial++ {
		n := 3 + s.Intn(4)
		rates := randRates(n, s)
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = 0.2 + 2*s.Float64()
		}
		opt, err := ExpOptimalWeightedDP(rates, weights, 2)
		if err != nil {
			t.Fatal(err)
		}
		val, err := ExpPolicyValueWeighted(rates, weights, 2, WMuOrder(rates, weights))
		if err != nil {
			t.Fatal(err)
		}
		if val < opt-1e-9 {
			t.Fatalf("policy beats optimum: %v < %v", val, opt)
		}
		if g := (val - opt) / opt; g > worst {
			worst = g
		}
	}
	if worst > 0.05 {
		t.Fatalf("wµ worst relative gap %v exceeds 5%%", worst)
	}
}

func TestWeightedSimulationMatchesDP(t *testing.T) {
	s := rng.New(653)
	rates := []float64{0.5, 1, 2, 3}
	weights := []float64{2, 1, 0.5, 3}
	jobs := make([]Job, len(rates))
	for i := range jobs {
		jobs[i] = Job{ID: i, Weight: weights[i], Dist: dist.Exponential{Rate: rates[i]}}
	}
	o := WMuOrder(rates, weights)
	exact, err := ExpPolicyValueWeighted(rates, weights, 2, o)
	if err != nil {
		t.Fatal(err)
	}
	in := &Instance{Jobs: jobs, Machines: 2}
	est := mustEstimateParallel(t, in, o, 40000, s)
	if math.Abs(est.WeightedFlowtime.Mean()-exact) > 4*est.WeightedFlowtime.CI95() {
		t.Fatalf("simulated %v (±%v), exact %v", est.WeightedFlowtime.Mean(), est.WeightedFlowtime.CI95(), exact)
	}
}

func TestWeightedValidation(t *testing.T) {
	if _, err := ExpOptimalWeightedDP([]float64{1}, []float64{1, 2}, 1); err == nil {
		t.Error("mismatched weights accepted")
	}
	if _, err := ExpOptimalWeightedDP([]float64{1, -1}, []float64{1, 1}, 1); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := ExpPolicyValueWeighted([]float64{1, 1}, []float64{1, 1}, 1, Order{0}); err == nil {
		t.Error("invalid order accepted")
	}
}
