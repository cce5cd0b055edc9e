package batch

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"stochsched/internal/dist"
	"stochsched/internal/engine"
	"stochsched/internal/rng"
	"stochsched/internal/stats"
)

func TestWSEPTMatchesExhaustive(t *testing.T) {
	s := rng.New(100)
	for trial := 0; trial < 200; trial++ {
		n := 2 + s.Intn(5)
		in := RandomInstance(n, 1, s.Split())
		wseptVal := ExactWeightedFlowtime(in.Jobs, WSEPT(in.Jobs))
		_, bestVal := BestOrderExhaustive(in.Jobs)
		if wseptVal > bestVal+1e-9 {
			t.Fatalf("trial %d: WSEPT value %v exceeds exhaustive optimum %v", trial, wseptVal, bestVal)
		}
	}
}

func TestExactWeightedFlowtimeKnown(t *testing.T) {
	jobs := []Job{
		{ID: 0, Weight: 1, Dist: dist.Deterministic{Value: 2}},
		{ID: 1, Weight: 3, Dist: dist.Deterministic{Value: 1}},
	}
	// Order (1, 0): C1=1, C0=3 → 3*1 + 1*3 = 6.
	if got := ExactWeightedFlowtime(jobs, Order{1, 0}); got != 6 {
		t.Fatalf("exact = %v, want 6", got)
	}
	// Order (0, 1): C0=2, C1=3 → 2 + 9 = 11.
	if got := ExactWeightedFlowtime(jobs, Order{0, 1}); got != 11 {
		t.Fatalf("exact = %v, want 11", got)
	}
	// WSEPT picks the better one: ratios 3/1 > 1/2.
	if got := WSEPT(jobs); got[0] != 1 {
		t.Fatalf("WSEPT order = %v", got)
	}
}

// estimate folds reps replications of sim, one substream of s each, into
// a running mean on the pool, in replication order.
func estimate(t *testing.T, p *engine.Pool, reps int, s *rng.Stream, sim func(*rng.Stream) float64) *stats.Running {
	t.Helper()
	var est stats.Running
	if err := engine.ReplicateReduce(context.Background(), p, reps, s,
		func(sub *rng.Stream) (float64, error) { return sim(sub), nil }, est.Add); err != nil {
		t.Fatal(err)
	}
	return &est
}

func TestSimulationMatchesExact(t *testing.T) {
	s := rng.New(101)
	in := RandomInstance(6, 1, s.Split())
	o := WSEPT(in.Jobs)
	est := estimate(t, engine.NewPool(0), 20000, s.Split(), func(sub *rng.Stream) float64 {
		return SimulateSingleMachine(in.Jobs, o, sub)
	})
	exact := ExactWeightedFlowtime(in.Jobs, o)
	if math.Abs(est.Mean()-exact) > 4*est.CI95() {
		t.Fatalf("simulated %v (±%v), exact %v", est.Mean(), est.CI95(), exact)
	}
}

func TestOrderHelpers(t *testing.T) {
	jobs := []Job{
		{ID: 0, Weight: 1, Dist: dist.Exponential{Rate: 1}},   // mean 1
		{ID: 1, Weight: 1, Dist: dist.Exponential{Rate: 0.5}}, // mean 2
		{ID: 2, Weight: 1, Dist: dist.Exponential{Rate: 2}},   // mean 0.5
	}
	if o := SEPT(jobs); o[0] != 2 || o[2] != 1 {
		t.Fatalf("SEPT = %v", o)
	}
	if o := LEPT(jobs); o[0] != 1 || o[2] != 2 {
		t.Fatalf("LEPT = %v", o)
	}
}

func TestRandomOrderIsPermutation(t *testing.T) {
	s := rng.New(102)
	err := quick.Check(func(nRaw uint8) bool {
		n := int(nRaw%8) + 1
		return validOrder(RandomOrder(n, s), n)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestPermutationsCount(t *testing.T) {
	count := 0
	Permutations(5, func(Order) { count++ })
	if count != 120 {
		t.Fatalf("permutation count = %d, want 120", count)
	}
}

func TestPermutationsGuard(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n > 10")
		}
	}()
	Permutations(11, func(Order) {})
}

func TestValidateInstance(t *testing.T) {
	bad := &Instance{}
	if bad.Validate() == nil {
		t.Error("empty instance accepted")
	}
	bad2 := &Instance{Jobs: []Job{{Weight: -1, Dist: dist.Deterministic{Value: 1}}}, Machines: 1}
	if bad2.Validate() == nil {
		t.Error("negative weight accepted")
	}
	bad3 := &Instance{Jobs: []Job{{Weight: 1, Dist: dist.Deterministic{Value: 1}}}, Machines: 0}
	if bad3.Validate() == nil {
		t.Error("zero machines accepted")
	}
	good := RandomInstance(3, 2, rng.New(1))
	if err := good.Validate(); err != nil {
		t.Errorf("valid instance rejected: %v", err)
	}
}

// Property: swapping two adjacent jobs that violate the Smith-ratio order
// never decreases the exact objective (the interchange argument).
func TestAdjacentInterchange(t *testing.T) {
	s := rng.New(103)
	for trial := 0; trial < 300; trial++ {
		n := 3 + s.Intn(5)
		in := RandomInstance(n, 1, s.Split())
		o := RandomOrder(n, s.Split())
		v := ExactWeightedFlowtime(in.Jobs, o)
		pos := s.Intn(n - 1)
		a, b := o[pos], o[pos+1]
		swapped := append(Order(nil), o...)
		swapped[pos], swapped[pos+1] = b, a
		v2 := ExactWeightedFlowtime(in.Jobs, swapped)
		// If the job with the higher Smith ratio is second, swapping helps.
		if in.Jobs[b].SmithRatio() > in.Jobs[a].SmithRatio()+1e-12 && v2 > v+1e-9 {
			t.Fatalf("trial %d: interchange toward WSEPT increased cost: %v → %v", trial, v, v2)
		}
	}
}
