package batch

import (
	"math"
	"testing"

	"context"
	"stochsched/internal/dist"
	"stochsched/internal/engine"
	"stochsched/internal/rng"
)

func TestParallelOneMachineMatchesSingle(t *testing.T) {
	s := rng.New(600)
	in := RandomInstance(5, 1, s.Split())
	o := WSEPT(in.Jobs)
	// Same seed → same samples → identical realized values.
	r := SimulateList(in, o, rng.New(9))
	v := SimulateSingleMachine(in.Jobs, o, rng.New(9))
	if math.Abs(r.WeightedFlowtime-v) > 1e-9 {
		t.Fatalf("parallel(m=1) %v != single %v", r.WeightedFlowtime, v)
	}
}

func TestParallelDeterministicKnown(t *testing.T) {
	// 3 deterministic jobs (2, 3, 4) on 2 machines, order (0, 1, 2):
	// J0 on M1 done 2; J1 on M2 done 3; J2 starts at 2 done 6.
	in := &Instance{
		Jobs: []Job{
			{ID: 0, Weight: 1, Dist: dist.Deterministic{Value: 2}},
			{ID: 1, Weight: 1, Dist: dist.Deterministic{Value: 3}},
			{ID: 2, Weight: 1, Dist: dist.Deterministic{Value: 4}},
		},
		Machines: 2,
	}
	r := SimulateList(in, Order{0, 1, 2}, rng.New(1))
	if r.Makespan != 6 {
		t.Fatalf("makespan = %v, want 6", r.Makespan)
	}
	if r.Flowtime != 2+3+6 {
		t.Fatalf("flowtime = %v, want 11", r.Flowtime)
	}
}

func TestMoreMachinesNeverHurt(t *testing.T) {
	s := rng.New(601)
	for trial := 0; trial < 20; trial++ {
		in := RandomInstance(8, 1, s.Split())
		o := SEPT(in.Jobs)
		in2 := &Instance{Jobs: in.Jobs, Machines: 2}
		in4 := &Instance{Jobs: in.Jobs, Machines: 4}
		e2 := mustEstimateParallel(t, in2, o, 4000, s.Split())
		e4 := mustEstimateParallel(t, in4, o, 4000, s.Split())
		if e4.Makespan.Mean() > e2.Makespan.Mean()+3*(e4.Makespan.CI95()+e2.Makespan.CI95()) {
			t.Fatalf("trial %d: 4 machines worse than 2 for makespan: %v vs %v",
				trial, e4.Makespan.Mean(), e2.Makespan.Mean())
		}
	}
}

// The Coffman–Hofri–Weiss phenomenon (experiment E06): with two-point
// processing times on two machines, SEPT can be strictly suboptimal. A
// seeded search over random two-point instances with exact (enumerated)
// evaluation must exhibit a reversal: some static order strictly beats
// SEPT's order for expected flowtime. (With 3 jobs this is provably
// impossible — only E[min] of the leading pair is order-dependent — so the
// search uses 4 jobs.)
func TestTwoPointSEPTReversalExists(t *testing.T) {
	s := rng.New(603)
	found := false
	for trial := 0; trial < 500 && !found; trial++ {
		jobs := make([]Job, 4)
		for i := range jobs {
			a := 0.1 + 2*s.Float64()
			b := a + 0.5 + 20*s.Float64()
			pa := 0.5 + 0.49*s.Float64()
			jobs[i] = Job{ID: i, Weight: 1, Dist: dist.TwoPoint{A: a, B: b, PA: pa}}
		}
		in := &Instance{Jobs: jobs, Machines: 2}
		septRes, err := ExactParallelDiscrete(in, SEPT(jobs))
		if err != nil {
			t.Fatal(err)
		}
		best := math.Inf(1)
		Permutations(4, func(o Order) {
			r, err := ExactParallelDiscrete(in, o)
			if err != nil {
				t.Fatal(err)
			}
			if r.Flowtime < best {
				best = r.Flowtime
			}
		})
		if best < septRes.Flowtime-1e-9 {
			found = true
		}
	}
	if !found {
		t.Fatal("no SEPT reversal found in 500 random two-point instances")
	}
}

// ExactParallelDiscrete must agree with Monte Carlo on the same instance.
func TestExactDiscreteMatchesSimulation(t *testing.T) {
	s := rng.New(605)
	in := &Instance{
		Jobs: []Job{
			{ID: 0, Weight: 2, Dist: dist.TwoPoint{A: 1, B: 4, PA: 0.6}},
			{ID: 1, Weight: 1, Dist: dist.Deterministic{Value: 2}},
			{ID: 2, Weight: 1, Dist: dist.TwoPoint{A: 0.5, B: 3, PA: 0.3}},
		},
		Machines: 2,
	}
	o := Order{0, 1, 2}
	exact, err := ExactParallelDiscrete(in, o)
	if err != nil {
		t.Fatal(err)
	}
	est := mustEstimateParallel(t, in, o, 60000, s)
	if math.Abs(est.Flowtime.Mean()-exact.Flowtime) > 4*est.Flowtime.CI95() {
		t.Fatalf("flowtime sim %v (±%v) vs exact %v", est.Flowtime.Mean(), est.Flowtime.CI95(), exact.Flowtime)
	}
	if math.Abs(est.Makespan.Mean()-exact.Makespan) > 4*est.Makespan.CI95() {
		t.Fatalf("makespan sim %v (±%v) vs exact %v", est.Makespan.Mean(), est.Makespan.CI95(), exact.Makespan)
	}
}

// mustEstimateParallel folds reps replications of SimulateList, one
// substream of s each, into a ParallelEstimate on a GOMAXPROCS pool,
// failing the test on (impossible, absent cancellation) error.
func mustEstimateParallel(t *testing.T, in *Instance, o Order, reps int, s *rng.Stream) *ParallelEstimate {
	t.Helper()
	var est ParallelEstimate
	if err := engine.ReplicateReduce(context.Background(), engine.NewPool(0), reps, s,
		func(sub *rng.Stream) (ParallelResult, error) { return SimulateList(in, o, sub), nil }, est.Add); err != nil {
		t.Fatal(err)
	}
	return &est
}
