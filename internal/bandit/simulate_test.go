package bandit

import (
	"context"
	"math"
	"testing"

	"stochsched/internal/engine"
	"stochsched/internal/rng"
	"stochsched/internal/stats"
)

// estimateDiscounted aggregates reps replications of SimulateDiscounted on
// the pool, one substream of s each, folded in replication order.
func estimateDiscounted(ctx context.Context, p *engine.Pool, b *Bandit, pol Policy, start []int, reps int, s *rng.Stream) (*stats.Running, error) {
	var est stats.Running
	err := engine.ReplicateReduce(ctx, p, reps, s, func(sub *rng.Stream) (float64, error) {
		return SimulateDiscounted(b, pol, start, 1e-9, sub), nil
	}, est.Add)
	return &est, err
}

func TestSimulateDiscountedBounded(t *testing.T) {
	s := rng.New(901)
	b := randomBandit(2, 3, s.Split())
	maxR := 0.0
	for _, p := range b.Projects {
		for _, r := range p.R {
			if math.Abs(r) > maxR {
				maxR = math.Abs(r)
			}
		}
	}
	bound := maxR/(1-b.Beta) + 1e-9
	pol := GreedyPolicy(b)
	start := make([]int, len(b.Projects))
	for i := 0; i < 200; i++ {
		v := SimulateDiscounted(b, pol, start, 1e-9, s.Split())
		if math.Abs(v) > bound {
			t.Fatalf("replication %d: value %v outside ±%v", i, v, bound)
		}
	}
}

// The estimator must agree with exact policy evaluation for an arbitrary
// (here: greedy) policy, not just the Gittins rule.
func TestEstimateDiscountedMatchesPolicyValue(t *testing.T) {
	s := rng.New(902)
	b := randomBandit(2, 3, s.Split())
	pol := GreedyPolicy(b)
	exact, err := PolicyValue(b, pol)
	if err != nil {
		t.Fatal(err)
	}
	start := make([]int, len(b.Projects))
	est, err := estimateDiscounted(context.Background(), engine.NewPool(4), b, pol, start, 6000, s.Split())
	if err != nil {
		t.Fatal(err)
	}
	if est.N() != 6000 {
		t.Fatalf("estimator saw %d replications, want 6000", est.N())
	}
	if diff := math.Abs(est.Mean() - exact[0]); diff > 4*est.CI95() {
		t.Fatalf("simulated %v (±%v), exact %v", est.Mean(), est.CI95(), exact[0])
	}
}

func TestEstimateDiscountedDeterministicAcrossParallelism(t *testing.T) {
	s := rng.New(903)
	b := randomBandit(3, 3, s.Split())
	pol := GreedyPolicy(b)
	start := make([]int, len(b.Projects))
	var want [2]uint64
	for i, par := range []int{1, 8} {
		est, err := estimateDiscounted(context.Background(), engine.NewPool(par), b, pol, start, 400, rng.New(23))
		if err != nil {
			t.Fatal(err)
		}
		got := [2]uint64{math.Float64bits(est.Mean()), math.Float64bits(est.Var())}
		if i == 0 {
			want = got
		} else if got != want {
			t.Fatalf("parallel %d: aggregate bits %v differ from sequential %v", par, got, want)
		}
	}
}

func TestEstimateDiscountedCancelled(t *testing.T) {
	s := rng.New(904)
	b := randomBandit(2, 3, s.Split())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := make([]int, len(b.Projects))
	if _, err := estimateDiscounted(ctx, engine.NewPool(2), b, GreedyPolicy(b), start, 100, s.Split()); err == nil {
		t.Fatal("cancelled estimate reported no error")
	}
}
