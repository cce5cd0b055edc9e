package restless

import (
	"context"
	"math"
	"testing"

	"stochsched/internal/engine"
	"stochsched/internal/rng"
	"stochsched/internal/stats"
)

// estimateStaticPriority aggregates reps replications of
// SimulateStaticPriority on the pool, one substream of s each, folded in
// replication order.
func estimateStaticPriority(ctx context.Context, p *engine.Pool, f *Fleet, score []float64, horizon, burnin, reps int, s *rng.Stream) (*stats.Running, error) {
	var est stats.Running
	err := engine.ReplicateReduce(ctx, p, reps, s, func(sub *rng.Stream) (float64, error) {
		return f.SimulateStaticPriority(score, horizon, burnin, sub)
	}, est.Add)
	return &est, err
}

// estimateRandomPolicy is estimateStaticPriority for SimulateRandomPolicy.
func estimateRandomPolicy(ctx context.Context, p *engine.Pool, f *Fleet, horizon, burnin, reps int, s *rng.Stream) (*stats.Running, error) {
	var est stats.Running
	err := engine.ReplicateReduce(ctx, p, reps, s, func(sub *rng.Stream) (float64, error) {
		return f.SimulateRandomPolicy(horizon, burnin, sub)
	}, est.Add)
	return &est, err
}

func repairFleet(t *testing.T, n, m int) (*Fleet, []float64) {
	t.Helper()
	p, err := MachineRepair(4, 0.3, 0.5, []float64{1, 0.8, 0.4, 0})
	if err != nil {
		t.Fatal(err)
	}
	widx, err := WhittleIndex(p, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	return &Fleet{Type: p, N: n, M: m}, widx
}

func TestEstimateStaticPriorityDeterministicAcrossParallelism(t *testing.T) {
	fleet, widx := repairFleet(t, 8, 2)
	var want [2]uint64
	for i, par := range []int{1, 8} {
		est, err := estimateStaticPriority(context.Background(), engine.NewPool(par), fleet, widx, 2000, 400, 12, rng.New(31))
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

func TestEstimateRandomPolicyBaseline(t *testing.T) {
	fleet, widx := repairFleet(t, 8, 2)
	s := rng.New(33)
	w, err := estimateStaticPriority(context.Background(), engine.NewPool(4), fleet, widx, 4000, 800, 8, s.Split())
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := estimateRandomPolicy(context.Background(), engine.NewPool(4), fleet, 4000, 800, 8, s.Split())
	if err != nil {
		t.Fatal(err)
	}
	if rnd.N() != 8 {
		t.Fatalf("random-policy estimator saw %d replications, want 8", rnd.N())
	}
	// Whittle priorities must beat the uniformly random crew decisively.
	if w.Mean() <= rnd.Mean() {
		t.Fatalf("Whittle mean %v not above random mean %v", w.Mean(), rnd.Mean())
	}
}

func TestEstimateStaticPriorityPropagatesErrors(t *testing.T) {
	fleet, _ := repairFleet(t, 8, 2)
	// Score vector of the wrong length must surface the simulator's error
	// through the concurrent path.
	if _, err := estimateStaticPriority(context.Background(), engine.NewPool(4), fleet, []float64{1}, 2000, 400, 6, rng.New(1)); err == nil {
		t.Fatal("invalid score length accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, widx := repairFleet(t, 8, 2)
	if _, err := estimateStaticPriority(ctx, engine.NewPool(4), fleet, widx, 2000, 400, 6, rng.New(1)); err == nil {
		t.Fatal("cancelled estimate reported no error")
	}
}
