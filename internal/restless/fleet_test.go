package restless

import (
	"math"
	"slices"
	"sort"
	"testing"

	"context"
	"stochsched/internal/engine"
	"stochsched/internal/rng"
)

func TestRelaxationBasics(t *testing.T) {
	p := testRepairProject(t)
	sol, err := SolveRelaxation(p, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	// Occupation measure must be a distribution with the right activity mass.
	total, active := 0.0, 0.0
	for i := range sol.X {
		for a := 0; a < 2; a++ {
			if sol.X[i][a] < -1e-9 {
				t.Fatalf("negative occupation x[%d][%d] = %v", i, a, sol.X[i][a])
			}
			total += sol.X[i][a]
		}
		active += sol.X[i][Active]
	}
	if math.Abs(total-1) > 1e-7 {
		t.Fatalf("occupation sums to %v, want 1", total)
	}
	if math.Abs(active-0.25) > 1e-7 {
		t.Fatalf("active mass %v, want 0.25", active)
	}
}

func TestRelaxationValueMonotoneInAlphaConstraintSet(t *testing.T) {
	// With repair costly and passivity earning revenue, forcing more
	// activity should not increase the relaxed value on this instance.
	p := testRepairProject(t)
	prev := math.Inf(1)
	for _, alpha := range []float64{0.1, 0.3, 0.6, 0.9} {
		sol, err := SolveRelaxation(p, alpha)
		if err != nil {
			t.Fatal(err)
		}
		if sol.ValuePerProject > prev+1e-7 {
			t.Fatalf("relaxed value increased with forced activity: %v → %v at α=%v", prev, sol.ValuePerProject, alpha)
		}
		prev = sol.ValuePerProject
	}
}

// The LP value must upper-bound every feasible fleet policy (Whittle 1988).
func TestLPBoundDominatesSimulation(t *testing.T) {
	p := testRepairProject(t)
	s := rng.New(910)
	fleet := &Fleet{Type: p, N: 8, M: 2}
	bound, err := FleetUpperBound(p, fleet.N, fleet.M)
	if err != nil {
		t.Fatal(err)
	}
	widx, err := WhittleIndex(p, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	for _, score := range [][]float64{widx, MyopicScore(p)} {
		est, err := estimateStaticPriority(context.Background(), engine.NewPool(0), fleet, score, 4000, 500, 10, s.Split())
		if err != nil {
			t.Fatal(err)
		}
		if est.Mean() > bound+4*est.CI95() {
			t.Fatalf("policy average %v (±%v) exceeds LP bound %v", est.Mean(), est.CI95(), bound)
		}
	}
	rnd, err := fleet.SimulateRandomPolicy(4000, 500, s.Split())
	if err != nil {
		t.Fatal(err)
	}
	if rnd > bound+0.5 {
		t.Fatalf("random policy %v exceeds LP bound %v", rnd, bound)
	}
}

// Whittle's rule should dominate the random baseline on the repair fleet.
func TestWhittleBeatsRandom(t *testing.T) {
	p := testRepairProject(t)
	s := rng.New(911)
	fleet := &Fleet{Type: p, N: 10, M: 3}
	widx, err := WhittleIndex(p, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	wEst, err := estimateStaticPriority(context.Background(), engine.NewPool(0), fleet, widx, 6000, 1000, 10, s.Split())
	if err != nil {
		t.Fatal(err)
	}
	var rndSum float64
	const rndReps = 10
	for i := 0; i < rndReps; i++ {
		v, err := fleet.SimulateRandomPolicy(6000, 1000, s.Split())
		if err != nil {
			t.Fatal(err)
		}
		rndSum += v
	}
	rnd := rndSum / rndReps
	if wEst.Mean() <= rnd {
		t.Fatalf("Whittle %v did not beat random %v", wEst.Mean(), rnd)
	}
}

// Weber–Weiss shape: the per-project gap between the Whittle policy and the
// LP bound shrinks as the fleet grows at fixed activation fraction.
func TestAsymptoticGapShrinks(t *testing.T) {
	p := testRepairProject(t)
	s := rng.New(912)
	widx, err := WhittleIndex(p, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	gap := func(n int) float64 {
		m := n / 4
		fleet := &Fleet{Type: p, N: n, M: m}
		bound, err := FleetUpperBound(p, n, m)
		if err != nil {
			t.Fatal(err)
		}
		est, err := estimateStaticPriority(context.Background(), engine.NewPool(0), fleet, widx, 8000, 1000, 6, s.Split())
		if err != nil {
			t.Fatal(err)
		}
		return (bound - est.Mean()) / float64(n)
	}
	small := gap(4)
	large := gap(32)
	if large > small+0.01 {
		t.Fatalf("per-project gap grew with N: N=4 → %v, N=32 → %v", small, large)
	}
}

func TestPDIndexRanksLikeAdvantage(t *testing.T) {
	// On the repair project, the primal–dual index should rank the worst
	// state above the best state, like the Whittle index does.
	p := testRepairProject(t)
	sol, err := SolveRelaxation(p, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if sol.PDIndex[3] <= sol.PDIndex[0] {
		t.Fatalf("PD index does not prioritize deteriorated machines: %v", sol.PDIndex)
	}
}

func TestFleetValidation(t *testing.T) {
	p := testRepairProject(t)
	f := &Fleet{Type: p, N: 2, M: 3}
	if err := f.Validate(); err == nil {
		t.Error("M > N accepted")
	}
	f2 := &Fleet{Type: p, N: 4, M: 1}
	if _, err := f2.SimulateStaticPriority([]float64{1}, 100, 10, rng.New(1)); err == nil {
		t.Error("short score vector accepted")
	}
	if _, err := f2.SimulateStaticPriority(MyopicScore(p), 10, 20, rng.New(1)); err == nil {
		t.Error("burnin beyond horizon accepted")
	}
	if _, err := FleetUpperBound(p, 0, 0); err == nil {
		t.Error("empty fleet accepted")
	}
}

// TestFleetRejectsNegativeBurnin: both fleet simulators measure over
// [burnin, horizon), so a negative burn-in is rejected before any draw.
// Accepted, it summed the reward of horizon epochs and divided it by
// horizon − burnin: burn-in −50 at horizon 100 read 2/3 of the average.
func TestFleetRejectsNegativeBurnin(t *testing.T) {
	f, _ := repairFleet(t, 8, 2)
	for _, w := range []struct{ horizon, burnin int }{{100, -50}, {100, -1}, {100, 100}, {10, 20}} {
		s := rng.New(1)
		if v, err := f.SimulateStaticPriority(MyopicScore(f.Type), w.horizon, w.burnin, s); err == nil {
			t.Errorf("static priority: burnin %d, horizon %d accepted, read %v", w.burnin, w.horizon, v)
		}
		if v, err := f.SimulateRandomPolicy(w.horizon, w.burnin, s); err == nil {
			t.Errorf("random policy: burnin %d, horizon %d accepted, read %v", w.burnin, w.horizon, v)
		}
		if s.Uint64() != rng.New(1).Uint64() {
			t.Errorf("burnin %d, horizon %d: a simulator drew before rejecting", w.burnin, w.horizon)
		}
	}
	if _, err := f.SimulateStaticPriority(MyopicScore(f.Type), 100, 0, rng.New(1)); err != nil {
		t.Errorf("burnin 0 rejected: %v", err)
	}
}

// TestRankProjectsMatchesStableSort: the counting sort ranks projects
// exactly as a stable sort by decreasing score does, including states that
// share a score.
func TestRankProjectsMatchesStableSort(t *testing.T) {
	s := rng.New(913)
	for trial := 0; trial < 200; trial++ {
		states := 1 + s.Intn(6)
		score := make([]float64, states)
		for i := range score {
			score[i] = float64(s.Intn(3)) // few values, so ties across states
		}
		state := make([]int, 1+s.Intn(40))
		for i := range state {
			state[i] = s.Intn(states)
		}
		want := make([]int, len(state))
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(a, b int) bool {
			return score[state[want[a]]] > score[state[want[b]]]
		})
		got := make([]int, len(state))
		rankProjects(got, state, scoreBuckets(score), make([]int, states))
		if !slices.Equal(got, want) {
			t.Fatalf("score %v, state %v: ranked %v, want %v", score, state, got, want)
		}
	}
}

// TestRandomPolicyMatchesPerm: the random policy shuffles one index slice
// in place each epoch, with the draws of a fresh s.Perm(N), so every
// replication keeps the bits it had when each epoch ranked by Perm.
func TestRandomPolicyMatchesPerm(t *testing.T) {
	p := whittleGoldenProject()
	for _, f := range []*Fleet{{Type: p, N: 10, M: 3}, {Type: p, N: 1, M: 1}, {Type: p, N: 7, M: 0}} {
		for seed := uint64(1); seed <= 6; seed++ {
			got, err := f.SimulateRandomPolicy(150, 30, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			s := rng.New(seed)
			want := f.run(150, 30, s, func([]int) []int { return s.Perm(f.N) })
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("N=%d M=%d seed %d: %v, want %v (Perm ranking)", f.N, f.M, seed, got, want)
			}
		}
	}
}

// TestRandomPolicyAllocations: on the canonical restless body's fleet
// (N = 10, horizon 150) a random-policy replication allocates no more than
// a static-priority one; ranking with a fresh permutation each epoch made
// it 157 against 10.
func TestRandomPolicyAllocations(t *testing.T) {
	f := &Fleet{Type: whittleGoldenProject(), N: 10, M: 3}
	score := MyopicScore(f.Type)
	s := rng.New(1)
	static := testing.AllocsPerRun(50, func() { _, _ = f.SimulateStaticPriority(score, 150, 30, s) })
	random := testing.AllocsPerRun(50, func() { _, _ = f.SimulateRandomPolicy(150, 30, s) })
	if random > static {
		t.Errorf("random policy made %v allocations per replication, static priority %v", random, static)
	}
}
