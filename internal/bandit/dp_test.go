package bandit

import (
	"context"
	"math"
	"testing"

	"stochsched/internal/engine"
	"stochsched/internal/rng"
)

func randomBandit(nProj, maxStates int, s *rng.Stream) *Bandit {
	projects := make([]*Project, nProj)
	for i := range projects {
		projects[i] = RandomProject(2+s.Intn(maxStates-1), s.Split())
	}
	return &Bandit{Projects: projects, Beta: 0.6 + 0.35*s.Float64()}
}

// The central theorem (Gittins–Jones 1974): the Gittins index policy attains
// the DP-optimal value from every product state. Verified exactly on random
// instances.
func TestGittinsPolicyIsOptimal(t *testing.T) {
	s := rng.New(800)
	for trial := 0; trial < 15; trial++ {
		b := randomBandit(2+s.Intn(2), 4, s.Split())
		opt, _, err := OptimalValue(b)
		if err != nil {
			t.Fatal(err)
		}
		indices := make([][]float64, len(b.Projects))
		for i, p := range b.Projects {
			g, err := GittinsRestart(p, b.Beta)
			if err != nil {
				t.Fatal(err)
			}
			indices[i] = g
		}
		gv, err := PolicyValue(b, IndexPolicy(indices))
		if err != nil {
			t.Fatal(err)
		}
		for st := range opt {
			if math.Abs(gv[st]-opt[st]) > 1e-5*(1+math.Abs(opt[st])) {
				t.Fatalf("trial %d state %d: Gittins value %v != optimal %v", trial, st, gv[st], opt[st])
			}
		}
	}
}

// Greedy (myopic) is dominated by the optimum, and strictly so on some
// instances.
func TestGreedyDominatedAndSometimesStrictly(t *testing.T) {
	s := rng.New(801)
	strict := false
	for trial := 0; trial < 15; trial++ {
		b := randomBandit(2, 4, s.Split())
		opt, _, err := OptimalValue(b)
		if err != nil {
			t.Fatal(err)
		}
		gv, err := PolicyValue(b, GreedyPolicy(b))
		if err != nil {
			t.Fatal(err)
		}
		for st := range opt {
			if gv[st] > opt[st]+1e-7*(1+math.Abs(opt[st])) {
				t.Fatalf("trial %d: greedy %v beats optimal %v", trial, gv[st], opt[st])
			}
			if gv[st] < opt[st]-1e-4 {
				strict = true
			}
		}
	}
	if !strict {
		t.Fatal("greedy never strictly suboptimal across 15 random instances (suspicious)")
	}
}

// Simulation must agree with the exact policy evaluation.
func TestSimulationMatchesPolicyValue(t *testing.T) {
	s := rng.New(802)
	b := randomBandit(2, 3, s.Split())
	indices := make([][]float64, len(b.Projects))
	for i, p := range b.Projects {
		g, err := GittinsRestart(p, b.Beta)
		if err != nil {
			t.Fatal(err)
		}
		indices[i] = g
	}
	pol := IndexPolicy(indices)
	exact, err := PolicyValue(b, pol)
	if err != nil {
		t.Fatal(err)
	}
	start := make([]int, len(b.Projects))
	est, err := estimateDiscounted(context.Background(), engine.NewPool(0), b, pol, start, 4000, s.Split())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Mean()-exact[0]) > 4*est.CI95() {
		t.Fatalf("simulated %v (±%v), exact %v", est.Mean(), est.CI95(), exact[0])
	}
}

// With a switching cost, the plain Gittins rule loses optimality
// (Asawa–Teneketzis 1996): there must exist instances with a strict gap,
// and the gap must vanish at cost 0.
func TestSwitchingCostBreaksGittins(t *testing.T) {
	s := rng.New(803)
	strictFound := false
	for trial := 0; trial < 10 && !strictFound; trial++ {
		b := randomBandit(2, 3, s.Split())
		indices := make([][]float64, len(b.Projects))
		for i, p := range b.Projects {
			g, err := GittinsRestart(p, b.Beta)
			if err != nil {
				t.Fatal(err)
			}
			indices[i] = g
		}
		pol := IndexPolicy(indices)

		// Zero cost: extended evaluation equals classical optimum.
		opt0, _, err := SwitchingOptimalValue(b, 0)
		if err != nil {
			t.Fatal(err)
		}
		gv0, err := SwitchingPolicyValue(b, 0, pol)
		if err != nil {
			t.Fatal(err)
		}
		for st := range opt0 {
			if math.Abs(gv0[st]-opt0[st]) > 1e-5*(1+math.Abs(opt0[st])) {
				t.Fatalf("zero-cost mismatch at %d: %v vs %v", st, gv0[st], opt0[st])
			}
		}

		// Positive cost: Gittins is dominated, sometimes strictly.
		const cost = 0.4
		opt, _, err := SwitchingOptimalValue(b, cost)
		if err != nil {
			t.Fatal(err)
		}
		gv, err := SwitchingPolicyValue(b, cost, pol)
		if err != nil {
			t.Fatal(err)
		}
		for st := range opt {
			if gv[st] > opt[st]+1e-6*(1+math.Abs(opt[st])) {
				t.Fatalf("Gittins value %v beats switching optimum %v", gv[st], opt[st])
			}
			if gv[st] < opt[st]-1e-3 {
				strictFound = true
			}
		}
	}
	if !strictFound {
		t.Fatal("no instance found where switching costs make Gittins strictly suboptimal")
	}
}

func TestStateSpaceCodec(t *testing.T) {
	b := &Bandit{
		Projects: []*Project{RandomProject(3, rng.New(1)), RandomProject(4, rng.New(2)), RandomProject(2, rng.New(3))},
		Beta:     0.9,
	}
	ss := newStateSpace(b)
	if ss.size != 24 {
		t.Fatalf("size = %d, want 24", ss.size)
	}
	comp := make([]int, 3)
	seen := map[[3]int]bool{}
	for code := 0; code < ss.size; code++ {
		ss.decode(code, comp)
		key := [3]int{comp[0], comp[1], comp[2]}
		if seen[key] {
			t.Fatalf("duplicate decode %v", key)
		}
		seen[key] = true
		// with() must move exactly one component.
		code2 := ss.with(code, 1, (comp[1]+1)%4)
		ss.decode(code2, comp)
		if comp[1] != (key[1]+1)%4 || comp[0] != key[0] || comp[2] != key[2] {
			t.Fatalf("with() broke encoding: %v vs %v", comp, key)
		}
	}
}

func TestBanditValidation(t *testing.T) {
	if err := (&Bandit{}).Validate(); err == nil {
		t.Error("empty bandit accepted")
	}
	b := &Bandit{Projects: []*Project{RandomProject(2, rng.New(1))}, Beta: 1.2}
	if err := b.Validate(); err == nil {
		t.Error("beta > 1 accepted")
	}
}
