package bandit

import (
	"context"
	"fmt"
	"math"
	"testing"

	"stochsched/internal/engine"
	"stochsched/internal/linalg"
	"stochsched/internal/markov"
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

// The four product-chain solvers as they were written before they shared
// stateSpace.chain, one builder each: the bit-for-bit reference
// TestProductChainMatchesReference holds the shared builder to.

func refOptimalValue(b *Bandit) ([]float64, []int, error) {
	if err := b.Validate(); err != nil {
		return nil, nil, err
	}
	ss := newStateSpace(b)
	if ss.size > maxProductStates {
		return nil, nil, fmt.Errorf("bandit: product space %d exceeds limit %d", ss.size, maxProductStates)
	}
	nProj := len(b.Projects)
	transitions := make([]*linalg.Matrix, nProj)
	rewards := make([][]float64, nProj)
	comp := make([]int, nProj)
	for a := 0; a < nProj; a++ {
		tr := linalg.NewMatrix(ss.size, ss.size)
		rw := make([]float64, ss.size)
		proj := b.Projects[a]
		for code := 0; code < ss.size; code++ {
			ss.decode(code, comp)
			sa := comp[a]
			rw[code] = proj.R[sa]
			for next := 0; next < proj.N(); next++ {
				pr := proj.P.At(sa, next)
				if pr > 0 {
					tr.Set(code, ss.with(code, a, next), tr.At(code, ss.with(code, a, next))+pr)
				}
			}
		}
		transitions[a] = tr
		rewards[a] = rw
	}
	v, pol, err := markov.ValueIteration(transitions, rewards, nil, b.Beta, 1e-10, 1_000_000)
	if err != nil {
		return nil, nil, err
	}
	return v, pol, nil
}

func refPolicyValue(b *Bandit, pol Policy) ([]float64, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	ss := newStateSpace(b)
	if ss.size > maxProductStates {
		return nil, fmt.Errorf("bandit: product space %d exceeds limit %d", ss.size, maxProductStates)
	}
	p := linalg.NewMatrix(ss.size, ss.size)
	r := make([]float64, ss.size)
	comp := make([]int, len(b.Projects))
	for code := 0; code < ss.size; code++ {
		ss.decode(code, comp)
		a := pol(comp)
		proj := b.Projects[a]
		sa := comp[a]
		r[code] = proj.R[sa]
		for next := 0; next < proj.N(); next++ {
			pr := proj.P.At(sa, next)
			if pr > 0 {
				tgt := ss.with(code, a, next)
				p.Set(code, tgt, p.At(code, tgt)+pr)
			}
		}
	}
	chain, err := markov.NewChain(p)
	if err != nil {
		return nil, err
	}
	return chain.DiscountedValue(r, b.Beta)
}

func refSwitchingOptimalValue(b *Bandit, cost float64) ([]float64, []int, error) {
	if err := b.Validate(); err != nil {
		return nil, nil, err
	}
	ss := newStateSpace(b)
	nProj := len(b.Projects)
	ext := ss.size * nProj
	if ext > maxProductStates {
		return nil, nil, fmt.Errorf("bandit: extended space %d exceeds limit %d", ext, maxProductStates)
	}
	transitions := make([]*linalg.Matrix, nProj)
	rewards := make([][]float64, nProj)
	comp := make([]int, nProj)
	for a := 0; a < nProj; a++ {
		tr := linalg.NewMatrix(ext, ext)
		rw := make([]float64, ext)
		proj := b.Projects[a]
		for code := 0; code < ss.size; code++ {
			ss.decode(code, comp)
			sa := comp[a]
			for last := 0; last < nProj; last++ {
				st := code*nProj + last
				rw[st] = proj.R[sa]
				if last != a {
					rw[st] -= cost
				}
				for next := 0; next < proj.N(); next++ {
					pr := proj.P.At(sa, next)
					if pr > 0 {
						tgt := ss.with(code, a, next)*nProj + a
						tr.Set(st, tgt, tr.At(st, tgt)+pr)
					}
				}
			}
		}
		transitions[a] = tr
		rewards[a] = rw
	}
	return markov.ValueIteration(transitions, rewards, nil, b.Beta, 1e-10, 1_000_000)
}

func refSwitchingPolicyValue(b *Bandit, cost float64, pol Policy) ([]float64, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	ss := newStateSpace(b)
	nProj := len(b.Projects)
	ext := ss.size * nProj
	if ext > maxProductStates {
		return nil, fmt.Errorf("bandit: extended space %d exceeds limit %d", ext, maxProductStates)
	}
	p := linalg.NewMatrix(ext, ext)
	r := make([]float64, ext)
	comp := make([]int, nProj)
	for code := 0; code < ss.size; code++ {
		ss.decode(code, comp)
		a := pol(comp)
		proj := b.Projects[a]
		sa := comp[a]
		for last := 0; last < nProj; last++ {
			st := code*nProj + last
			r[st] = proj.R[sa]
			if last != a {
				r[st] -= cost
			}
			for next := 0; next < proj.N(); next++ {
				pr := proj.P.At(sa, next)
				if pr > 0 {
					tgt := ss.with(code, a, next)*nProj + a
					p.Set(st, tgt, p.At(st, tgt)+pr)
				}
			}
		}
	}
	chain, err := markov.NewChain(p)
	if err != nil {
		return nil, err
	}
	return chain.DiscountedValue(r, b.Beta)
}

// sameBits fails t unless got and want hold the same float64 bits.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// samePolicy fails t unless got and want engage the same projects.
func samePolicy(t *testing.T, what string, got, want []int) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: policy %v, want %v", what, got, want)
	}
}

// TestProductChainMatchesReference holds the four solvers on the shared
// product-chain builder to the builders they replaced, bit for bit in
// every value and action: 300 random bandits of 2–3 projects with 2–4
// states each, at switching costs 0, 0.1, 0.4 and 0.8, under the Gittins
// rule and the greedy rule.
func TestProductChainMatchesReference(t *testing.T) {
	s := rng.New(830)
	for trial := 0; trial < 300; trial++ {
		b := randomBandit(2+s.Intn(2), 4, s.Split())
		// A discount of at most 0.5 keeps value iteration short; the
		// builders never read it.
		b.Beta = 0.3 + 0.2*s.Float64()
		indices := make([][]float64, len(b.Projects))
		for i, p := range b.Projects {
			var err error
			if indices[i], err = GittinsRestart(p, b.Beta); err != nil {
				t.Fatal(err)
			}
		}
		policies := map[string]Policy{"gittins": IndexPolicy(indices), "greedy": GreedyPolicy(b)}

		v, pol, err := OptimalValue(b)
		if err != nil {
			t.Fatal(err)
		}
		rv, rpol, err := refOptimalValue(b)
		if err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("trial %d OptimalValue", trial)
		sameBits(t, what, v, rv)
		samePolicy(t, what, pol, rpol)
		for name, p := range policies {
			got, err := PolicyValue(b, p)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refPolicyValue(b, p)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, fmt.Sprintf("trial %d PolicyValue(%s)", trial, name), got, want)
		}

		for _, cost := range []float64{0, 0.1, 0.4, 0.8} {
			v, pol, err := SwitchingOptimalValue(b, cost)
			if err != nil {
				t.Fatal(err)
			}
			rv, rpol, err := refSwitchingOptimalValue(b, cost)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("trial %d SwitchingOptimalValue(%v)", trial, cost)
			sameBits(t, what, v, rv)
			samePolicy(t, what, pol, rpol)
			for name, p := range policies {
				got, err := SwitchingPolicyValue(b, cost, p)
				if err != nil {
					t.Fatal(err)
				}
				want, err := refSwitchingPolicyValue(b, cost, p)
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, fmt.Sprintf("trial %d SwitchingPolicyValue(%v, %s)", trial, cost, name), got, want)
			}
		}
	}
}

// TestProductSpaceLimit: the one size check names the product space
// without switching costs and the extended space with them.
func TestProductSpaceLimit(t *testing.T) {
	s := rng.New(831)
	var projects []*Project
	for _, n := range []int{8, 8, 8, 9, 8} {
		projects = append(projects, RandomProject(n, s))
	}
	// Five projects: 36,864 product states.
	b := &Bandit{Projects: projects, Beta: 0.9}
	if _, _, err := OptimalValue(b); err == nil || err.Error() != "bandit: product space 36864 exceeds limit 16384" {
		t.Errorf("OptimalValue: err = %v", err)
	}
	// Four projects: 4,608 product states fit, 18,432 extended ones do not.
	b.Projects = projects[:4]
	if _, err := SwitchingPolicyValue(b, 0.1, GreedyPolicy(b)); err == nil || err.Error() != "bandit: extended space 18432 exceeds limit 16384" {
		t.Errorf("SwitchingPolicyValue: err = %v", err)
	}
}
