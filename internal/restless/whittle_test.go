package restless

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"stochsched/internal/bandit"
	"stochsched/internal/linalg"
	"stochsched/internal/markov"
	"stochsched/internal/rng"
)

// whittleGoldenProject is the project of the service's whittle golden
// (internal/service/testdata/whittle_req.json), served at β = 0.9.
func whittleGoldenProject() *Project {
	return &Project{
		P: [2]*linalg.Matrix{
			linalg.FromRows([][]float64{{0.7, 0.3, 0}, {0, 0.7, 0.3}, {0, 0, 1}}),
			linalg.FromRows([][]float64{{1, 0, 0}, {1, 0, 0}, {1, 0, 0}}),
		},
		R: [2][]float64{{1, 0.6, 0.1}, {-0.5, -0.5, -0.5}},
	}
}

func testRepairProject(t *testing.T) *Project {
	t.Helper()
	// 4-state machine: revenue decays 1, 0.8, 0.4, 0; repair costs 0.5.
	p, err := MachineRepair(4, 0.3, 0.5, []float64{1, 0.8, 0.4, 0})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestMachineRepairConstruction(t *testing.T) {
	p := testRepairProject(t)
	if p.N() != 4 {
		t.Fatalf("states = %d", p.N())
	}
	if p.P[Active].At(3, 0) != 1 {
		t.Fatal("repair must reset to state 0")
	}
	if p.P[Passive].At(1, 2) != 0.3 {
		t.Fatal("passive decay wrong")
	}
	if _, err := MachineRepair(1, 0.3, 0, []float64{1}); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := MachineRepair(3, 1.5, 0, []float64{1, 1, 1}); err == nil {
		t.Error("decay > 1 accepted")
	}
}

func TestMachineRepairIndexable(t *testing.T) {
	p := testRepairProject(t)
	rep, err := CheckIndexability(p, 0.9, -30, 30, 120)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Indexable {
		t.Fatalf("machine-repair not indexable: %v", rep.Violations)
	}
}

func TestWhittleIndexMonotoneInDeterioration(t *testing.T) {
	// Worse machine states should be (weakly) more attractive to repair:
	// the Whittle index increases with deterioration.
	p := testRepairProject(t)
	idx, err := WhittleIndex(p, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if !sort.Float64sAreSorted(idx) {
		t.Fatalf("Whittle indices not monotone in state: %v", idx)
	}
	if idx[0] >= idx[3] {
		t.Fatalf("expected strict spread between best and worst state: %v", idx)
	}
}

// At λ equal to the Whittle index of state i, the activation advantage at i
// must be ≈ 0 (the indifference definition).
func TestWhittleIndifference(t *testing.T) {
	p := testRepairProject(t)
	beta := 0.9
	idx, err := WhittleIndex(p, beta)
	if err != nil {
		t.Fatal(err)
	}
	w, err := newSubsidyMDP(p, beta)
	if err != nil {
		t.Fatal(err)
	}
	for i, lam := range idx {
		adv, err := w.solve(lam)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(adv[i]) > 1e-5 {
			t.Fatalf("state %d: advantage %v at its own index %v, want ≈0", i, adv[i], lam)
		}
	}
}

// Advantage must be monotonically nonincreasing in the subsidy on an
// indexable instance.
func TestAdvantageMonotoneInSubsidy(t *testing.T) {
	p := testRepairProject(t)
	prev := make([]float64, p.N())
	for i := range prev {
		prev[i] = math.Inf(1)
	}
	w, err := newSubsidyMDP(p, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	for _, lam := range []float64{-5, -2, 0, 1, 2, 5, 10} {
		adv, err := w.solve(lam)
		if err != nil {
			t.Fatal(err)
		}
		for i := range adv {
			if adv[i] > prev[i]+1e-8 {
				t.Fatalf("state %d: advantage increased with subsidy (%v → %v at λ=%v)", i, prev[i], adv[i], lam)
			}
			prev[i] = adv[i]
		}
	}
}

// A restless project whose two actions are identical must have advantage
// exactly −λ and Whittle index 0 everywhere.
func TestDegenerateEqualActions(t *testing.T) {
	s := rng.New(900)
	base := RandomProject(4, s)
	dp := &Project{}
	dp.P[Passive] = base.P[Active].Clone()
	dp.P[Active] = base.P[Active].Clone()
	rr := append([]float64(nil), base.R[Active]...)
	dp.R[Passive] = rr
	dp.R[Active] = append([]float64(nil), rr...)
	idx, err := WhittleIndex(dp, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range idx {
		if math.Abs(v) > 1e-6 {
			t.Fatalf("degenerate project state %d has index %v, want 0", i, v)
		}
	}
}

func TestValidation(t *testing.T) {
	p := testRepairProject(t)
	for _, beta := range []float64{0, 1} {
		if _, err := newSubsidyMDP(p, beta); err == nil {
			t.Errorf("beta = %v accepted", beta)
		}
		// The bisection would not run at β ≥ 1 (its bracket is infinite or
		// empty), so the discount is checked before it starts.
		if _, err := WhittleIndex(p, beta); err == nil {
			t.Errorf("WhittleIndex accepted beta = %v", beta)
		}
	}
	if _, err := CheckIndexability(p, 0.9, 0, 1, 1); err == nil {
		t.Error("steps < 2 accepted")
	}
}

// referenceAdvantage solves the subsidy problem by value iteration, sweeping
// from V = 0 until no value moves by 1e-13, and reads the activation
// advantage off the last V.
func referenceAdvantage(p *Project, lambda, beta float64) []float64 {
	n := p.N()
	v := make([]float64, n)
	next := make([]float64, n)
	for iter := 0; iter < 200000; iter++ {
		delta := 0.0
		for i := 0; i < n; i++ {
			qa := p.R[Active][i]
			row := p.P[Active].Data[i*n : (i+1)*n]
			for k, pk := range row {
				qa += beta * pk * v[k]
			}
			qp := p.R[Passive][i] + lambda
			row = p.P[Passive].Data[i*n : (i+1)*n]
			for k, pk := range row {
				qp += beta * pk * v[k]
			}
			val := qa
			if qp > val {
				val = qp
			}
			next[i] = val
			if d := math.Abs(val - v[i]); d > delta {
				delta = d
			}
		}
		v, next = next, v
		if delta < 1e-13 {
			break
		}
	}
	adv := make([]float64, n)
	for i := 0; i < n; i++ {
		qa := p.R[Active][i]
		row := p.P[Active].Data[i*n : (i+1)*n]
		for k, pk := range row {
			qa += beta * pk * v[k]
		}
		qp := p.R[Passive][i] + lambda
		row = p.P[Passive].Data[i*n : (i+1)*n]
		for k, pk := range row {
			qp += beta * pk * v[k]
		}
		adv[i] = qa - qp
	}
	return adv
}

// referenceIndex is WhittleIndex's bisection over referenceAdvantage.
func referenceIndex(p *Project, beta float64) []float64 {
	lo, hi := SubsidyBracket(p, beta)
	idx := make([]float64, p.N())
	for i := range idx {
		a, b := lo, hi
		for iter := 0; iter < 80 && b-a > 1e-10*(1+math.Abs(a)); iter++ {
			mid := (a + b) / 2
			if referenceAdvantage(p, mid, beta)[i] > 0 {
				a = mid
			} else {
				b = mid
			}
		}
		idx[i] = (a + b) / 2
	}
	return idx
}

// referenceReport is CheckIndexability's sweep over referenceAdvantage.
func referenceReport(p *Project, beta, lo, hi float64, steps int) *IndexabilityReport {
	n := p.N()
	passiveSince := make([]float64, n)
	wasPassive := make([]bool, n)
	rep := &IndexabilityReport{Indexable: true}
	for k := 0; k <= steps; k++ {
		lambda := lo + (hi-lo)*float64(k)/float64(steps)
		adv := referenceAdvantage(p, lambda, beta)
		for i := 0; i < n; i++ {
			passive := adv[i] <= 0
			if wasPassive[i] && !passive {
				rep.Indexable = false
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("state %d passive at λ=%.4g but active at λ=%.4g", i, passiveSince[i], lambda))
			}
			if passive && !wasPassive[i] {
				passiveSince[i] = lambda
			}
			wasPassive[i] = passive
		}
	}
	return rep
}

// Policy iteration solves each subsidy exactly where value iteration
// stopped within 1e-13, and the bisection only reads the advantage's sign:
// the indices must keep every bit, and the indexability sweep (at the
// served bracket and 50 steps) must report the same, on the projects the
// service golden, the experiments and the maintenance example use and on
// random projects.
func TestWhittleIndexMatchesValueIteration(t *testing.T) {
	type tc struct {
		name string
		p    *Project
		beta float64
	}
	cases := []tc{{"whittle golden", whittleGoldenProject(), 0.9}}
	repair4, err := MachineRepair(4, 0.3, 0.5, []float64{1, 0.8, 0.4, 0})
	if err != nil {
		t.Fatal(err)
	}
	repair5, err := MachineRepair(5, 0.3, 0.6, []float64{1, 0.85, 0.55, 0.25, 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, beta := range []float64{0.9, 0.99} {
		cases = append(cases, tc{"repair4", repair4, beta}, tc{"repair5", repair5, beta})
	}
	s := rng.New(2024)
	for n := 2; n <= 5; n++ {
		for _, beta := range []float64{0.5, 0.9, 0.95} {
			for d := 0; d < 5; d++ {
				cases = append(cases, tc{fmt.Sprintf("random n=%d #%d", n, d), RandomProject(n, s.Split()), beta})
			}
		}
	}
	for _, c := range cases {
		got, err := WhittleIndex(c.p, c.beta)
		if err != nil {
			t.Fatalf("%s β=%v: %v", c.name, c.beta, err)
		}
		want := referenceIndex(c.p, c.beta)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Errorf("%s β=%v state %d: index %v, value iteration %v", c.name, c.beta, i, got[i], want[i])
			}
		}
		lo, hi := SubsidyBracket(c.p, c.beta)
		rep, err := CheckIndexability(c.p, c.beta, lo, hi, 50)
		if err != nil {
			t.Fatalf("%s β=%v: %v", c.name, c.beta, err)
		}
		if wantRep := referenceReport(c.p, c.beta, lo, hi, 50); !reflect.DeepEqual(rep, wantRep) {
			t.Errorf("%s β=%v: report %+v, value iteration %+v", c.name, c.beta, rep, wantRep)
		}
	}
}

// TestWhittleIndexAllocations: a subsidy solve refactorizes I − βP_π only
// when its policy changes, so most bisection steps solve one right-hand
// side on the kept LU. Solving from scratch at every evaluation cost 893
// allocations on this project; keeping the factorization, 437.
func TestWhittleIndexAllocations(t *testing.T) {
	p := whittleGoldenProject()
	var err error
	allocs := testing.AllocsPerRun(20, func() { _, err = WhittleIndex(p, 0.9) })
	if err != nil {
		t.Fatal(err)
	}
	if allocs > 450 {
		t.Fatalf("WhittleIndex made %v allocations, want ≤ 450", allocs)
	}
}

// TestNaNDiscountRejected: every discount check in the solver packages must
// reject NaN, which passes a "beta <= 0 || beta >= 1" test. Before they did,
// a NaN discount made GittinsLargestIndex index out of range, ValueIteration
// report a state with no available action, four solvers return NaN with no
// error, BernoulliIndex return 0.5 and Bandit.Validate accept it.
func TestNaNDiscountRejected(t *testing.T) {
	nan := math.NaN()
	wp := whittleGoldenProject()
	P := []*linalg.Matrix{wp.P[Passive], wp.P[Active]}
	R := [][]float64{wp.R[Passive], wp.R[Active]}
	chain, err := markov.NewChain(wp.P[Passive])
	if err != nil {
		t.Fatal(err)
	}
	bp := &bandit.Project{P: wp.P[Passive], R: wp.R[Passive]}
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"restless newSubsidyMDP", func() error { _, err := newSubsidyMDP(wp, nan); return err }},
		{"restless WhittleIndex", func() error { _, err := WhittleIndex(wp, nan); return err }},
		{"markov PolicyIteration", func() error { _, _, err := markov.PolicyIteration(P, R, nan, 100); return err }},
		{"markov Chain.DiscountedValue", func() error { _, err := chain.DiscountedValue(wp.R[Passive], nan); return err }},
		{"markov ValueIteration", func() error { _, _, err := markov.ValueIteration(P, R, nil, nan, 1e-9, 1000); return err }},
		{"bandit GittinsRestart", func() error { _, err := bandit.GittinsRestart(bp, nan); return err }},
		{"bandit GittinsLargestIndex", func() error { _, err := bandit.GittinsLargestIndex(bp, nan); return err }},
		{"bandit BernoulliIndex", func() error { _, err := bandit.BernoulliIndex(1, 1, nan, 50); return err }},
		{"bandit Bandit.Validate", func() error { return (&bandit.Bandit{Projects: []*bandit.Project{bp}, Beta: nan}).Validate() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("NaN discount panicked: %v", r)
				}
			}()
			err := tc.run()
			if err == nil {
				t.Fatal("NaN discount accepted")
			}
			if !strings.Contains(err.Error(), "outside (0,1)") {
				t.Fatalf("error %q does not name the discount range", err)
			}
		})
	}
}
