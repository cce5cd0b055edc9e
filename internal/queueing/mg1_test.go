package queueing

import (
	"math"
	"testing"

	"context"
	"stochsched/internal/dist"
	"stochsched/internal/engine"
	"stochsched/internal/rng"
	"stochsched/internal/stats"
)

// twoClassMM1 is a convenient stable 2-class M/M/1 test system.
func twoClassMM1() *MG1 {
	return &MG1{Classes: []Class{
		{Name: "A", ArrivalRate: 0.3, Service: dist.Exponential{Rate: 2}, HoldCost: 4},
		{Name: "B", ArrivalRate: 0.2, Service: dist.Exponential{Rate: 1}, HoldCost: 1},
	}}
}

func TestLoadAndW0(t *testing.T) {
	m := twoClassMM1()
	// ρ = 0.3/2 + 0.2/1 = 0.35.
	if math.Abs(m.Load()-0.35) > 1e-12 {
		t.Fatalf("load = %v, want 0.35", m.Load())
	}
	// E[S²] of Exp(µ) = 2/µ²; W0 = 0.3·(2/4)/2 + 0.2·2/2 = 0.075 + 0.2.
	if math.Abs(m.W0()-0.275) > 1e-12 {
		t.Fatalf("W0 = %v, want 0.275", m.W0())
	}
}

func TestExactFIFOSingleClassMM1(t *testing.T) {
	// M/M/1: Wq = ρ/(µ−λ); L = λ/(µ−λ) ... λ=0.5, µ=1 → Wq = 1, L = 1.
	m := &MG1{Classes: []Class{{ArrivalRate: 0.5, Service: dist.Exponential{Rate: 1}, HoldCost: 1}}}
	wq, l := m.ExactFIFO()
	if math.Abs(wq[0]-1) > 1e-12 {
		t.Fatalf("Wq = %v, want 1", wq[0])
	}
	if math.Abs(l[0]-1) > 1e-12 {
		t.Fatalf("L = %v, want 1", l[0])
	}
}

func TestCobhamTwoClassKnown(t *testing.T) {
	// Hand computation: classes (λ1=0.3, µ1=2), (λ2=0.2, µ2=1), priority 1→2.
	// W0 = 0.275, ρ1 = 0.15, ρ2 = 0.2.
	// Wq1 = W0/(1·(1−0.15)) = 0.275/0.85.
	// Wq2 = W0/((1−0.15)(1−0.35)) = 0.275/(0.85·0.65).
	m := twoClassMM1()
	wq, l, err := m.ExactPriority([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	want1 := 0.275 / 0.85
	want2 := 0.275 / (0.85 * 0.65)
	if math.Abs(wq[0]-want1) > 1e-12 || math.Abs(wq[1]-want2) > 1e-12 {
		t.Fatalf("Wq = %v, want [%v %v]", wq, want1, want2)
	}
	// Little's law consistency.
	if math.Abs(l[0]-0.3*(want1+0.5)) > 1e-12 {
		t.Fatalf("L1 = %v", l[0])
	}
}

func TestCMuOrderOptimalExhaustive(t *testing.T) {
	s := rng.New(1000)
	for trial := 0; trial < 50; trial++ {
		n := 2 + s.Intn(4)
		m := &MG1{Classes: make([]Class, n)}
		load := 0.0
		for j := 0; j < n; j++ {
			mu := 0.5 + 3*s.Float64()
			lam := (0.9 / float64(n)) * mu * s.Float64()
			m.Classes[j] = Class{
				ArrivalRate: lam,
				Service:     dist.Exponential{Rate: mu},
				HoldCost:    0.2 + 3*s.Float64(),
			}
			load += lam / mu
		}
		if load >= 0.95 {
			continue
		}
		_, lCmu, err := m.ExactPriority(m.CMuOrder())
		if err != nil {
			t.Fatal(err)
		}
		cmuCost := m.HoldingCostRate(lCmu)
		_, best, err := m.BestPriorityExhaustive()
		if err != nil {
			t.Fatal(err)
		}
		if cmuCost > best+1e-9 {
			t.Fatalf("trial %d: cµ cost %v exceeds exhaustive best %v", trial, cmuCost, best)
		}
	}
}

func TestKleinrockConservationExact(t *testing.T) {
	m := twoClassMM1()
	rhs := m.KleinrockRHS()
	wqF, _ := m.ExactFIFO()
	if math.Abs(m.KleinrockConserved(wqF)-rhs) > 1e-9 {
		t.Fatalf("FIFO conserved %v, want %v", m.KleinrockConserved(wqF), rhs)
	}
	for _, order := range [][]int{{0, 1}, {1, 0}} {
		wq, _, err := m.ExactPriority(order)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(m.KleinrockConserved(wq)-rhs) > 1e-9 {
			t.Fatalf("priority %v conserved %v, want %v", order, m.KleinrockConserved(wq), rhs)
		}
	}
}

func TestSimulationMatchesExactFIFO(t *testing.T) {
	m := twoClassMM1()
	s := rng.New(1001)
	rep, err := m.Replicate(context.Background(), engine.NewPool(0), FIFO{}, 30000, 3000, 8, s)
	if err != nil {
		t.Fatal(err)
	}
	_, lExact := m.ExactFIFO()
	for j := range lExact {
		if math.Abs(rep.L[j].Mean()-lExact[j]) > 5*rep.L[j].CI95()+0.01 {
			t.Fatalf("class %d: simulated L %v (±%v), exact %v", j, rep.L[j].Mean(), rep.L[j].CI95(), lExact[j])
		}
	}
}

func TestSimulationMatchesExactPriority(t *testing.T) {
	m := twoClassMM1()
	s := rng.New(1002)
	order := m.CMuOrder()
	rep, err := m.Replicate(context.Background(), engine.NewPool(0), StaticPriority{Order: order}, 30000, 3000, 8, s)
	if err != nil {
		t.Fatal(err)
	}
	wqE, lE, err := m.ExactPriority(order)
	if err != nil {
		t.Fatal(err)
	}
	for j := range lE {
		if math.Abs(rep.L[j].Mean()-lE[j]) > 5*rep.L[j].CI95()+0.01 {
			t.Fatalf("class %d: simulated L %v (±%v), exact %v", j, rep.L[j].Mean(), rep.L[j].CI95(), lE[j])
		}
		if math.Abs(rep.Wq[j].Mean()-wqE[j]) > 5*rep.Wq[j].CI95()+0.02 {
			t.Fatalf("class %d: simulated Wq %v (±%v), exact %v", j, rep.Wq[j].Mean(), rep.Wq[j].CI95(), wqE[j])
		}
	}
}

func TestSimulationMatchesExactMG1General(t *testing.T) {
	// Non-exponential services exercise the PK second-moment term: Erlang
	// (low variance) and hyperexponential (high variance).
	he, err := dist.NewHyperExp([]float64{0.9, 0.1}, []float64{3, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	m := &MG1{Classes: []Class{
		{ArrivalRate: 0.25, Service: dist.Erlang{K: 3, Rate: 6}, HoldCost: 2},
		{ArrivalRate: 0.2, Service: he, HoldCost: 1},
	}}
	s := rng.New(1003)
	rep, err := m.Replicate(context.Background(), engine.NewPool(0), StaticPriority{Order: []int{0, 1}}, 40000, 4000, 8, s)
	if err != nil {
		t.Fatal(err)
	}
	_, lE, err := m.ExactPriority([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	for j := range lE {
		if math.Abs(rep.L[j].Mean()-lE[j]) > 5*rep.L[j].CI95()+0.05 {
			t.Fatalf("class %d: simulated L %v (±%v), exact %v", j, rep.L[j].Mean(), rep.L[j].CI95(), lE[j])
		}
	}
}

func TestPreemptiveBeatsNonpreemptive(t *testing.T) {
	// With exponential services the preemptive cµ rule dominates the
	// nonpreemptive one (it stops low-value work immediately).
	m := &MG1{Classes: []Class{
		{ArrivalRate: 0.25, Service: dist.Exponential{Rate: 4}, HoldCost: 10},
		{ArrivalRate: 0.35, Service: dist.Exponential{Rate: 0.8}, HoldCost: 0.5},
	}}
	s := rng.New(1004)
	order := m.CMuOrder()
	var pre, non float64
	const reps = 6
	for i := 0; i < reps; i++ {
		rp, err := m.SimulatePreemptive(order, 30000, 3000, s.Split())
		if err != nil {
			t.Fatal(err)
		}
		pre += rp.CostRate
		rn, err := m.Simulate(StaticPriority{Order: order}, 30000, 3000, s.Split())
		if err != nil {
			t.Fatal(err)
		}
		non += rn.CostRate
	}
	if pre >= non {
		t.Fatalf("preemptive cost %v not below nonpreemptive %v", pre/reps, non/reps)
	}
}

func TestPreemptiveSimMatchesExactFormula(t *testing.T) {
	m := twoClassMM1()
	s := rng.New(1006)
	order := m.CMuOrder()
	_, lE, err := m.ExactPreemptivePriority(order)
	if err != nil {
		t.Fatal(err)
	}
	var lSim [2]stats.Running
	const reps = 8
	for i := 0; i < reps; i++ {
		res, err := m.SimulatePreemptive(order, 30000, 3000, s.Split())
		if err != nil {
			t.Fatal(err)
		}
		for j := range res.L {
			lSim[j].Add(res.L[j])
		}
	}
	for j := range lE {
		if math.Abs(lSim[j].Mean()-lE[j]) > 5*lSim[j].CI95()+0.01 {
			t.Fatalf("class %d: preemptive L sim %v (±%v), exact %v",
				j, lSim[j].Mean(), lSim[j].CI95(), lE[j])
		}
	}
}

func TestPreemptiveExactDominatesNonpreemptive(t *testing.T) {
	// The top class is strictly better off under preemption; exact formulas
	// must agree on the direction.
	m := twoClassMM1()
	order := m.CMuOrder()
	_, lNP, err := m.ExactPriority(order)
	if err != nil {
		t.Fatal(err)
	}
	_, lP, err := m.ExactPreemptivePriority(order)
	if err != nil {
		t.Fatal(err)
	}
	top := order[0]
	if lP[top] >= lNP[top] {
		t.Fatalf("top class L: preemptive %v not below nonpreemptive %v", lP[top], lNP[top])
	}
	// Single class: preemption is irrelevant, formulas must coincide with
	// FIFO M/G/1 sojourn.
	single := &MG1{Classes: []Class{{ArrivalRate: 0.5, Service: dist.Exponential{Rate: 1}, HoldCost: 1}}}
	tP, _, err := single.ExactPreemptivePriority([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	wqF, _ := single.ExactFIFO()
	if math.Abs(tP[0]-(wqF[0]+1)) > 1e-12 {
		t.Fatalf("single-class preemptive sojourn %v, want %v", tP[0], wqF[0]+1)
	}
}

func TestPreemptiveRequiresExponential(t *testing.T) {
	m := &MG1{Classes: []Class{{ArrivalRate: 0.2, Service: dist.Uniform{Lo: 0, Hi: 1}, HoldCost: 1}}}
	if _, err := m.SimulatePreemptive([]int{0}, 100, 10, rng.New(1)); err == nil {
		t.Fatal("non-exponential preemptive accepted")
	}
}

func TestRandomMixInterpolates(t *testing.T) {
	// A coin-flip mix of the two priority orders must land strictly between
	// the vertices for each class's L and still satisfy conservation.
	m := twoClassMM1()
	s := rng.New(1005)
	mix := RandomMix{
		Disciplines: []Discipline{StaticPriority{Order: []int{0, 1}}, StaticPriority{Order: []int{1, 0}}},
		Weights:     []float64{0.5, 0.5},
		Stream:      s.Split(),
	}
	rep, err := m.Replicate(context.Background(), engine.NewPool(0), mix, 30000, 3000, 8, s.Split())
	if err != nil {
		t.Fatal(err)
	}
	wqA, _, _ := m.ExactPriority([]int{0, 1})
	wqB, _, _ := m.ExactPriority([]int{1, 0})
	for j := 0; j < 2; j++ {
		lo := math.Min(wqA[j], wqB[j])
		hi := math.Max(wqA[j], wqB[j])
		got := rep.Wq[j].Mean()
		if got < lo-0.05 || got > hi+0.05 {
			t.Fatalf("class %d: mixed Wq %v outside [%v, %v]", j, got, lo, hi)
		}
	}
	conserved := m.Classes[0].ArrivalRate*m.Classes[0].Service.Mean()*rep.Wq[0].Mean() +
		m.Classes[1].ArrivalRate*m.Classes[1].Service.Mean()*rep.Wq[1].Mean()
	if math.Abs(conserved-m.KleinrockRHS()) > 0.05 {
		t.Fatalf("mixed-policy conserved %v, want %v", conserved, m.KleinrockRHS())
	}
}

func TestValidationMG1(t *testing.T) {
	if err := (&MG1{}).Validate(); err == nil {
		t.Error("empty model accepted")
	}
	unstable := &MG1{Classes: []Class{{ArrivalRate: 2, Service: dist.Exponential{Rate: 1}, HoldCost: 1}}}
	if err := unstable.Validate(); err == nil {
		t.Error("unstable model accepted")
	}
	m := twoClassMM1()
	if _, _, err := m.ExactPriority([]int{0}); err == nil {
		t.Error("short order accepted")
	}
	if _, err := m.Simulate(FIFO{}, 10, 20, rng.New(1)); err == nil {
		t.Error("burnin beyond horizon accepted")
	}
}

// TestPriorityOrderMustBePermutation: an order that omits, repeats, or
// invents a class is rejected before the run starts, by every simulator
// that takes one — alone, mixed into a RandomMix, or as a plain order.
func TestPriorityOrderMustBePermutation(t *testing.T) {
	m := twoClassMM1()
	mm := &MMm{Classes: m.Classes, Servers: 2}
	k := NoFeedback(m)
	for _, order := range [][]int{{0}, {1, 1}, {0, 2}, {-1, 0}, {0, 1, 0}} {
		mix := RandomMix{
			Disciplines: []Discipline{StaticPriority{Order: []int{0, 1}}, StaticPriority{Order: order}},
			Weights:     []float64{0.5, 0.5},
			Stream:      rng.New(2),
		}
		if _, err := m.Simulate(StaticPriority{Order: order}, 100, 10, rng.New(1)); err == nil {
			t.Errorf("MG1.Simulate accepted order %v", order)
		}
		if _, err := m.Simulate(mix, 100, 10, rng.New(1)); err == nil {
			t.Errorf("MG1.Simulate accepted order %v inside a RandomMix", order)
		}
		if _, err := m.SimulatePreemptive(order, 100, 10, rng.New(1)); err == nil {
			t.Errorf("SimulatePreemptive accepted order %v", order)
		}
		if _, err := mm.Simulate(order, 100, 10, rng.New(1)); err == nil {
			t.Errorf("MMm.Simulate accepted order %v", order)
		}
		if _, err := k.Simulate(order, 100, 10, rng.New(1)); err == nil {
			t.Errorf("KlimovNetwork.Simulate accepted order %v", order)
		}
		if _, err := k.SimulateDiscounted(order, 0.1, 100, rng.New(1)); err == nil {
			t.Errorf("SimulateDiscounted accepted order %v", order)
		}
	}
	if _, err := m.Simulate(StaticPriority{Order: []int{1, 0}}, 100, 10, rng.New(1)); err != nil {
		t.Errorf("a permutation was rejected: %v", err)
	}
}
