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

// replicate folds reps replications of sim, one substream of s each, into
// per-class L and Wq for n classes on a GOMAXPROCS pool, the way the served
// queueing kinds fold theirs.
func replicate(n, reps int, s *rng.Stream, sim func(*rng.Stream) (*SimResult, error)) (*ReplicatedResult, error) {
	rep := &ReplicatedResult{L: make([]stats.Running, n), Wq: make([]stats.Running, n)}
	if err := engine.ReplicateReduce(context.Background(), engine.NewPool(0), reps, s, sim, rep.Add); err != nil {
		return nil, err
	}
	return rep, nil
}

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

// kleinrockConserved returns Σ_j ρ_j·Wq_j, the quantity Kleinrock's
// conservation law fixes at ρ·W0/(1−ρ) across all nonpreemptive
// work-conserving disciplines.
func kleinrockConserved(m *MG1, wq []float64) float64 {
	total := 0.0
	for j, c := range m.Classes {
		total += c.ArrivalRate * c.Service.Mean() * wq[j]
	}
	return total
}

func TestKleinrockConservationExact(t *testing.T) {
	m := twoClassMM1()
	rhs := m.KleinrockRHS()
	wqF, _ := m.ExactFIFO()
	if math.Abs(kleinrockConserved(m, wqF)-rhs) > 1e-9 {
		t.Fatalf("FIFO conserved %v, want %v", kleinrockConserved(m, wqF), rhs)
	}
	for _, order := range [][]int{{0, 1}, {1, 0}} {
		wq, _, err := m.ExactPriority(order)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(kleinrockConserved(m, wq)-rhs) > 1e-9 {
			t.Fatalf("priority %v conserved %v, want %v", order, kleinrockConserved(m, wq), rhs)
		}
	}
}

func TestSimulationMatchesExactFIFO(t *testing.T) {
	m := twoClassMM1()
	s := rng.New(1001)
	rep, err := replicate(len(m.Classes), 8, s, func(sub *rng.Stream) (*SimResult, error) {
		return m.Simulate(Priority{}, 30000, 3000, sub)
	})
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
	rep, err := replicate(len(m.Classes), 8, s, func(sub *rng.Stream) (*SimResult, error) {
		return m.Simulate(Priority{Orders: [][]int{order}}, 30000, 3000, sub)
	})
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
	rep, err := replicate(len(m.Classes), 8, s, func(sub *rng.Stream) (*SimResult, error) {
		return m.Simulate(Priority{Orders: [][]int{{0, 1}}}, 40000, 4000, sub)
	})
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
		rn, err := m.Simulate(Priority{Orders: [][]int{order}}, 30000, 3000, s.Split())
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
	mix := Priority{Orders: [][]int{{0, 1}, {1, 0}}, Weights: []float64{0.5, 0.5}}
	s.Split() // unused, but the replications' stream after it depends on it
	rep, err := replicate(len(m.Classes), 8, s.Split(), func(sub *rng.Stream) (*SimResult, error) {
		return m.Simulate(mix, 30000, 3000, sub)
	})
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

// TestPriorityRejectsBadMixtures: a mixture's weights are checked before
// any draw — one per order, each finite and nonnegative, with a positive
// sum. Unchecked, weights [1] for two orders served only the first, and
// the others panicked at a service start inside a replication.
func TestPriorityRejectsBadMixtures(t *testing.T) {
	m := twoClassMM1()
	orders := [][]int{{0, 1}, {1, 0}}
	for _, tc := range []struct {
		name string
		p    Priority
	}{
		{"one weight for two orders", Priority{Orders: orders, Weights: []float64{1}}},
		{"no weights for two orders", Priority{Orders: orders}},
		{"three weights for two orders", Priority{Orders: orders, Weights: []float64{0.5, 0.5, 0.5}}},
		{"two weights for one order", Priority{Orders: orders[:1], Weights: []float64{0.5, 0.5}}},
		{"a weight without orders", Priority{Weights: []float64{1}}},
		{"a negative weight", Priority{Orders: orders, Weights: []float64{-1, 2}}},
		{"a zero sum", Priority{Orders: orders, Weights: []float64{0, 0}}},
		{"a NaN weight", Priority{Orders: orders, Weights: []float64{math.NaN(), 1}}},
		{"an infinite weight", Priority{Orders: orders, Weights: []float64{math.Inf(1), 1}}},
		{"an infinite sum", Priority{Orders: orders, Weights: []float64{math.MaxFloat64, math.MaxFloat64}}},
	} {
		s := rng.New(1)
		if _, err := m.Simulate(tc.p, 100, 10, s); err == nil {
			t.Errorf("%s: Simulate accepted %+v", tc.name, tc.p)
		}
		if s.Uint64() != rng.New(1).Uint64() {
			t.Errorf("%s: Simulate drew before rejecting", tc.name)
		}
		if _, err := replicate(len(m.Classes), 4, rng.New(1), func(sub *rng.Stream) (*SimResult, error) {
			return m.Simulate(tc.p, 100, 10, sub)
		}); err == nil {
			t.Errorf("%s: replications accepted %+v", tc.name, tc.p)
		}
	}
	for _, p := range []Priority{
		{Orders: orders, Weights: []float64{0, 1}}, // a vertex
		{Orders: orders[:1], Weights: []float64{1}},
		{Orders: orders[:1]},
		{},
	} {
		if _, err := m.Simulate(p, 100, 10, rng.New(1)); err != nil {
			t.Errorf("%+v rejected: %v", p, err)
		}
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
	if _, _, err := m.ExactPriority([]int{0}); err == nil || err.Error() != "queueing: order length 1, want 2" {
		t.Errorf("short order: error %v, want the length message", err)
	}
	if _, err := m.Simulate(Priority{}, 10, 20, rng.New(1)); err == nil {
		t.Error("burnin beyond horizon accepted")
	}
}

// TestValidatorsRejectNaNAndNegatives: each model's Validate rejects, with
// an error rather than a panic, a class whose arrival rate or holding cost
// is negative or NaN or whose service law is missing or has a NaN mean, and
// a NaN switchover mean, feedback entry or routing probability, or a load
// that is NaN because an idle class has an infinite-mean service law. Each
// row used to pass or panic, and a simulator then dropped the class, or a
// run or an exact formula returned NaN estimates or panicked mid-run.
func TestValidatorsRejectNaNAndNegatives(t *testing.T) {
	nan := math.NaN()
	nanLaw := dist.Exponential{Rate: nan}
	routed := func() *Network {
		return &Network{Stations: 1, Classes: []NetClass{
			{ArrivalRate: 0.5, Service: dist.Exponential{Rate: 2}, HoldCost: 1, Routes: []Route{{To: 1, Prob: 0.5}}},
			{Service: dist.Exponential{Rate: 3}, Next: -1, HoldCost: 1},
		}}
	}
	for _, tc := range []struct {
		name  string
		valid func() error // the model unbroken: must pass
		bad   func() error
	}{
		{"MG1 NaN arrival rate", twoClassMM1().Validate, func() error {
			m := twoClassMM1()
			m.Classes[0].ArrivalRate = nan
			return m.Validate()
		}},
		{"MG1 NaN-mean service", twoClassMM1().Validate, func() error {
			m := twoClassMM1()
			m.Classes[1].Service = nanLaw
			return m.Validate()
		}},
		{"MG1 NaN holding cost", twoClassMM1().Validate, func() error {
			m := twoClassMM1()
			m.Classes[1].HoldCost = nan
			return m.Validate()
		}},
		{"MG1 idle class of infinite-mean service", twoClassMM1().Validate, func() error {
			m := twoClassMM1()
			m.Classes[1] = Class{Service: dist.Deterministic{Value: math.Inf(1)}, HoldCost: 1}
			return m.Validate() // load 0·∞ = NaN
		}},
		{"Klimov negative arrival rate", feedbackNetwork().Validate, func() error {
			k := feedbackNetwork()
			k.Classes[1].ArrivalRate = -0.5
			return k.Validate()
		}},
		{"Klimov negative holding cost", feedbackNetwork().Validate, func() error {
			k := feedbackNetwork()
			k.Classes[2].HoldCost = -1
			return k.Validate()
		}},
		{"Klimov nil service", feedbackNetwork().Validate, func() error {
			k := feedbackNetwork()
			k.Classes[0].Service = nil
			return k.Validate()
		}},
		{"Klimov NaN feedback", feedbackNetwork().Validate, func() error {
			k := feedbackNetwork()
			k.Feedback.Set(1, 0, nan)
			return k.Validate()
		}},
		{"MMm negative arrival rate", mmmSystem(1).Validate, func() error {
			m := mmmSystem(1)
			m.Classes[0].ArrivalRate = -1
			return m.Validate()
		}},
		{"MMm negative holding cost", mmmSystem(1).Validate, func() error {
			m := mmmSystem(1)
			m.Classes[1].HoldCost = -2
			return m.Validate()
		}},
		{"MMm NaN-rate service", mmmSystem(1).Validate, func() error {
			m := mmmSystem(1)
			m.Classes[1].Service = nanLaw
			return m.Validate()
		}},
		{"MMm idle class of zero service rate", mmmSystem(1).Validate, func() error {
			m := mmmSystem(1)
			m.Classes[0] = Class{Service: dist.Exponential{Rate: 0}, HoldCost: 1}
			return m.Validate()
		}},
		{"Klimov idle class of zero service rate", feedbackNetwork().Validate, func() error {
			k := feedbackNetwork()
			k.Classes[2] = Class{Service: dist.Exponential{Rate: 0}, HoldCost: 1}
			k.Feedback.Set(0, 2, 0) // nothing feeds class 2 either
			k.Feedback.Set(1, 2, 0)
			return k.Validate()
		}},
		{"polling idle queue of zero service rate", pollingSystem(Gated, 0.1).Validate, func() error {
			p := pollingSystem(Gated, 0.1)
			p.Queues[0] = Class{Service: dist.Exponential{Rate: 0}, HoldCost: 1}
			return p.Validate()
		}},
		{"polling NaN arrival rate", pollingSystem(Gated, 0.1).Validate, func() error {
			p := pollingSystem(Gated, 0.1)
			p.Queues[1].ArrivalRate = nan
			return p.Validate()
		}},
		{"polling NaN-mean switchover", pollingSystem(Gated, 0.1).Validate, func() error {
			p := pollingSystem(Gated, 0.1)
			p.Switch = dist.Deterministic{Value: nan}
			return p.Validate()
		}},
		{"polling negative holding cost", pollingSystem(Gated, 0.1).Validate, func() error {
			p := pollingSystem(Gated, 0.1)
			p.Queues[0].HoldCost = -1
			return p.Validate()
		}},
		{"network NaN arrival rate", routed().Validate, func() error {
			nw := routed()
			nw.Classes[0].ArrivalRate = nan
			return nw.Validate()
		}},
		{"network NaN routing probability", routed().Validate, func() error {
			nw := routed()
			nw.Classes[0].Routes[0].Prob = nan
			return nw.Validate()
		}},
		{"network NaN-mean service", routed().Validate, func() error {
			nw := routed()
			nw.Classes[1].Service = nanLaw
			return nw.Validate()
		}},
		{"network negative holding cost", routed().Validate, func() error {
			nw := routed()
			nw.Classes[1].HoldCost = -1
			return nw.Validate()
		}},
	} {
		if err := tc.valid(); err != nil {
			t.Fatalf("%s: the unbroken model is rejected: %v", tc.name, err)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: Validate panicked: %v", tc.name, r)
				}
			}()
			if err := tc.bad(); err == nil {
				t.Errorf("%s: accepted", tc.name)
			}
		}()
	}
}

// TestPriorityOrderMustBePermutation: an order that omits, repeats, or
// invents a class is rejected before the run starts, by every simulator
// that takes one — alone, mixed with another, or as a plain order — and by
// the exact priority formulas, which must neither leave a missing class's
// delay at zero nor index past the classes.
func TestPriorityOrderMustBePermutation(t *testing.T) {
	m := twoClassMM1()
	mm := &MMm{Classes: m.Classes, Servers: 2}
	k := NoFeedback(m)
	for _, order := range [][]int{{0}, {0, 0}, {1, 1}, {0, 2}, {-1, 0}, {0, 1, 0}} {
		mix := Priority{Orders: [][]int{{0, 1}, order}, Weights: []float64{0.5, 0.5}}
		if _, err := m.Simulate(Priority{Orders: [][]int{order}}, 100, 10, rng.New(1)); err == nil {
			t.Errorf("MG1.Simulate accepted order %v", order)
		}
		if _, err := m.Simulate(mix, 100, 10, rng.New(1)); err == nil {
			t.Errorf("MG1.Simulate accepted order %v inside a mixture", order)
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
		if _, _, err := m.ExactPriority(order); err == nil {
			t.Errorf("MG1.ExactPriority accepted order %v", order)
		}
		if _, _, err := m.ExactPreemptivePriority(order); err == nil {
			t.Errorf("ExactPreemptivePriority accepted order %v", order)
		}
		if _, _, err := mm.ExactPriority(order); err == nil {
			t.Errorf("MMm.ExactPriority accepted order %v", order)
		}
	}
	if _, err := m.Simulate(Priority{Orders: [][]int{{1, 0}}}, 100, 10, rng.New(1)); err != nil {
		t.Errorf("a permutation was rejected: %v", err)
	}
}
