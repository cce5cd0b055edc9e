package queueing

import (
	"math"
	"testing"

	"stochsched/internal/dist"
	"stochsched/internal/rng"
)

// replicateMMm replicates Simulate (FIFO for a nil order), one substream
// of s each.
func replicateMMm(t *testing.T, m *MMm, order []int, horizon, burnin float64, reps int, s *rng.Stream) *ReplicatedResult {
	t.Helper()
	rep, err := replicate(len(m.Classes), reps, s, func(sub *rng.Stream) (*SimResult, error) {
		return m.Simulate(order, horizon, burnin, sub)
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func mmmSystem(scale float64) *MMm {
	// 3 servers, 2 classes; scale sweeps the load toward heavy traffic.
	return &MMm{
		Servers: 3,
		Classes: []Class{
			{Name: "hi", ArrivalRate: 1.2 * scale, Service: dist.Exponential{Rate: 1.5}, HoldCost: 3},
			{Name: "lo", ArrivalRate: 1.0 * scale, Service: dist.Exponential{Rate: 1.0}, HoldCost: 1},
		},
	}
}

func TestMMmValidation(t *testing.T) {
	m := mmmSystem(1)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &MMm{Servers: 1, Classes: []Class{{ArrivalRate: 1, Service: dist.Uniform{Lo: 0, Hi: 1}, HoldCost: 1}}}
	if err := bad.Validate(); err == nil {
		t.Error("non-exponential accepted")
	}
	over := mmmSystem(2)
	if err := over.Validate(); err == nil {
		t.Error("overloaded system accepted")
	}
}

func TestFastSingleServerBoundHolds(t *testing.T) {
	m := mmmSystem(1)
	bound, err := m.FastSingleServerBound()
	if err != nil {
		t.Fatal(err)
	}
	s := rng.New(1300)
	var cost float64
	const reps = 6
	for i := 0; i < reps; i++ {
		res, err := m.Simulate(m.CMuOrder(), 20000, 2000, s.Split())
		if err != nil {
			t.Fatal(err)
		}
		cost += res.CostRate
	}
	cost /= reps
	if cost < bound-0.05 {
		t.Fatalf("simulated cµ cost %v below fast-server bound %v", cost, bound)
	}
}

// Glazebrook–Niño-Mora shape: the relative gap between the cµ rule on m
// servers and the fast-single-server bound shrinks as traffic intensifies.
func TestHeavyTrafficGapShrinks(t *testing.T) {
	s := rng.New(1301)
	gap := func(scale float64) float64 {
		m := mmmSystem(scale)
		bound, err := m.FastSingleServerBound()
		if err != nil {
			t.Fatal(err)
		}
		var cost float64
		const reps = 6
		for i := 0; i < reps; i++ {
			res, err := m.Simulate(m.CMuOrder(), 30000, 3000, s.Split())
			if err != nil {
				t.Fatal(err)
			}
			cost += res.CostRate
		}
		cost /= reps
		return (cost - bound) / cost
	}
	light := gap(0.55) // ρ/m ≈ 0.37
	heavy := gap(1.32) // ρ/m ≈ 0.88
	if heavy > light {
		t.Fatalf("relative gap grew with load: light %v, heavy %v", light, heavy)
	}
}

func TestErlangC(t *testing.T) {
	// One server: P(wait) is the utilization itself.
	if c, err := ErlangC(1, 0.6); err != nil || math.Abs(c-0.6) > 1e-12 {
		t.Errorf("ErlangC(1, 0.6) = %v, %v; want 0.6", c, err)
	}
	// Textbook value: two servers at one erlang wait with probability 1/3.
	if c, err := ErlangC(2, 1); err != nil || math.Abs(c-1.0/3) > 1e-12 {
		t.Errorf("ErlangC(2, 1) = %v, %v; want 1/3", c, err)
	}
	if c, err := ErlangC(3, 0); err != nil || c != 0 {
		t.Errorf("ErlangC(3, 0) = %v, %v; want 0", c, err)
	}
	if _, err := ErlangC(0, 0.5); err == nil {
		t.Error("zero servers accepted")
	}
	if _, err := ErlangC(2, 2); err == nil {
		t.Error("critical load accepted")
	}
	if _, err := ErlangC(2, math.NaN()); err == nil {
		t.Error("NaN load accepted")
	}
}

// Equal service rates is the regime where the multiserver Cobham formula is
// exact; the simulation must agree with it class by class.
func TestMMmExactPriorityMatchesSimulation(t *testing.T) {
	m := &MMm{
		Servers: 3,
		Classes: []Class{
			{ArrivalRate: 1.4, Service: dist.Exponential{Rate: 1}, HoldCost: 5},
			{ArrivalRate: 0.9, Service: dist.Exponential{Rate: 1}, HoldCost: 1},
		},
	}
	order := m.CMuOrder()
	_, l, err := m.ExactPriority(order)
	if err != nil {
		t.Fatal(err)
	}
	exact := m.HoldingCostRate(l)
	rep := replicateMMm(t, m, order, 30000, 3000, 8, rng.New(1303))
	if got := rep.CostRate.Mean(); math.Abs(got-exact) > 0.05*exact {
		t.Errorf("simulated cµ cost %v, Cobham multiserver exact %v", got, exact)
	}
	for j := range m.Classes {
		if got := rep.L[j].Mean(); math.Abs(got-l[j]) > 0.08*l[j] {
			t.Errorf("class %d: simulated L %v, exact %v", j, got, l[j])
		}
	}
}

// On a single server the multiserver formula must collapse to Cobham's
// M/G/1 values exactly (equal rates, so no pooling approximation).
func TestMMmExactPriorityOneServerIsCobham(t *testing.T) {
	classes := []Class{
		{ArrivalRate: 0.3, Service: dist.Exponential{Rate: 1.2}, HoldCost: 4},
		{ArrivalRate: 0.2, Service: dist.Exponential{Rate: 1.2}, HoldCost: 1},
	}
	m := &MMm{Servers: 1, Classes: classes}
	mg1 := &MG1{Classes: classes}
	order := m.CMuOrder()
	wqM, lM, err := m.ExactPriority(order)
	if err != nil {
		t.Fatal(err)
	}
	wqG, lG, err := mg1.ExactPriority(order)
	if err != nil {
		t.Fatal(err)
	}
	for j := range classes {
		if math.Abs(wqM[j]-wqG[j]) > 1e-9 || math.Abs(lM[j]-lG[j]) > 1e-9 {
			t.Errorf("class %d: M/M/m (%v, %v) vs M/G/1 Cobham (%v, %v)", j, wqM[j], lM[j], wqG[j], lG[j])
		}
	}
}

// FIFO and cµ replications of one seed must see identical randomness, and
// prioritizing by cµ must not cost more than FIFO.
func TestMMmFIFO(t *testing.T) {
	m := mmmSystem(1)
	fifo := replicateMMm(t, m, nil, 20000, 2000, 6, rng.New(1304))
	cmu := replicateMMm(t, m, m.CMuOrder(), 20000, 2000, 6, rng.New(1304))
	if cmu.CostRate.Mean() > fifo.CostRate.Mean() {
		t.Errorf("cµ cost %v above FIFO cost %v", cmu.CostRate.Mean(), fifo.CostRate.Mean())
	}
	// A single-class system has nothing to prioritize: the two disciplines
	// must produce byte-identical sample paths.
	one := &MMm{Servers: 2, Classes: []Class{{ArrivalRate: 1.1, Service: dist.Exponential{Rate: 1}, HoldCost: 2}}}
	a, err := one.Simulate([]int{0}, 5000, 500, rng.New(1305))
	if err != nil {
		t.Fatal(err)
	}
	b, err := one.Simulate(nil, 5000, 500, rng.New(1305))
	if err != nil {
		t.Fatal(err)
	}
	if a.L[0] != b.L[0] || a.CostRate != b.CostRate || a.Served[0] != b.Served[0] {
		t.Errorf("single-class priority %+v differs from FIFO %+v", a, b)
	}
}

func TestMMmOneServerMatchesCobham(t *testing.T) {
	m := &MMm{
		Servers: 1,
		Classes: []Class{
			{ArrivalRate: 0.3, Service: dist.Exponential{Rate: 2}, HoldCost: 4},
			{ArrivalRate: 0.2, Service: dist.Exponential{Rate: 1}, HoldCost: 1},
		},
	}
	mg1 := &MG1{Classes: m.Classes}
	order := m.CMuOrder()
	_, lE, err := mg1.ExactPriority(order)
	if err != nil {
		t.Fatal(err)
	}
	exact := mg1.HoldingCostRate(lE)
	s := rng.New(1302)
	var cost float64
	const reps = 8
	for i := 0; i < reps; i++ {
		res, err := m.Simulate(order, 30000, 3000, s.Split())
		if err != nil {
			t.Fatal(err)
		}
		cost += res.CostRate
	}
	cost /= reps
	if math.Abs(cost-exact) > 0.1*exact {
		t.Fatalf("M/M/1-as-MMm cost %v, Cobham exact %v", cost, exact)
	}
}
