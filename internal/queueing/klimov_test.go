package queueing

import (
	"math"
	"testing"

	"stochsched/internal/dist"
	"stochsched/internal/linalg"
	"stochsched/internal/rng"
	"stochsched/internal/stats"
)

// feedbackNetwork is a 3-class Klimov system with substantial feedback.
func feedbackNetwork() *KlimovNetwork {
	return &KlimovNetwork{
		Classes: []Class{
			{Name: "A", ArrivalRate: 0.15, Service: dist.Exponential{Rate: 3}, HoldCost: 1},
			{Name: "B", ArrivalRate: 0.1, Service: dist.Exponential{Rate: 2}, HoldCost: 3},
			{Name: "C", ArrivalRate: 0.05, Service: dist.Exponential{Rate: 1}, HoldCost: 2},
		},
		Feedback: linalg.FromRows([][]float64{
			{0, 0.4, 0.1},
			{0.2, 0, 0.3},
			{0, 0.1, 0},
		}),
	}
}

func TestTrafficEquations(t *testing.T) {
	k := feedbackNetwork()
	lam, err := k.EffectiveArrivalRates()
	if err != nil {
		t.Fatal(err)
	}
	// λ must satisfy λ = α + Pᵀλ.
	for j := range lam {
		rhs := k.Classes[j].ArrivalRate
		for i := range lam {
			rhs += k.Feedback.At(i, j) * lam[i]
		}
		if math.Abs(lam[j]-rhs) > 1e-10 {
			t.Fatalf("traffic equation violated at %d: %v vs %v", j, lam[j], rhs)
		}
	}
	// Effective rates must exceed external ones when feedback feeds in.
	if lam[1] <= k.Classes[1].ArrivalRate {
		t.Fatalf("λ_B = %v not above external %v", lam[1], k.Classes[1].ArrivalRate)
	}
}

func TestKlimovReducesToCMu(t *testing.T) {
	// With zero feedback the Klimov order must coincide with cµ.
	m := twoClassMM1()
	k := NoFeedback(m)
	_, order, err := k.KlimovIndices()
	if err != nil {
		t.Fatal(err)
	}
	cmu := m.CMuOrder()
	for i := range order {
		if order[i] != cmu[i] {
			t.Fatalf("Klimov order %v, cµ order %v", order, cmu)
		}
	}
	// And the indices themselves are the cµ values.
	idx, _, err := k.KlimovIndices()
	if err != nil {
		t.Fatal(err)
	}
	for j, c := range m.Classes {
		want := c.HoldCost / c.Service.Mean()
		if math.Abs(idx[j]-want) > 1e-9 {
			t.Fatalf("index[%d] = %v, want cµ = %v", j, idx[j], want)
		}
	}
}

func TestExpectedWorkInSet(t *testing.T) {
	k := feedbackNetwork()
	// Singleton set: work = own mean (no within-set feedback).
	w, err := k.expectedWorkInSet([]int{2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w[2]-1) > 1e-12 {
		t.Fatalf("singleton work %v, want 1", w[2])
	}
	// Full set: T_i = m_i + Σ P_ij T_j.
	full, err := k.expectedWorkInSet([]int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rhs := k.Classes[i].Service.Mean()
		for j := 0; j < 3; j++ {
			rhs += k.Feedback.At(i, j) * full[j]
		}
		if math.Abs(full[i]-rhs) > 1e-10 {
			t.Fatalf("set-work equation violated at %d", i)
		}
	}
	// Work with feedback strictly exceeds own mean.
	if full[0] <= k.Classes[0].Service.Mean() {
		t.Fatalf("full-set work %v not above mean %v", full[0], k.Classes[0].Service.Mean())
	}
}

// The Klimov order must be (statistically) the best static priority order —
// the optimality result of Klimov 1974, experiment E15.
func TestKlimovOrderBeatsAlternatives(t *testing.T) {
	k := feedbackNetwork()
	s := rng.New(1100)
	_, korder, err := k.KlimovIndices()
	if err != nil {
		t.Fatal(err)
	}
	const horizon, burnin, reps = 30000, 3000, 6
	cost := func(o []int) *stats.Running {
		rep, err := replicate(len(k.Classes), reps, s.Split(), func(sub *rng.Stream) (*SimResult, error) {
			return k.Simulate(o, horizon, burnin, sub)
		})
		if err != nil {
			t.Fatal(err)
		}
		return &rep.CostRate
	}
	kEst := cost(korder)
	orders := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	worst := 0.0
	for _, o := range orders {
		est := cost(o)
		// Klimov must not be significantly worse than any order.
		if kEst.Mean() > est.Mean()+3*(kEst.CI95()+est.CI95()) {
			t.Fatalf("Klimov order %v cost %v (±%v) significantly worse than %v cost %v (±%v)",
				korder, kEst.Mean(), kEst.CI95(), o, est.Mean(), est.CI95())
		}
		if est.Mean() > worst {
			worst = est.Mean()
		}
	}
	// And strictly better than the worst order.
	if kEst.Mean() >= worst {
		t.Fatalf("Klimov cost %v not below worst order cost %v", kEst.Mean(), worst)
	}
}

func TestKlimovIndicesMonotoneConstruction(t *testing.T) {
	// The adaptive-greedy rates accumulate, so indices along the
	// construction order (lowest priority first) are nondecreasing.
	k := feedbackNetwork()
	idx, order, err := k.KlimovIndices()
	if err != nil {
		t.Fatal(err)
	}
	// order is highest-first; walking it backwards gives construction order.
	for i := len(order) - 1; i > 0; i-- {
		if idx[order[i]] > idx[order[i-1]]+1e-9 {
			t.Fatalf("indices not consistent with priority order: %v / %v", idx, order)
		}
	}
}

// Under discounting the cµ/Klimov priority order should dominate its
// reverse on a sharply separated instance (Tcha–Pliska 1977 extension).
// Paired replications (common seeds) control Monte-Carlo noise.
func TestDiscountedKlimovOrderBeatsReverse(t *testing.T) {
	m := &MG1{Classes: []Class{
		{ArrivalRate: 0.3, Service: dist.Exponential{Rate: 4}, HoldCost: 10},
		{ArrivalRate: 0.4, Service: dist.Exponential{Rate: 0.8}, HoldCost: 0.5},
	}}
	k := NoFeedback(m)
	s := rng.New(1101)
	_, order, err := k.KlimovIndices()
	if err != nil {
		t.Fatal(err)
	}
	rev := []int{order[1], order[0]}
	var diff stats.Running
	const reps = 30
	for i := 0; i < reps; i++ {
		seed := s.Uint64()
		a, err := k.SimulateDiscounted(order, 0.02, 1500, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		b, err := k.SimulateDiscounted(rev, 0.02, 1500, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		diff.Add(b - a) // positive when Klimov order is cheaper
	}
	if diff.Mean() <= 0 {
		t.Fatalf("discounted Klimov advantage %v (±%v) not positive", diff.Mean(), diff.CI95())
	}
}

func TestSimulateDiscountedValidation(t *testing.T) {
	k := feedbackNetwork()
	if _, err := k.SimulateDiscounted([]int{0, 1, 2}, 0, 100, rng.New(1)); err == nil {
		t.Error("zero discount accepted")
	}
	if _, err := k.SimulateDiscounted([]int{0}, 0.1, 100, rng.New(1)); err == nil {
		t.Error("short order accepted")
	}
}

func TestKlimovValidation(t *testing.T) {
	k := feedbackNetwork()
	k.Feedback.Set(0, 1, 0.95) // row 0 now sums to 1.05 > 1
	if err := k.Validate(); err == nil {
		t.Error("superstochastic feedback accepted")
	}
	k2 := feedbackNetwork()
	k2.Classes[0].ArrivalRate = 5 // unstable
	if err := k2.Validate(); err == nil {
		t.Error("unstable network accepted")
	}
	k3 := feedbackNetwork()
	if _, err := k3.Simulate([]int{0, 1}, 100, 10, rng.New(1)); err == nil {
		t.Error("short order accepted")
	}
}
