package queueing

import (
	"fmt"
	"math"

	"stochsched/internal/linalg"
	"stochsched/internal/rng"
)

// Klimov's model (Klimov 1974): a multiclass M/G/1 queue with Markovian
// feedback — a class-i job, on completing service, becomes class j with
// probability P[i][j] and leaves with probability 1 − Σ_j P[i][j]. The
// optimal nonpreemptive policy for the steady-state holding-cost rate is a
// static priority order computed by Klimov's N-step algorithm, implemented
// here in the adaptive-greedy form of Bertsimas–Niño-Mora (1996): priorities
// are assigned from lowest to highest, at each step minimizing the modified
// cost per unit of expected remaining work within the still-unassigned set.

// KlimovNetwork is a multiclass M/G/1 with feedback.
type KlimovNetwork struct {
	Classes  []Class
	Feedback *linalg.Matrix // P[i][j]; row sums ≤ 1, deficit = exit prob.
}

// Validate checks the classes, dimensions, substochastic feedback, and
// stability of the effective loads.
func (k *KlimovNetwork) Validate() error {
	n := len(k.Classes)
	if n == 0 {
		return fmt.Errorf("queueing: klimov: no classes")
	}
	if err := checkClasses(k.Classes); err != nil {
		return err
	}
	if k.Feedback.Rows != n || k.Feedback.Cols != n {
		return fmt.Errorf("queueing: klimov: feedback is %dx%d, want %dx%d", k.Feedback.Rows, k.Feedback.Cols, n, n)
	}
	for i := 0; i < n; i++ {
		sum := 0.0
		for j := 0; j < n; j++ {
			v := k.Feedback.At(i, j)
			if !(v >= 0) {
				return fmt.Errorf("queueing: klimov: negative or NaN feedback P[%d][%d]", i, j)
			}
			sum += v
		}
		if sum > 1+1e-9 {
			return fmt.Errorf("queueing: klimov: feedback row %d sums to %v > 1", i, sum)
		}
	}
	lam, err := k.EffectiveArrivalRates()
	if err != nil {
		return err
	}
	rho := 0.0
	for j, c := range k.Classes {
		rho += lam[j] * c.Service.Mean()
	}
	if !(rho < 1) {
		return fmt.Errorf("queueing: klimov: effective load ρ = %v ≥ 1", rho)
	}
	return nil
}

// EffectiveArrivalRates solves the traffic equations λ = α + Pᵀ λ.
func (k *KlimovNetwork) EffectiveArrivalRates() ([]float64, error) {
	alpha := make([]float64, len(k.Classes))
	for j, c := range k.Classes {
		alpha[j] = c.ArrivalRate
	}
	lam, err := solveTraffic(k.Feedback, alpha)
	if err != nil {
		return nil, fmt.Errorf("queueing: klimov traffic equations: %w", err)
	}
	return lam, nil
}

// expectedWorkInSet returns, for every class i ∈ set, the expected total
// service time a job currently of class i receives before its class leaves
// the set (counting feedback within the set):
//
//	T_i = m_i + Σ_{j ∈ set} P[i][j] · T_j.
func (k *KlimovNetwork) expectedWorkInSet(set []int) (map[int]float64, error) {
	sz := len(set)
	a := linalg.NewMatrix(sz, sz)
	b := make([]float64, sz)
	for ai, i := range set {
		for aj, j := range set {
			v := -k.Feedback.At(i, j)
			if ai == aj {
				v += 1
			}
			a.Set(ai, aj, v)
		}
		b[ai] = k.Classes[i].Service.Mean()
	}
	t, err := linalg.Solve(a, b)
	if err != nil {
		return nil, fmt.Errorf("queueing: klimov set-work solve: %w", err)
	}
	out := make(map[int]float64, sz)
	for ai, i := range set {
		out[i] = t[ai]
	}
	return out, nil
}

// KlimovIndices runs the adaptive-greedy algorithm and returns the Klimov
// index of each class and the optimal priority order (highest priority
// first). Larger index = higher priority; with no feedback the indices
// reduce to c_j·µ_j (the cµ rule).
func (k *KlimovNetwork) KlimovIndices() ([]float64, []int, error) {
	if err := k.Validate(); err != nil {
		return nil, nil, err
	}
	n := len(k.Classes)
	remaining := make([]int, n)
	for i := range remaining {
		remaining[i] = i
	}
	modCost := make([]float64, n)
	for i, c := range k.Classes {
		modCost[i] = c.HoldCost
	}
	indices := make([]float64, n)
	cumRate := 0.0
	orderLowFirst := make([]int, 0, n)
	for len(remaining) > 0 {
		t, err := k.expectedWorkInSet(remaining)
		if err != nil {
			return nil, nil, err
		}
		// Lowest-priority class among the remaining: minimal modified cost
		// per unit of expected in-set work.
		best := -1
		bestRate := math.Inf(1)
		for _, i := range remaining {
			if r := modCost[i] / t[i]; r < bestRate {
				bestRate = r
				best = i
			}
		}
		cumRate += bestRate
		indices[best] = cumRate
		orderLowFirst = append(orderLowFirst, best)
		// Remove and update modified costs of the rest.
		next := remaining[:0]
		for _, i := range remaining {
			if i != best {
				modCost[i] -= bestRate * t[i]
				next = append(next, i)
			}
		}
		remaining = next
	}
	// Reverse to highest-first.
	order := make([]int, n)
	for i, cls := range orderLowFirst {
		order[n-1-i] = cls
	}
	return indices, order, nil
}

// Simulate runs the feedback network under a static nonpreemptive priority
// order (highest first) and returns steady-state estimates.
func (k *KlimovNetwork) Simulate(order []int, horizon, burnin float64, s *rng.Stream) (*SimResult, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	if err := checkWindow(horizon, burnin); err != nil {
		return nil, err
	}
	md, err := k.stations(order)
	if err != nil {
		return nil, err
	}
	return md.run(horizon, burnin, 0, s), nil
}

// SimulateDiscounted runs the feedback network under a static priority
// order and returns the realized total discounted holding cost
// ∫₀^horizon e^{−rt} Σ_j c_j n_j(t) dt from an empty start — the
// Tcha–Pliska (1977) criterion. The integral is exact for the sampled path
// because the counts are piecewise constant.
func (k *KlimovNetwork) SimulateDiscounted(order []int, discountRate, horizon float64, s *rng.Stream) (float64, error) {
	if err := k.Validate(); err != nil {
		return 0, err
	}
	if !(discountRate > 0 && discountRate < math.Inf(1) && horizon > 0 && horizon < math.Inf(1)) {
		return 0, fmt.Errorf("queueing: need a positive finite discount rate and horizon")
	}
	md, err := k.stations(order)
	if err != nil {
		return 0, err
	}
	return md.discounted(discountRate, horizon, s), nil
}

// stations writes the network for the station loop under a static
// priority order: one server, whose completed jobs route by their
// feedback rows.
func (k *KlimovNetwork) stations(order []int) (stationModel, error) {
	rank, err := ranks(order, len(k.Classes))
	if err != nil {
		return stationModel{}, err
	}
	md := oneStation(k.Classes, 1, k.Feedback)
	md.ranks = [][]int{rank}
	return md, nil
}

// NoFeedback builds a KlimovNetwork with zero feedback from an MG1 model,
// for cross-checks against the plain cµ machinery.
func NoFeedback(m *MG1) *KlimovNetwork {
	n := len(m.Classes)
	return &KlimovNetwork{Classes: m.Classes, Feedback: linalg.NewMatrix(n, n)}
}
