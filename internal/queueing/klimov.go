package queueing

import (
	"context"
	"fmt"
	"math"
	"sort"

	"stochsched/internal/des"
	"stochsched/internal/engine"
	"stochsched/internal/linalg"
	"stochsched/internal/rng"
	"stochsched/internal/stats"
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

// Validate checks dimensions, substochastic feedback, and stability of the
// effective loads.
func (k *KlimovNetwork) Validate() error {
	n := len(k.Classes)
	if n == 0 {
		return fmt.Errorf("queueing: klimov: no classes")
	}
	if k.Feedback.Rows != n || k.Feedback.Cols != n {
		return fmt.Errorf("queueing: klimov: feedback is %dx%d, want %dx%d", k.Feedback.Rows, k.Feedback.Cols, n, n)
	}
	for i := 0; i < n; i++ {
		sum := 0.0
		for j := 0; j < n; j++ {
			v := k.Feedback.At(i, j)
			if v < 0 {
				return fmt.Errorf("queueing: klimov: negative feedback P[%d][%d]", i, j)
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
	if rho >= 1 {
		return fmt.Errorf("queueing: klimov: effective load ρ = %v ≥ 1", rho)
	}
	return nil
}

// EffectiveArrivalRates solves the traffic equations λ = α + Pᵀ λ.
func (k *KlimovNetwork) EffectiveArrivalRates() ([]float64, error) {
	n := len(k.Classes)
	a := linalg.Identity(n).Sub(k.Feedback.Transpose())
	alpha := make([]float64, n)
	for j, c := range k.Classes {
		alpha[j] = c.ArrivalRate
	}
	lam, err := linalg.Solve(a, alpha)
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

// KlimovOrderByIndex returns classes sorted by nonincreasing Klimov index.
func KlimovOrderByIndex(indices []float64) []int {
	o := make([]int, len(indices))
	for i := range o {
		o[i] = i
	}
	sort.SliceStable(o, func(a, b int) bool { return indices[o[a]] > indices[o[b]] })
	return o
}

// Simulate runs the feedback network under a static nonpreemptive priority
// order (highest first) and returns steady-state estimates.
func (k *KlimovNetwork) Simulate(order []int, horizon, burnin float64, s *rng.Stream) (*SimResult, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	if horizon <= burnin || burnin < 0 {
		return nil, fmt.Errorf("queueing: need 0 <= burnin < horizon")
	}
	rank, err := ranks(order, len(k.Classes))
	if err != nil {
		return nil, err
	}
	sim := des.New()
	t := newTally(sim, len(k.Classes), burnin)
	k.bind(sim, rank, s, t.add)
	t.snapshotAtBurnin()
	sim.RunUntil(horizon)
	return t.result(horizon, k.Classes), nil
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
	if discountRate <= 0 || horizon <= 0 {
		return 0, fmt.Errorf("queueing: need positive discount rate and horizon")
	}
	rank, err := ranks(order, len(k.Classes))
	if err != nil {
		return 0, err
	}
	sim := des.New()
	lastT := 0.0
	costRate := 0.0 // current Σ c_j n_j
	total := 0.0

	// accrue integrates e^{-rt}·costRate over [lastT, now].
	accrue := func() {
		now := sim.Now()
		if now > lastT && costRate != 0 {
			r := discountRate
			total += costRate * (math.Exp(-r*lastT) - math.Exp(-r*now)) / r
		}
		lastT = now
	}
	k.bind(sim, rank, s, func(j, delta int) {
		accrue()
		costRate += float64(delta) * k.Classes[j].HoldCost
	})
	sim.RunUntil(horizon)
	accrue()
	return total, nil
}

// bind sets up the feedback network's event loop on sim: Poisson arrivals,
// one server taking the waiting job of the best rank (oldest first within
// a class), and Markovian routing of each completed job, drawn from
// substreams of s. Every change of a class's number in system is reported
// to add(j, ±1) as it happens.
func (k *KlimovNetwork) bind(sim *des.Simulator, rank []int, s *rng.Stream, add func(j, delta int)) {
	n := len(k.Classes)
	routeStream := s.Split()
	arr, svc := splitStreams(s, n)
	var waiting []job
	var cur job // the job in service
	inService := false

	var startService, complete func()
	startService = func() {
		if inService || len(waiting) == 0 {
			return
		}
		cur = take(&waiting, pick(waiting, rank))
		inService = true
		sim.Schedule(k.Classes[cur.class].Service.Sample(svc[cur.class]), complete)
	}
	complete = func() {
		inService = false
		add(cur.class, -1)
		// Route: become class j with probability P[cur][j], else exit.
		u, acc := routeStream.Float64(), 0.0
		for j := 0; j < n; j++ {
			acc += k.Feedback.At(cur.class, j)
			if u < acc {
				add(j, +1)
				waiting = append(waiting, job{class: j, arrival: sim.Now()})
				break
			}
		}
		startService()
	}
	poisson(sim, arr, rates(k.Classes), func(j int) {
		add(j, +1)
		waiting = append(waiting, job{class: j, arrival: sim.Now()})
		startService()
	})
}

// ReplicateKlimov aggregates replications of Simulate under one order on
// the pool; the aggregate is byte-identical for a given seed at any
// parallelism level.
func (k *KlimovNetwork) ReplicateKlimov(ctx context.Context, p *engine.Pool, order []int, horizon, burnin float64, reps int, s *rng.Stream) (*stats.Running, error) {
	var out stats.Running
	if err := k.ReplicateKlimovInto(ctx, p, order, horizon, burnin, reps, s, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ReplicateKlimovInto folds reps further replications into out, continuing
// s's substream sequence — the accumulation form the adaptive rounds use.
func (k *KlimovNetwork) ReplicateKlimovInto(ctx context.Context, p *engine.Pool, order []int, horizon, burnin float64, reps int, s *rng.Stream, out *stats.Running) error {
	return engine.ReplicateInto(ctx, p, 0, reps, s,
		func(_ context.Context, _ int, sub *rng.Stream) (float64, error) {
			res, err := k.Simulate(order, horizon, burnin, sub)
			if err != nil {
				return 0, err
			}
			return res.CostRate, nil
		}, out)
}

// NoFeedback builds a KlimovNetwork with zero feedback from an MG1 model,
// for cross-checks against the plain cµ machinery.
func NoFeedback(m *MG1) *KlimovNetwork {
	n := len(m.Classes)
	return &KlimovNetwork{Classes: m.Classes, Feedback: linalg.NewMatrix(n, n)}
}
