package queueing

import (
	"context"
	"fmt"
	"math"

	"stochsched/internal/des"
	"stochsched/internal/dist"
	"stochsched/internal/engine"
	"stochsched/internal/rng"
	"stochsched/internal/stats"
)

// job is one customer in the system.
type job struct {
	class   int
	arrival float64
}

// Priority is a nonpreemptive service rule written as data. With no
// Orders it serves first come, first served. With one it is a static
// priority order: class indices, highest first, the oldest job of the best
// class present served next. With several, each service start draws one
// order with probability proportional to its weight in Weights, tracing
// interior points of the performance polytope (experiment E18).
type Priority struct {
	Orders  [][]int
	Weights []float64
}

// ranks checks p against n classes, before any draw, and returns
// rank[class] for each order. Every order must be a permutation of the
// classes. Weights may be left out with fewer than two orders; otherwise
// it needs one finite, nonnegative weight per order and a positive sum.
func (p Priority) ranks(n int) ([][]int, error) {
	out := make([][]int, len(p.Orders))
	for i, order := range p.Orders {
		rank, err := ranks(order, n)
		if err != nil {
			return nil, err
		}
		out[i] = rank
	}
	if len(p.Weights) == 0 && len(p.Orders) < 2 {
		return out, nil
	}
	if len(p.Weights) != len(p.Orders) {
		return nil, fmt.Errorf("queueing: %d priority weights for %d orders", len(p.Weights), len(p.Orders))
	}
	sum := 0.0
	for _, w := range p.Weights {
		if !(w >= 0) || math.IsInf(w, 1) {
			return nil, fmt.Errorf("queueing: priority weight %v is not finite and nonnegative", w)
		}
		sum += w
	}
	if !(sum > 0) || math.IsInf(sum, 1) {
		return nil, fmt.Errorf("queueing: priority weights %v need a positive finite sum", p.Weights)
	}
	return out, nil
}

// SimResult carries steady-state estimates from one replication.
type SimResult struct {
	L          []float64 // time-average number in system, per class
	Wq         []float64 // mean delay before service, per class
	CostRate   float64   // Σ_j c_j L_j
	Served     []int64   // completed jobs per class
	Trajectory []float64 // Network.Simulate's total jobs, sampled every sampleEvery
}

// Simulate runs the multiclass M/G/1 under the nonpreemptive rule p on
// [0, horizon], collecting statistics on [burnin, horizon].
func (m *MG1) Simulate(p Priority, horizon, burnin float64, s *rng.Stream) (*SimResult, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := checkWindow(horizon, burnin); err != nil {
		return nil, err
	}
	md := oneStation(m.Classes, 1, nil)
	var err error
	if md.ranks, err = p.ranks(len(m.Classes)); err != nil {
		return nil, err
	}
	md.weights = p.Weights
	return md.run(horizon, burnin, 0, s), nil
}

// ReplicatedResult carries the replication statistics of a per-class
// simulator: per-class L and Wq with the cost-rate statistics.
type ReplicatedResult struct {
	L        []stats.Running
	Wq       []stats.Running
	CostRate stats.Running
}

// Add folds one replication into the accumulators. Only the per-class
// accumulators present are fed, so a nil Wq stays nil for a caller that
// reports no delays.
func (r *ReplicatedResult) Add(res *SimResult) {
	for j := range r.L {
		r.L[j].Add(res.L[j])
	}
	for j := range r.Wq {
		r.Wq[j].Add(res.Wq[j])
	}
	r.CostRate.Add(res.CostRate)
}

// Replicate aggregates independent replications of Simulate on the pool.
// Each replication draws from its own substream (a mixture's order draws
// included), and the per-class statistics are folded in replication
// order, so the result is byte-identical for a given seed at any
// parallelism level.
func (m *MG1) Replicate(ctx context.Context, p *engine.Pool, pri Priority, horizon, burnin float64, reps int, s *rng.Stream) (*ReplicatedResult, error) {
	n := len(m.Classes)
	out := &ReplicatedResult{L: make([]stats.Running, n), Wq: make([]stats.Running, n)}
	if err := engine.ReplicateReduce(ctx, p, reps, s,
		func(_ context.Context, _ int, sub *rng.Stream) (*SimResult, error) {
			return m.Simulate(pri, horizon, burnin, sub)
		},
		func(_ int, res *SimResult) error { out.Add(res); return nil }); err != nil {
		return nil, err
	}
	return out, nil
}

// SimulatePreemptive runs a preemptive-resume static priority M/M/1
// (exponential services required: preempted work is resampled, which is
// distribution-preserving only under memorylessness). An arriving job of
// strictly higher priority interrupts the job in service.
func (m *MG1) SimulatePreemptive(order []int, horizon, burnin float64, s *rng.Stream) (*SimResult, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	for j, c := range m.Classes {
		if _, ok := c.Service.(dist.Exponential); !ok {
			return nil, fmt.Errorf("queueing: preemptive simulator requires exponential services (class %d is %v)", j, c.Service)
		}
	}
	if err := checkWindow(horizon, burnin); err != nil {
		return nil, err
	}
	n := len(m.Classes)
	rank, err := ranks(order, n)
	if err != nil {
		return nil, err
	}
	sim := des.New()
	arr, svc := splitStreams(s, n)
	t := newTally(sim, n, burnin)
	var waiting []job
	var cur job // the job in service
	inService := false
	var completion des.Handle

	var dispatch, complete func()
	dispatch = func() {
		if inService || len(waiting) == 0 {
			return
		}
		// Highest-priority waiting job (oldest within class).
		cur = take(&waiting, pick(waiting, rank))
		inService = true
		completion = sim.Schedule(m.Classes[cur.class].Service.Sample(svc[cur.class]), complete)
	}
	complete = func() {
		t.add(cur.class, -1)
		inService = false
		dispatch()
	}
	poisson(sim, arr, rates(m.Classes), func(j int) {
		t.add(j, +1)
		waiting = append(waiting, job{class: j, arrival: sim.Now()})
		if inService && rank[j] < rank[cur.class] {
			// Preempt: return the job in service to the queue (memoryless
			// services make resampling on resumption exact).
			completion.Cancel()
			waiting = append(waiting, cur)
			inService = false
		}
		dispatch()
	})
	t.snapshotAtBurnin()
	sim.RunUntil(horizon)
	return t.result(horizon, holds(m.Classes)), nil
}
