package queueing

import (
	"context"
	"fmt"

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

// Discipline selects which waiting job to serve next at a service-start
// epoch. waiting holds jobs in arrival order; the discipline returns an
// index into it. A discipline must return a valid index when waiting is
// nonempty.
type Discipline interface {
	Next(waiting []job) int
	Name() string
}

// FIFO serves in arrival order.
type FIFO struct{}

// Next implements Discipline.
func (FIFO) Next([]job) int { return 0 }

// Name implements Discipline.
func (FIFO) Name() string { return "FIFO" }

// StaticPriority serves the oldest job of the highest-priority nonempty
// class. Order lists class indices, highest priority first.
type StaticPriority struct{ Order []int }

// Next implements Discipline. Simulate has checked that Order is a
// permutation of the classes, so some waiting job always matches.
func (p StaticPriority) Next(waiting []job) int {
	for _, cls := range p.Order {
		for i, jb := range waiting {
			if jb.class == cls {
				return i
			}
		}
	}
	return -1
}

// Name implements Discipline.
func (p StaticPriority) Name() string { return fmt.Sprintf("priority%v", p.Order) }

// RandomMix randomizes, at every service-start epoch, among disciplines
// with the given weights — tracing interior points of the performance
// polytope (experiment E18).
type RandomMix struct {
	Disciplines []Discipline
	Weights     []float64
	// Stream supplies the mixing draws for direct Simulate calls.
	// Replicate ignores it: each replication is rebound to its own
	// substream via WithStream, so replications neither race on a shared
	// stream nor depend on scheduling order.
	Stream *rng.Stream
}

// Next implements Discipline.
func (r RandomMix) Next(waiting []job) int {
	return r.Disciplines[r.Stream.Categorical(r.Weights)].Next(waiting)
}

// Name implements Discipline.
func (r RandomMix) Name() string { return "random-mix" }

// WithStream implements StreamDiscipline: replications each get an
// independent copy drawing from their own substream. Nested disciplines
// that carry streams of their own are rebound recursively, so no stream is
// shared across replications anywhere in the discipline tree.
func (r RandomMix) WithStream(s *rng.Stream) Discipline {
	inner := make([]Discipline, len(r.Disciplines))
	for i, d := range r.Disciplines {
		if sd, ok := d.(StreamDiscipline); ok {
			inner[i] = sd.WithStream(s.Split())
		} else {
			inner[i] = d
		}
	}
	return RandomMix{Disciplines: inner, Weights: r.Weights, Stream: s}
}

// StreamDiscipline is implemented by disciplines that consume randomness.
// Replicate rebinds such disciplines to a per-replication substream so
// concurrent replications neither race on a shared stream nor depend on
// scheduling order for their draws.
type StreamDiscipline interface {
	Discipline
	WithStream(s *rng.Stream) Discipline
}

// checkOrders rejects a StaticPriority, alone or mixed into a RandomMix,
// whose Order is not a permutation of the n classes.
func checkOrders(d Discipline, n int) error {
	switch d := d.(type) {
	case StaticPriority:
		_, err := ranks(d.Order, n)
		return err
	case RandomMix:
		for _, inner := range d.Disciplines {
			if err := checkOrders(inner, n); err != nil {
				return err
			}
		}
	}
	return nil
}

// SimResult carries steady-state estimates from one replication.
type SimResult struct {
	L        []float64 // time-average number in system, per class
	Wq       []float64 // mean delay before service, per class
	CostRate float64   // Σ_j c_j L_j
	Served   []int64   // completed jobs per class
}

// Simulate runs the multiclass M/G/1 under the given nonpreemptive
// discipline on [0, horizon], collecting statistics on [burnin, horizon].
func (m *MG1) Simulate(d Discipline, horizon, burnin float64, s *rng.Stream) (*SimResult, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if horizon <= burnin || burnin < 0 {
		return nil, fmt.Errorf("queueing: need 0 <= burnin < horizon")
	}
	n := len(m.Classes)
	if err := checkOrders(d, n); err != nil {
		return nil, err
	}
	sim := des.New()
	arr, svc := splitStreams(s, n)
	t := newTally(sim, n, burnin)
	var waiting []job
	var cur job // the job in service
	inService := false

	var startService, complete func()
	startService = func() {
		if inService || len(waiting) == 0 {
			return
		}
		cur = take(&waiting, d.Next(waiting))
		inService = true
		t.start(cur)
		sim.Schedule(m.Classes[cur.class].Service.Sample(svc[cur.class]), complete)
	}
	complete = func() {
		inService = false
		t.add(cur.class, -1)
		startService()
	}
	poisson(sim, arr, rates(m.Classes), func(j int) {
		t.add(j, +1)
		waiting = append(waiting, job{class: j, arrival: sim.Now()})
		startService()
	})
	t.snapshotAtBurnin()
	sim.RunUntil(horizon)
	return t.result(horizon, m.Classes), nil
}

// ReplicatedResult carries the replication statistics of a per-class
// simulator: per-class L and Wq with the cost-rate statistics.
type ReplicatedResult struct {
	L        []stats.Running
	Wq       []stats.Running
	CostRate stats.Running
}

// Add folds one replication into the accumulators. Only the per-class
// accumulators present are fed, so a nil Wq (the M/M/m simulator tracks
// time-average occupancy, not per-job waits) stays nil.
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
// Each replication draws from its own substream (including the discipline,
// when it consumes randomness — see StreamDiscipline), and the per-class
// statistics are folded in replication order, so the result is
// byte-identical for a given seed at any parallelism level.
func (m *MG1) Replicate(ctx context.Context, p *engine.Pool, d Discipline, horizon, burnin float64, reps int, s *rng.Stream) (*ReplicatedResult, error) {
	n := len(m.Classes)
	out := &ReplicatedResult{L: make([]stats.Running, n), Wq: make([]stats.Running, n)}
	if err := engine.ReplicateReduce(ctx, p, reps, s,
		func(_ context.Context, _ int, sub *rng.Stream) (*SimResult, error) {
			rep := d
			if sd, ok := d.(StreamDiscipline); ok {
				rep = sd.WithStream(sub.Split())
			}
			return m.Simulate(rep, horizon, burnin, sub)
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
	if horizon <= burnin || burnin < 0 {
		return nil, fmt.Errorf("queueing: need 0 <= burnin < horizon")
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
	return t.result(horizon, m.Classes), nil
}
