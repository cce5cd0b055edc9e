package queueing

import (
	"context"
	"fmt"
	"math"

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

// block is how many variates a class's substream draws at a time.
const block = 8

// variates hands out one class's interarrival or service times. The
// class's substream is private: nothing else draws from it, so drawing
// block values ahead leaves the k-th value handed out what the k-th single
// draw would have been, while the CPU overlaps a block's logarithms and
// divisions instead of waiting on each in turn. Exponential laws fill
// through rng.ExpFill, other laws by block calls to Sample. A drawn value
// is checked where it is scheduled, so one never handed out cannot panic.
type variates struct {
	buf  [block]float64
	i    int               // the next value in buf; block when it is spent
	rate float64           // exponential at this rate when law is nil
	law  dist.Distribution // otherwise
	s    rng.Stream
}

// draw returns the next variate.
func (v *variates) draw() float64 {
	if v.i == block {
		v.fill()
	}
	x := v.buf[v.i]
	v.i++
	return x
}

// fill draws the next block.
func (v *variates) fill() {
	if v.law == nil {
		v.s.ExpFill(v.rate, v.buf[:])
	} else {
		for k := range v.buf {
			v.buf[k] = v.law.Sample(&v.s)
		}
	}
	v.i = 0
}

// checkDelay returns d, panicking on a negative or NaN delay with the text
// des.Simulator.Schedule panics with.
func checkDelay(d float64) float64 {
	if d < 0 || math.IsNaN(d) {
		panic("des: negative or NaN delay")
	}
	return d
}

// holds indexes the classes' holding costs, for tally.result.
func holds(cs []Class) func(int) float64 {
	return func(j int) float64 { return cs[j].HoldCost }
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
	md := oneStation(m.Classes, 1, nil)
	e := md.bind(burnin, s)
	e.at(burnin, evBurnin, 0)
	q := &e.station[0].waiting
	var cur job                    // the job in service, when busy
	busy, live := false, uint64(0) // live: the seq of cur's completion
	for {
		ev, ok := e.pop(horizon)
		if !ok {
			break
		}
		e.now = ev.time
		j := int(ev.class)
		switch ev.kind {
		case evArrival:
			e.add(e.now, j, +1)
			*q = append(*q, job{class: j, arrival: e.now})
			if busy && rank[j] < rank[cur.class] {
				// Preempt: requeue the job in service, whose completion then
				// fires as a stale slot (memoryless services make resampling
				// on resumption exact).
				*q = append(*q, cur)
				busy = false
			}
		case evDone:
			if !busy || ev.seq != live {
				continue // revoked by a preemption
			}
			e.add(e.now, cur.class, -1)
			busy = false
		case evBurnin:
			e.snapshot()
		}
		if !busy && len(*q) > 0 {
			cur, busy, live = take(q, pick(*q, rank)), true, e.seq
			e.after(e.lanes[cur.class].service.draw(), evDone, cur.class)
		}
		// An arrival draws and schedules its class's next arrival after any
		// service it starts, in the order every golden pins.
		if ev.kind == evArrival {
			e.after(e.lanes[j].arrival.draw(), evArrival, j)
		}
	}
	res := e.result(horizon, holds(m.Classes))
	loops.Put(e)
	return res, nil
}
