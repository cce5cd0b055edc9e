package queueing

import (
	"fmt"
	"math"

	"stochsched/internal/des"
	"stochsched/internal/dist"
	"stochsched/internal/rng"
)

// Polling systems (Levy–Sidi 1990): one server cycles through queues,
// incurring a switchover (setup) time when moving between them. Classic
// service regimes:
//
//   - Exhaustive: serve the queue until it empties, then move on.
//   - Gated: serve only the jobs present at the server's arrival ("gate"),
//     then move on.
//   - Limited(k): serve at most k jobs per visit.
//
// Changeover costs are the survey's motivation for these models (and for
// Reiman–Wein's two-class setup analysis): the regimes trade switching
// overhead against delay — experiment E22.

// PollingRegime selects the per-visit service rule.
type PollingRegime int

const (
	// Exhaustive serves until the visited queue is empty.
	Exhaustive PollingRegime = iota
	// Gated serves exactly the jobs present on the server's arrival.
	Gated
	// Limited1 serves at most one job per visit.
	Limited1
)

// Polling is a cyclic polling system.
type Polling struct {
	Queues []Class
	Switch dist.Distribution // switchover time between consecutive queues
	Regime PollingRegime
}

// Validate checks rates and overall stability (ρ < 1 is necessary; with
// switchover times the true region is smaller for limited regimes, so
// simulations should watch their own divergence).
func (p *Polling) Validate() error {
	if len(p.Queues) < 2 {
		return fmt.Errorf("queueing: polling needs at least 2 queues")
	}
	if p.Switch == nil || p.Switch.Mean() <= 0 {
		// Zero switchover would make an idle server cycle in zero time,
		// which the event loop cannot advance past.
		return fmt.Errorf("queueing: polling needs a positive-mean switchover law")
	}
	rho := 0.0
	for i, c := range p.Queues {
		if c.ArrivalRate < 0 || c.Service == nil || c.Service.Mean() <= 0 {
			return fmt.Errorf("queueing: polling queue %d invalid", i)
		}
		rho += c.ArrivalRate * c.Service.Mean()
	}
	if rho >= 1 {
		return fmt.Errorf("queueing: polling load %v ≥ 1", rho)
	}
	return nil
}

// switchover draws one switchover time, panicking on a negative or NaN
// draw as Simulator.Schedule does: the idle walk in Simulate sums the draws
// itself rather than passing each to Schedule.
func switchover(law dist.Distribution, s *rng.Stream) float64 {
	return checkDelay(law.Sample(s))
}

// Simulate runs the polling system and returns per-queue mean delay and
// counts over [burnin, horizon].
func (p *Polling) Simulate(horizon, burnin float64, s *rng.Stream) (*SimResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := checkWindow(horizon, burnin); err != nil {
		return nil, err
	}
	n := len(p.Queues)
	sim := des.New()
	swStream := s.Split()
	e := desLoop(p.Queues, burnin, s)
	queues := make([][]job, n)
	t := &e.tally
	at := 0 // queue the server is at
	gate := 0

	var visit func(first bool)
	complete := func() {
		t.add(sim.Now(), at, -1)
		gate--
		visit(false)
	}
	reach := func() { // the switchover ends at the next queue
		at = (at + 1) % n
		visit(true)
	}
	visit = func(first bool) {
		if first {
			switch p.Regime {
			case Gated:
				gate = len(queues[at])
			case Limited1:
				gate = 1
			default:
				gate = -1 // exhaustive: no gate
			}
		}
		if len(queues[at]) > 0 && (gate != 0 || p.Regime == Exhaustive) {
			t.start(sim.Now(), take(&queues[at], 0))
			sim.Schedule(e.lanes[at].service.draw(), complete)
			return
		}
		end := sim.Now() + switchover(p.Switch, swStream)
		if t.inSystem == 0 {
			// Every queue is empty (no job is in service while the server
			// switches), so a switchover ending before the next pending
			// event — an arrival or the burn-in snapshot — reaches an
			// empty queue and starts the next switchover. Walk those in
			// place, drawing and adding as the reach events would, and
			// queue only the first that ends at or after that event: on a
			// tie the pending event, scheduled earlier, fires first. The
			// horizon ends the walk when nothing is pending.
			// (len(queues) rather than n keeps visit's closure within
			// the 128-byte size class it had before the walk.)
			stop := math.Min(sim.Next(), horizon)
			for end < stop {
				at = (at + 1) % len(queues)
				end += switchover(p.Switch, swStream)
			}
		}
		sim.At(end, reach)
	}
	poisson(sim, e.lanes, func(j int) {
		t.add(sim.Now(), j, +1)
		queues[j] = append(queues[j], job{class: j, arrival: sim.Now()})
	})
	sim.At(burnin, t.snapshot)
	sim.At(0, func() { visit(true) })
	sim.RunUntil(horizon)
	res := t.result(horizon, holds(p.Queues))
	loops.Put(e)
	return res, nil
}
