package queueing

import (
	"fmt"
	"math"

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
	if p.Switch == nil || !(p.Switch.Mean() > 0) {
		// Zero switchover would make an idle server cycle in zero time,
		// which the event loop cannot advance past.
		return fmt.Errorf("queueing: polling needs a positive-mean switchover law")
	}
	if err := checkClasses(p.Queues); err != nil {
		return err
	}
	rho := 0.0
	for _, c := range p.Queues {
		rho += c.ArrivalRate * c.Service.Mean()
	}
	if !(rho < 1) {
		return fmt.Errorf("queueing: polling load %v ≥ 1", rho)
	}
	return nil
}

// switchover draws one switchover time, panicking on a negative or NaN
// draw as a scheduled delay does: the idle walk in Simulate sums the draws
// itself rather than scheduling each.
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
	var sw [1]rng.Stream
	s.SplitInto(sw[:]) // the switchover stream, ahead of the class streams
	md := oneStation(p.Queues, 1, nil)
	md.stations = n // station j holds queue j's jobs
	e := md.bind(burnin, s)
	e.sw = sw[0] // kept in the recycled loop: Sample would move a stream of its own to the heap
	e.at(burnin, evBurnin, 0)
	e.at(0, evReach, 0) // the first visit
	at, gate := 0, 0    // the queue the server is at, and how many more it may serve there
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
			e.station[j].waiting = append(e.station[j].waiting, job{class: j, arrival: e.now})
			e.after(e.lanes[j].arrival.draw(), evArrival, j)
			continue
		case evBurnin:
			e.snapshot()
			continue
		case evDone:
			e.add(e.now, at, -1)
			gate--
		case evReach:
			at = j
			switch p.Regime {
			case Gated:
				gate = len(e.station[at].waiting)
			case Limited1:
				gate = 1
			default:
				gate = -1 // exhaustive: no gate
			}
		}
		// Serve the next job here if the regime allows, else switch over.
		if q := &e.station[at].waiting; len(*q) > 0 && (gate != 0 || p.Regime == Exhaustive) {
			e.start(e.now, take(q, 0))
			e.after(e.lanes[at].service.draw(), evDone, at)
			continue
		}
		end := e.now + switchover(p.Switch, &e.sw)
		if e.inSystem == 0 {
			// Every queue is empty (no job is in service while the server
			// switches), so a switchover ending before the next pending
			// event — an arrival or the burn-in snapshot — reaches an
			// empty queue and starts the next switchover. Walk those in
			// place, drawing and adding as the reach events would, and
			// queue only the first that ends at or after that event: on a
			// tie the pending event, scheduled earlier, fires first. The
			// horizon ends the walk when nothing is pending. Nothing is
			// scheduled yet, so next sees past the event being handled.
			stop := math.Min(e.next(), horizon)
			for end < stop {
				at = (at + 1) % n
				end += switchover(p.Switch, &e.sw)
			}
		}
		e.at(end, evReach, (at+1)%n)
	}
	res := e.result(horizon, holds(p.Queues))
	loops.Put(e)
	return res, nil
}
