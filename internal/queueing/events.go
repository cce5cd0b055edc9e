package queueing

import (
	"fmt"
	"math"

	"stochsched/internal/des"
	"stochsched/internal/rng"
	"stochsched/internal/stats"
)

// The event loops (MG1.Simulate and SimulatePreemptive, the Klimov network
// under both criteria, M/M/m, the multi-station network and polling) share
// the pieces below. Each loop binds its event closures once per
// replication — one arrival closure per class through poisson, and one
// completion closure per class, or a single one where the loop holds the
// job in service — so firing an event allocates nothing (see package des).
// The order in which the loops draw from their streams and schedule events
// is what every simulation golden pins; a refactor must not move it.

// splitStreams derives the per-class arrival and service substreams off s,
// class by class: arrival j, then service j.
func splitStreams(s *rng.Stream, n int) (arr, svc []*rng.Stream) {
	buf := make([]rng.Stream, 2*n)
	s.SplitInto(buf)
	arr, svc = make([]*rng.Stream, n), make([]*rng.Stream, n)
	for j := range arr {
		arr[j], svc[j] = &buf[2*j], &buf[2*j+1]
	}
	return arr, svc
}

// rates returns the classes' Poisson arrival rates by index, for poisson.
func rates(cs []Class) func(int) float64 {
	return func(j int) float64 { return cs[j].ArrivalRate }
}

// poisson binds one self-rescheduling arrival closure per class of
// positive rate and schedules each class's first arrival, in class order.
// At every arrival onArrive(j) runs before the class's next arrival is
// drawn and scheduled.
func poisson(sim *des.Simulator, arr []*rng.Stream, rate func(int) float64, onArrive func(j int)) {
	for j, s := range arr {
		lam := rate(j)
		if !(lam > 0) {
			continue
		}
		var next func()
		next = func() {
			onArrive(j)
			sim.Schedule(s.Exp(lam), next)
		}
		sim.Schedule(s.Exp(lam), next)
	}
}

// tally is the per-class bookkeeping the loops share, measured over
// [burnin, horizon]: numbers in system and their time averages, delays
// before service, and departures.
type tally struct {
	sim    *des.Simulator
	burnin float64
	count  []int
	l      []stats.TimeWeighted
	wqSum  []float64
	wqN    []int64
	served []int64
}

func newTally(sim *des.Simulator, n int, burnin float64) *tally {
	return &tally{
		sim: sim, burnin: burnin,
		count: make([]int, n), l: make([]stats.TimeWeighted, n),
		wqSum: make([]float64, n), wqN: make([]int64, n), served: make([]int64, n),
	}
}

// add moves class j's number in system by delta; a negative delta is a
// departure.
func (t *tally) add(j, delta int) {
	t.count[j] += delta
	if now := t.sim.Now(); now >= t.burnin {
		t.l[j].Observe(now, float64(t.count[j]))
		if delta < 0 {
			t.served[j]++
		}
	}
}

// start records the delay of jb, which enters service now.
func (t *tally) start(jb job) {
	if now := t.sim.Now(); now >= t.burnin {
		t.wqSum[jb.class] += now - jb.arrival
		t.wqN[jb.class]++
	}
}

// snapshotAtBurnin schedules the observation of every class's count at
// burnin, where the time averages start.
func (t *tally) snapshotAtBurnin() {
	t.sim.At(t.burnin, func() {
		for j, c := range t.count {
			t.l[j].Observe(t.burnin, float64(c))
		}
	})
}

// averages returns the time-average numbers in system over [burnin, horizon].
func (t *tally) averages(horizon float64) []float64 {
	l := make([]float64, len(t.l))
	for j := range l {
		l[j] = t.l[j].Average(horizon)
	}
	return l
}

// result folds the tally into a SimResult, pricing the averages at the
// classes' holding costs.
func (t *tally) result(horizon float64, classes []Class) *SimResult {
	res := &SimResult{L: t.averages(horizon), Wq: make([]float64, len(classes)), Served: t.served}
	for j, c := range classes {
		if t.wqN[j] > 0 {
			res.Wq[j] = t.wqSum[j] / float64(t.wqN[j])
		}
		res.CostRate += c.HoldCost * res.L[j]
	}
	return res
}

// ranks inverts a priority order (class indices, highest first) into
// rank[class], rejecting an order that is not a permutation of the n
// classes.
func ranks(order []int, n int) ([]int, error) {
	if len(order) != n {
		return nil, fmt.Errorf("queueing: order length %d, want %d", len(order), n)
	}
	rank := make([]int, n)
	for j := range rank {
		rank[j] = -1
	}
	for r, cls := range order {
		if cls < 0 || cls >= n || rank[cls] >= 0 {
			return nil, fmt.Errorf("queueing: order %v is not a permutation of the %d classes", order, n)
		}
		rank[cls] = r
	}
	return rank, nil
}

// pick returns the index of the oldest waiting job of the lowest rank, so
// equal ranks are served in arrival order.
func pick(waiting []job, rank []int) int {
	best, bestRank := -1, math.MaxInt
	for i, jb := range waiting {
		if r := rank[jb.class]; r < bestRank {
			best, bestRank = i, r
		}
	}
	return best
}

// take removes and returns (*q)[i], keeping the rest in order in the same
// backing array.
func take(q *[]job, i int) job {
	jb := (*q)[i]
	*q = append((*q)[:i], (*q)[i+1:]...)
	return jb
}
