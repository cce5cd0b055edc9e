package queueing

import (
	"fmt"
	"math"

	"stochsched/internal/des"
	"stochsched/internal/linalg"
	"stochsched/internal/rng"
	"stochsched/internal/stats"
)

// The station loop below is the one event loop behind MG1.Simulate,
// KlimovNetwork.Simulate and SimulateDiscounted, MMm.Simulate and
// Network.Simulate: Poisson arrivals per class, stations of identical
// servers that each take the oldest waiting job of the lowest rank, and
// completed jobs routed on (by Next, by Routes, or by Klimov's feedback
// written as Routes) or out. Its state is one struct: the rule, the routes
// and the counts are plain data, and arrive, serve and the tally call each
// other directly. SimulatePreemptive keeps its own loop, since it cancels
// and requeues the job in service, and so does Polling.Simulate, whose one
// server walks the queues with switchovers.
//
// Every loop binds its event closures once per replication, so firing an
// event allocates nothing (see package des). The order in which the loops
// draw from their streams and schedule events is what every simulation
// golden pins; a refactor must not move it.

// stationModel is a model as the station loop runs it.
type stationModel struct {
	classes  []NetClass
	stations int
	servers  int       // identical servers at every station
	ranks    [][]int   // rank[class] of each priority order, lower served first; none: FIFO
	weights  []float64 // with several orders, each one's weight at a service start
	routed   bool      // split a routing stream off ahead of the class streams
}

// oneStation writes single-station classes for the station loop. Without
// feedback every job leaves after service. Klimov's feedback becomes a full
// row of Routes per class, zeros included, so every completion draws its
// routing uniform.
func oneStation(cs []Class, servers int, feedback *linalg.Matrix) stationModel {
	n := len(cs)
	md := stationModel{classes: make([]NetClass, n), stations: 1, servers: servers, routed: feedback != nil}
	var routes []Route
	if feedback != nil {
		routes = make([]Route, n*n)
	}
	for i, c := range cs {
		md.classes[i] = NetClass{ArrivalRate: c.ArrivalRate, Service: c.Service, Next: -1, HoldCost: c.HoldCost}
		if feedback != nil {
			row := routes[i*n : (i+1)*n]
			for j := range row {
				row[j] = Route{To: j, Prob: feedback.At(i, j)}
			}
			md.classes[i].Routes = row
		}
	}
	return md
}

// station is one station's queue and idle servers.
type station struct {
	waiting []job // oldest first
	idle    int
}

// loop is one replication of the station loop.
type loop struct {
	stationModel
	tally
	choice  *rng.Stream   // draws among several priority orders
	route   *rng.Stream   // routing draws
	svc     []*rng.Stream // service substream per class
	station []station     // per station
	done    []func()      // completion event per class
}

// bind sets one replication up on a fresh simulator. It splits the
// mixture's choice stream, then the routing stream, off s ahead of the
// class streams, binds one completion closure per class, and schedules
// each class's first arrival through poisson.
func (md stationModel) bind(burnin float64, s *rng.Stream) *loop {
	n := len(md.classes)
	sim := des.New()
	e := &loop{stationModel: md, tally: newTally(sim, n, burnin)}
	if len(md.ranks) > 1 {
		e.choice = s.Split()
	}
	if md.routed {
		e.route = s.Split()
	}
	var arr []*rng.Stream
	arr, e.svc = splitStreams(s, n)
	e.station = make([]station, md.stations)
	for st := range e.station {
		e.station[st].idle = md.servers
	}
	// A class-j completion frees a server; the job becomes class Next, or
	// draws where it goes when the class has Routes, or leaves (-1); then
	// the station serves again.
	e.done = make([]func(), n)
	for j := range e.done {
		c, at := &e.classes[j], &e.station[e.classes[j].Station]
		e.done[j] = func() {
			at.idle++
			e.add(j, -1)
			next := c.Next
			if len(c.Routes) > 0 {
				next = e.draw(c.Routes)
			}
			if next >= 0 {
				e.arrive(next)
			}
			e.serve(at)
		}
	}
	poisson(sim, arr, func(j int) float64 { return e.classes[j].ArrivalRate }, e.arrive)
	return e
}

// run simulates one replication on [0, horizon], measured over
// [burnin, horizon]. With sampleEvery > 0 it also records the number in
// system at that interval over the whole run, burn-in included.
func (md stationModel) run(horizon, burnin, sampleEvery float64, s *rng.Stream) *SimResult {
	e := md.bind(burnin, s)
	e.snapshotAtBurnin()
	var trajectory []float64
	if sampleEvery > 0 {
		var sample func()
		sample = func() {
			trajectory = append(trajectory, float64(e.inSystem))
			if e.sim.Now()+sampleEvery <= horizon {
				e.sim.Schedule(sampleEvery, sample)
			}
		}
		e.sim.At(0, sample)
	}
	e.sim.RunUntil(horizon)
	res := e.result(horizon, func(j int) float64 { return e.classes[j].HoldCost })
	res.Trajectory = trajectory
	return res
}

// discounted simulates one replication on [0, horizon] from an empty
// start and returns its total discounted holding cost at the given rate.
func (md stationModel) discounted(rate, horizon float64, s *rng.Stream) float64 {
	e := md.bind(0, s)
	e.rate, e.hold = rate, make([]float64, len(md.classes))
	for j, c := range md.classes {
		e.hold[j] = c.HoldCost
	}
	e.sim.RunUntil(horizon)
	e.accrue()
	return e.total
}

// arrive queues a job of class j, arriving now, and serves its station.
func (e *loop) arrive(j int) {
	e.add(j, +1)
	at := &e.station[e.classes[j].Station]
	at.waiting = append(at.waiting, job{class: j, arrival: e.sim.Now()})
	e.serve(at)
}

// serve starts waiting jobs at the station while it has an idle server:
// the oldest job, or under a priority rule the oldest of the lowest rank
// (of an order drawn by weight, when there are several).
func (e *loop) serve(at *station) {
	for at.idle > 0 && len(at.waiting) > 0 {
		i := 0 // FIFO
		if len(e.ranks) == 1 {
			i = pick(at.waiting, e.ranks[0])
		} else if len(e.ranks) > 1 {
			i = pick(at.waiting, e.ranks[e.choice.Categorical(e.weights)])
		}
		jb := take(&at.waiting, i)
		at.idle--
		e.start(jb)
		e.sim.Schedule(e.classes[jb.class].Service.Sample(e.svc[jb.class]), e.done[jb.class])
	}
}

// draw picks where a routed job goes: routes[i].To with probability
// routes[i].Prob, or -1, leaving, with the deficit.
func (e *loop) draw(routes []Route) int {
	u, acc := e.route.Float64(), 0.0
	for _, rt := range routes {
		acc += rt.Prob
		if u < acc {
			return rt.To
		}
	}
	return -1
}

// checkWindow rejects an observation window that is not
// 0 <= burnin < horizon.
func checkWindow(horizon, burnin float64) error {
	if horizon <= burnin || burnin < 0 {
		return fmt.Errorf("queueing: need 0 <= burnin < horizon")
	}
	return nil
}

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

// rates and holds index the classes' Poisson arrival rates and holding
// costs, for poisson and tally.result.
func rates(cs []Class) func(int) float64 {
	return func(j int) float64 { return cs[j].ArrivalRate }
}

func holds(cs []Class) func(int) float64 {
	return func(j int) float64 { return cs[j].HoldCost }
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
// before service, and departures. With rate > 0 it also prices the whole
// run at the holding costs hold: total holds ∫₀^lastT e^{−rate·t}
// Σ_j c_j n_j(t) dt, and costRate the current Σ_j c_j n_j.
type tally struct {
	sim      *des.Simulator
	burnin   float64
	count    []int
	inSystem int // the sum of count
	l        []stats.TimeWeighted
	wqSum    []float64
	wqN      []int64
	served   []int64

	rate, lastT, costRate, total float64
	hold                         []float64
}

func newTally(sim *des.Simulator, n int, burnin float64) tally {
	return tally{
		sim: sim, burnin: burnin,
		count: make([]int, n), l: make([]stats.TimeWeighted, n),
		wqSum: make([]float64, n), wqN: make([]int64, n), served: make([]int64, n),
	}
}

// add moves class j's number in system by delta; a negative delta is a
// departure. A priced run first accrues its cost up to now.
func (t *tally) add(j, delta int) {
	if t.rate > 0 {
		t.accrue()
		t.costRate += float64(delta) * t.hold[j]
	}
	t.count[j] += delta
	t.inSystem += delta
	if now := t.sim.Now(); now >= t.burnin {
		t.l[j].Observe(now, float64(t.count[j]))
		if delta < 0 {
			t.served[j]++
		}
	}
}

// accrue integrates e^{−rate·t}·costRate over [lastT, now], exactly: the
// counts are constant between events.
func (t *tally) accrue() {
	now := t.sim.Now()
	if now > t.lastT && t.costRate != 0 {
		r := t.rate
		t.total += t.costRate * (math.Exp(-r*t.lastT) - math.Exp(-r*now)) / r
	}
	t.lastT = now
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

// result folds the tally into a SimResult, pricing the time averages over
// [burnin, horizon] at the holding costs hold(j).
func (t *tally) result(horizon float64, hold func(int) float64) *SimResult {
	res := &SimResult{L: make([]float64, len(t.l)), Wq: make([]float64, len(t.l)), Served: t.served}
	for j := range res.L {
		res.L[j] = t.l[j].Average(horizon)
		if t.wqN[j] > 0 {
			res.Wq[j] = t.wqSum[j] / float64(t.wqN[j])
		}
		res.CostRate += hold(j) * res.L[j]
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
