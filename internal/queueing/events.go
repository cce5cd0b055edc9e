package queueing

import (
	"fmt"
	"math"
	"sync"

	"stochsched/internal/dist"
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
// other directly. MG1.SimulatePreemptive, which requeues the job in
// service, and Polling.Simulate, whose one server walks the queues with
// switchovers, bind the same state and run their own switch on its agenda.
//
// The agenda holds the pending events as plain slots: one next arrival per
// class of positive rate, one completion per busy server, the burn-in
// snapshot and the trajectory sampler or, for polling, the switchover in
// progress. It fires the earliest by time, then by the order the events
// were scheduled in, the order package des fires its closures in, and the
// loop switches on the slot's kind, so an event costs a sift through a
// binary heap of slots and no indirect call. Each class draws its
// interarrival and service times a block at a time from its private
// substreams (see variates), and a replication's state comes from a pool
// (see loops). The order in which the loops draw from each stream and
// schedule events is what every simulation golden pins; a refactor must
// not move it.

// stationModel is a model as the station loop runs it: single-station
// classes (MG1, Klimov, M/M/m) or a network's classes.
type stationModel struct {
	single   []Class    // classes at station 0, leaving after service...
	routes   []Route    // ...or routed by Klimov's feedback: class j's row is routes[j*n:(j+1)*n]
	network  []NetClass // or a network's classes
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
	md := stationModel{single: cs, stations: 1, servers: servers, routed: feedback != nil}
	if feedback != nil {
		n := len(cs)
		md.routes = make([]Route, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				md.routes[i*n+j] = Route{To: j, Prob: feedback.At(i, j)}
			}
		}
	}
	return md
}

// classes returns the number of classes.
func (md *stationModel) classes() int { return len(md.single) + len(md.network) }

// class returns class j as a network class.
func (md *stationModel) class(j int) NetClass {
	if md.network != nil {
		return md.network[j]
	}
	c := &md.single[j]
	nc := NetClass{ArrivalRate: c.ArrivalRate, Service: c.Service, Next: -1, HoldCost: c.HoldCost}
	if md.routes != nil {
		n := len(md.single)
		nc.Routes = md.routes[j*n : (j+1)*n]
	}
	return nc
}

// station is one station's queue and idle servers.
type station struct {
	waiting []job // oldest first
	idle    int
}

// lane is one class in a replication: its Poisson interarrival and
// service times, and where its jobs go.
type lane struct {
	arrival, service variates
	station          int
	next             int // the class a served job becomes, -1 to leave, unless routes
	routes           []Route
	hold             float64
}

// split splits the class's arrival substream, then its service substream,
// off s, and binds them to Poisson arrivals at rate and to the service law.
func (l *lane) split(s *rng.Stream, rate float64, law dist.Distribution) {
	var sub [2]rng.Stream
	s.SplitInto(sub[:])
	l.arrival = variates{i: block, rate: rate, s: sub[0]}
	l.service = variates{i: block, law: law, s: sub[1]}
	if e, ok := law.(dist.Exponential); ok {
		l.service.law, l.service.rate = nil, e.Rate
	}
}

// Kinds of the station loop's events.
const (
	evArrival uint8 = iota // a class's next external arrival
	evDone                 // a class's service completes
	evBurnin               // the burn-in snapshot
	evSample               // the trajectory sampler
	evReach                // polling: the switchover ends at the class's queue
)

// slot is one pending event of the station loop.
type slot struct {
	time  float64
	seq   uint64 // scheduling order, as des numbers its events
	class int32
	kind  uint8
}

func (e *slot) before(o *slot) bool {
	return e.time < o.time || (e.time == o.time && e.seq < o.seq)
}

// agenda holds the station loop's pending events as a binary min-heap on
// (time, seq) and fires them in des's order: by time, and simultaneous
// events in the order they were scheduled. A fired event stays at the root
// while the loop handles it, and the first event the handling schedules
// takes its place: one sift down instead of a pop's and a push's. The next
// pop frees the root if nothing took it. Any later event the handling
// schedules sorts after the fired one (its time is no earlier, its seq
// later), so it never sifts up into the root.
type agenda struct {
	slots []slot
	seq   uint64
	fired bool // slots[0] has fired and is free
}

// at schedules an event of the kind, for the class, at time t.
func (a *agenda) at(t float64, kind uint8, class int) {
	ev := slot{time: t, seq: a.seq, class: int32(class), kind: kind}
	a.seq++
	if a.fired {
		a.fired = false
		a.down(ev)
		return
	}
	a.slots = append(a.slots, ev)
	q := a.slots
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
}

// down puts ev at the root and sifts it down the heap.
func (a *agenda) down(ev slot) {
	q := a.slots
	i := 0
	for {
		c := 2*i + 1
		if c >= len(q) {
			break
		}
		if r := c + 1; r < len(q) && q[r].before(&q[c]) {
			c = r
		}
		if !q[c].before(&ev) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = ev
}

// pop frees the root if it has fired and nothing took its place, then
// fires the earliest pending event if it falls at or before horizon: it
// returns the event and leaves it at the root.
func (a *agenda) pop(horizon float64) (slot, bool) {
	if a.fired {
		a.fired = false
		last := len(a.slots) - 1
		ev := a.slots[last]
		a.slots = a.slots[:last]
		if last > 0 {
			a.down(ev)
		}
	}
	q := a.slots
	if len(q) == 0 || q[0].time > horizon {
		return slot{}, false
	}
	a.fired = true
	return q[0], true
}

// next returns the time of the earliest pending event, or +Inf when none
// is. A fired root is not pending: the earliest other event is then one of
// its two children, until the handling schedules something.
func (a *agenda) next() float64 {
	t, from := math.Inf(1), 0
	if a.fired {
		from = 1
	}
	for i := from; i < len(a.slots) && i <= 2*from; i++ { // the root, or its children
		t = min(t, a.slots[i].time)
	}
	return t
}

// loop is one replication of the station loop.
type loop struct {
	tally
	agenda
	now     float64
	ranks   [][]int
	weights []float64
	choice  rng.Stream // draws among several priority orders
	route   rng.Stream // routing draws
	lanes   []lane
	station []station

	sampleEvery float64 // run's trajectory sampler
	trajectory  []float64
}

// loops recycles replication state. A run takes a loop through newLoop,
// which resets every field, and puts it back once its result is out, so a
// replication allocates little beyond its result: the queues, slots and
// per-class arrays keep their backing arrays from run to run, and nothing
// else crosses from one run to the next. Fresh state would cost a
// two-class replication about 1.7 KB in 17 allocations, most of it the
// class draws' buffers and streams. The polling and preemptive loops bind
// theirs from it too.
var loops = sync.Pool{New: func() any { return new(loop) }}

// reuse returns s resized to n zero values, on its own backing array when
// that is large enough.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// newLoop returns a recycled loop for n classes with a fresh tally measured
// from burnin and nothing scheduled. Its lanes are zero until split.
func newLoop(n int, burnin float64) *loop {
	e := loops.Get().(*loop)
	*e = loop{
		tally: tally{
			burnin: burnin,
			count:  reuse(e.count, n), l: reuse(e.l, n), wqSum: reuse(e.wqSum, n), wqN: reuse(e.wqN, n),
			served: make([]int64, n), // the result keeps it
			hold:   e.hold,
		},
		agenda:  agenda{slots: e.slots[:0]},
		lanes:   reuse(e.lanes, n),
		station: e.station,
	}
	return e
}

// bind sets one replication up on a recycled loop. It splits the
// mixture's choice stream, then the routing stream, off s ahead of the
// class streams, then each class's arrival and service streams in class
// order, and schedules each class's first arrival in class order.
func (md *stationModel) bind(burnin float64, s *rng.Stream) *loop {
	e := newLoop(md.classes(), burnin)
	e.ranks, e.weights = md.ranks, md.weights
	if len(md.ranks) > 1 {
		e.choice = *s.Split()
	}
	if md.routed {
		e.route = *s.Split()
	}
	if cap(e.station) < md.stations {
		e.station = make([]station, md.stations)
	}
	e.station = e.station[:md.stations]
	for st := range e.station {
		e.station[st] = station{waiting: e.station[st].waiting[:0], idle: md.servers}
	}
	for j := range e.lanes {
		c, l := md.class(j), &e.lanes[j]
		l.split(s, c.ArrivalRate, c.Service)
		l.station, l.next, l.routes, l.hold = c.Station, c.Next, c.Routes, c.HoldCost
		if c.ArrivalRate > 0 {
			e.after(l.arrival.draw(), evArrival, j)
		}
	}
	return e
}

// run simulates one replication on [0, horizon], measured over
// [burnin, horizon]. With sampleEvery > 0 it also records the number in
// system at that interval over the whole run, burn-in included.
func (md *stationModel) run(horizon, burnin, sampleEvery float64, s *rng.Stream) *SimResult {
	e := md.bind(burnin, s)
	e.at(burnin, evBurnin, 0)
	if sampleEvery > 0 {
		e.sampleEvery = sampleEvery
		e.at(0, evSample, 0)
	}
	e.runUntil(horizon)
	res := e.result(horizon, func(j int) float64 { return e.lanes[j].hold })
	res.Trajectory = e.trajectory
	loops.Put(e)
	return res
}

// discounted simulates one replication on [0, horizon] from an empty
// start and returns its total discounted holding cost at the given rate.
func (md *stationModel) discounted(rate, horizon float64, s *rng.Stream) float64 {
	e := md.bind(0, s)
	e.rate, e.hold = rate, reuse(e.hold, len(e.lanes))
	for j := range e.lanes {
		e.hold[j] = e.lanes[j].hold
	}
	e.runUntil(horizon)
	e.accrue(e.now)
	total := e.total
	loops.Put(e)
	return total
}

// runUntil fires the pending events in order until none is left at or
// before horizon, and leaves the clock at horizon. An arrival serves its
// job, which may schedule a completion, before the class's next arrival is
// drawn and scheduled.
func (e *loop) runUntil(horizon float64) {
	for {
		ev, ok := e.pop(horizon)
		if !ok {
			break
		}
		e.now = ev.time
		j := int(ev.class)
		switch ev.kind {
		case evArrival:
			e.arrive(j)
			e.after(e.lanes[j].arrival.draw(), evArrival, j)
		case evDone:
			e.complete(j)
		case evBurnin:
			e.snapshot()
		case evSample:
			e.trajectory = append(e.trajectory, float64(e.inSystem))
			if e.now+e.sampleEvery <= horizon {
				e.after(e.sampleEvery, evSample, 0)
			}
		}
	}
	e.now = horizon
}

// after schedules an event delay from now, panicking on a negative or NaN
// delay as des.Simulator.Schedule does.
func (e *loop) after(delay float64, kind uint8, class int) {
	e.at(e.now+checkDelay(delay), kind, class)
}

// arrive queues a job of class j, arriving now, and serves its station.
func (e *loop) arrive(j int) {
	e.add(e.now, j, +1)
	at := &e.station[e.lanes[j].station]
	at.waiting = append(at.waiting, job{class: j, arrival: e.now})
	e.serve(at)
}

// complete ends a class-j service: it frees a server, and the job becomes
// class next, or draws where it goes when the class has routes, or leaves
// (-1); then the station serves again.
func (e *loop) complete(j int) {
	l := &e.lanes[j]
	at := &e.station[l.station]
	at.idle++
	e.add(e.now, j, -1)
	next := l.next
	if len(l.routes) > 0 {
		next = e.draw(l.routes)
	}
	if next >= 0 {
		e.arrive(next)
	}
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
		e.start(e.now, jb)
		e.after(e.lanes[jb.class].service.draw(), evDone, jb.class)
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
// 0 <= burnin < horizon < +Inf, NaN included: an infinite horizon would
// never end a run with arrivals.
func checkWindow(horizon, burnin float64) error {
	if !(0 <= burnin && burnin < horizon && horizon < math.Inf(1)) {
		return fmt.Errorf("queueing: need 0 <= burnin < horizon < +Inf")
	}
	return nil
}

// tally is the per-class bookkeeping the loops share, measured over
// [burnin, horizon]: numbers in system and their time averages, delays
// before service, and departures. With rate > 0 it also prices the whole
// run at the holding costs hold: total holds ∫₀^lastT e^{−rate·t}
// Σ_j c_j n_j(t) dt, and costRate the current Σ_j c_j n_j. Each loop
// passes its clock as now.
type tally struct {
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

// add moves class j's number in system by delta; a negative delta is a
// departure. A priced run first accrues its cost up to now.
func (t *tally) add(now float64, j, delta int) {
	if t.rate > 0 {
		t.accrue(now)
		t.costRate += float64(delta) * t.hold[j]
	}
	t.count[j] += delta
	t.inSystem += delta
	if now >= t.burnin {
		t.l[j].Observe(now, float64(t.count[j]))
		if delta < 0 {
			t.served[j]++
		}
	}
}

// accrue integrates e^{−rate·t}·costRate over [lastT, now], exactly: the
// counts are constant between events.
func (t *tally) accrue(now float64) {
	if now > t.lastT && t.costRate != 0 {
		r := t.rate
		t.total += t.costRate * (math.Exp(-r*t.lastT) - math.Exp(-r*now)) / r
	}
	t.lastT = now
}

// start records the delay of jb, which enters service now.
func (t *tally) start(now float64, jb job) {
	if now >= t.burnin {
		t.wqSum[jb.class] += now - jb.arrival
		t.wqN[jb.class]++
	}
}

// snapshot observes every class's count at burnin, where the time averages
// start. The loops fire it as an event at burnin.
func (t *tally) snapshot() {
	for j, c := range t.count {
		t.l[j].Observe(t.burnin, float64(c))
	}
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
