package queueing

import (
	"fmt"
	"math"
	"testing"
	"time"

	"stochsched/internal/des"
	"stochsched/internal/dist"
	"stochsched/internal/linalg"
	"stochsched/internal/rng"
	"stochsched/internal/stats"
)

// The loops below are the per-model event loops the station loop replaced,
// kept as they were but for MG1's discipline, which is a func choosing
// among the waiting jobs as FIFO, StaticPriority and RandomMix did. They
// run on package des and draw every variate one at a time, through
// singlePoisson and direct Sample calls, so TestStationLoopMatchesModelLoops
// holds every entry point of the station loop, its agenda and its block
// draws to them bit for bit.

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

// newTally is a fresh tally for the reference loops, which allocate theirs
// as the loops did before replication state was recycled.
func newTally(n int, burnin float64) tally {
	return tally{
		burnin: burnin,
		count:  make([]int, n), l: make([]stats.TimeWeighted, n),
		wqSum: make([]float64, n), wqN: make([]int64, n), served: make([]int64, n),
	}
}

// rates indexes the classes' Poisson arrival rates, for singlePoisson.
func rates(cs []Class) func(int) float64 {
	return func(j int) float64 { return cs[j].ArrivalRate }
}

// singlePoisson is poisson as it was before block draws: one
// self-rescheduling arrival closure per class of positive rate, each
// drawing its interarrival times one Exp call at a time.
func singlePoisson(sim *des.Simulator, arr []*rng.Stream, rate func(int) float64, onArrive func(j int)) {
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

// refStatic chooses the oldest job of the first class in order present.
func refStatic(order []int) func([]job) int {
	return func(waiting []job) int {
		for _, cls := range order {
			for i, jb := range waiting {
				if jb.class == cls {
					return i
				}
			}
		}
		return -1
	}
}

// refMG1 is MG1.Simulate with its own single-server loop. A mixture draws
// its order from a stream split off s ahead of the class streams, as
// MG1.Replicate gave each replication.
func refMG1(m *MG1, orders [][]int, weights []float64, horizon, burnin float64, s *rng.Stream) (*SimResult, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if horizon <= burnin || burnin < 0 {
		return nil, fmt.Errorf("queueing: need 0 <= burnin < horizon < +Inf")
	}
	n := len(m.Classes)
	for _, o := range orders {
		if _, err := ranks(o, n); err != nil {
			return nil, err
		}
	}
	next := func([]job) int { return 0 }
	switch len(orders) {
	case 1:
		next = refStatic(orders[0])
	case 2:
		choose, inner := s.Split(), []func([]job) int{refStatic(orders[0]), refStatic(orders[1])}
		next = func(w []job) int { return inner[choose.Categorical(weights)](w) }
	}
	sim := des.New()
	arr, svc := splitStreams(s, n)
	t := newTally(n, burnin)
	var waiting []job
	var cur job // the job in service
	inService := false

	var startService, complete func()
	startService = func() {
		if inService || len(waiting) == 0 {
			return
		}
		cur = take(&waiting, next(waiting))
		inService = true
		t.start(sim.Now(), cur)
		sim.Schedule(m.Classes[cur.class].Service.Sample(svc[cur.class]), complete)
	}
	complete = func() {
		inService = false
		t.add(sim.Now(), cur.class, -1)
		startService()
	}
	singlePoisson(sim, arr, rates(m.Classes), func(j int) {
		t.add(sim.Now(), j, +1)
		waiting = append(waiting, job{class: j, arrival: sim.Now()})
		startService()
	})
	sim.At(burnin, t.snapshot)
	sim.RunUntil(horizon)
	return t.result(horizon, holds(m.Classes)), nil
}

// refKlimovBind is the feedback network's own loop: every change of a
// class's number in system is reported to add(j, ±1).
func refKlimovBind(k *KlimovNetwork, sim *des.Simulator, rank []int, s *rng.Stream, add func(j, delta int)) {
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
	singlePoisson(sim, arr, rates(k.Classes), func(j int) {
		add(j, +1)
		waiting = append(waiting, job{class: j, arrival: sim.Now()})
		startService()
	})
}

// refKlimov is KlimovNetwork.Simulate on refKlimovBind.
func refKlimov(k *KlimovNetwork, order []int, horizon, burnin float64, s *rng.Stream) (*SimResult, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	if horizon <= burnin || burnin < 0 {
		return nil, fmt.Errorf("queueing: need 0 <= burnin < horizon < +Inf")
	}
	rank, err := ranks(order, len(k.Classes))
	if err != nil {
		return nil, err
	}
	sim := des.New()
	t := newTally(len(k.Classes), burnin)
	refKlimovBind(k, sim, rank, s, func(j, delta int) { t.add(sim.Now(), j, delta) })
	sim.At(burnin, t.snapshot)
	sim.RunUntil(horizon)
	return t.result(horizon, holds(k.Classes)), nil
}

// refKlimovDiscounted is KlimovNetwork.SimulateDiscounted on refKlimovBind.
func refKlimovDiscounted(k *KlimovNetwork, order []int, discountRate, horizon float64, s *rng.Stream) (float64, error) {
	if err := k.Validate(); err != nil {
		return 0, err
	}
	if discountRate <= 0 || horizon <= 0 {
		return 0, fmt.Errorf("queueing: need a positive finite discount rate and horizon")
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
	refKlimovBind(k, sim, rank, s, func(j, delta int) {
		accrue()
		costRate += float64(delta) * k.Classes[j].HoldCost
	})
	sim.RunUntil(horizon)
	accrue()
	return total, nil
}

// refMMm is MMm.Simulate with its own loop, FIFO (all ranks equal) for a
// nil order.
func refMMm(m *MMm, order []int, horizon, burnin float64, s *rng.Stream) (*SimResult, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if horizon <= burnin || burnin < 0 {
		return nil, fmt.Errorf("queueing: need 0 <= burnin < horizon < +Inf")
	}
	n := len(m.Classes)
	rank := make([]int, n)
	if order != nil {
		var err error
		if rank, err = ranks(order, n); err != nil {
			return nil, err
		}
	}
	sim := des.New()
	arr, svc := splitStreams(s, n)
	t := newTally(n, burnin)
	var waiting []job
	freeServers := m.Servers

	var dispatch func()
	done := make([]func(), n) // one completion closure per class
	for j := range done {
		done[j] = func() {
			freeServers++
			t.add(sim.Now(), j, -1)
			dispatch()
		}
	}
	dispatch = func() {
		for freeServers > 0 && len(waiting) > 0 {
			jb := take(&waiting, pick(waiting, rank))
			freeServers--
			sim.Schedule(m.Classes[jb.class].Service.Sample(svc[jb.class]), done[jb.class])
		}
	}
	singlePoisson(sim, arr, rates(m.Classes), func(j int) {
		t.add(sim.Now(), j, +1)
		waiting = append(waiting, job{class: j, arrival: sim.Now()})
		dispatch()
	})
	sim.At(burnin, t.snapshot)
	sim.RunUntil(horizon)
	return t.result(horizon, holds(m.Classes)), nil
}

// refNetwork is Network.Simulate with its own loop and job counter. Its
// result holds no delays.
func refNetwork(nw *Network, pol *NetworkPolicy, horizon, burnin, sampleEvery float64, s *rng.Stream) (*SimResult, error) {
	if err := nw.Validate(); err != nil {
		return nil, err
	}
	if horizon <= burnin || burnin < 0 {
		return nil, fmt.Errorf("queueing: need 0 <= burnin < horizon < +Inf")
	}
	if len(pol.StationOrder) != nw.Stations {
		return nil, fmt.Errorf("queueing: policy covers %d stations, want %d", len(pol.StationOrder), nw.Stations)
	}
	n := len(nw.Classes)
	rank := make([]int, n)
	for i := range rank {
		rank[i] = math.MaxInt32
	}
	for st := range pol.StationOrder {
		for r, cls := range pol.StationOrder[st] {
			if cls < 0 || cls >= n || nw.Classes[cls].Station != st {
				return nil, fmt.Errorf("queueing: station %d order contains foreign class %d", st, cls)
			}
			rank[cls] = r
		}
	}

	sim := des.New()
	routeStream := s.Split()
	arr, svc := splitStreams(s, n)
	// nextClass resolves routing for a completed job of class cls.
	nextClass := func(cls int) int {
		c := &nw.Classes[cls]
		if len(c.Routes) == 0 {
			return c.Next
		}
		u := routeStream.Float64()
		acc := 0.0
		for _, rt := range c.Routes {
			acc += rt.Prob
			if u < acc {
				return rt.To
			}
		}
		return -1 // deficit: exit
	}

	waiting := make([][]job, nw.Stations)
	busy := make([]bool, nw.Stations)
	t := newTally(n, burnin)
	totalJobs := 0
	var trajectory []float64

	var enqueue func(cls int)
	var startService func(st int)
	done := make([]func(), n) // one completion closure per class
	for cls := range done {
		st := nw.Classes[cls].Station
		done[cls] = func() {
			busy[st] = false
			t.add(sim.Now(), cls, -1)
			if next := nextClass(cls); next == -1 {
				totalJobs--
			} else {
				enqueue(next)
			}
			startService(st)
		}
	}
	startService = func(st int) {
		if busy[st] || len(waiting[st]) == 0 {
			return
		}
		jb := take(&waiting[st], pick(waiting[st], rank))
		busy[st] = true
		sim.Schedule(nw.Classes[jb.class].Service.Sample(svc[jb.class]), done[jb.class])
	}
	enqueue = func(cls int) {
		t.add(sim.Now(), cls, +1)
		st := nw.Classes[cls].Station
		waiting[st] = append(waiting[st], job{class: cls, arrival: sim.Now()})
		startService(st)
	}
	singlePoisson(sim, arr, func(j int) float64 { return nw.Classes[j].ArrivalRate }, func(cls int) {
		totalJobs++
		enqueue(cls)
	})
	sim.At(burnin, t.snapshot)
	if sampleEvery > 0 {
		var sample func()
		sample = func() {
			trajectory = append(trajectory, float64(totalJobs))
			if sim.Now()+sampleEvery <= horizon {
				sim.Schedule(sampleEvery, sample)
			}
		}
		sim.At(0, sample)
	}
	sim.RunUntil(horizon)

	res := &SimResult{L: make([]float64, n), Served: t.served, Trajectory: trajectory}
	for j := 0; j < n; j++ {
		res.L[j] = t.l[j].Average(horizon)
		res.CostRate += nw.Classes[j].HoldCost * res.L[j]
	}
	return res, nil
}

// refPreemptive is MG1.SimulatePreemptive on des, as it ran before the
// agenda: a preemption cancels the completion of the job in service through
// its des.Handle. It also returns the number of preemptions.
func refPreemptive(m *MG1, order []int, horizon, burnin float64, s *rng.Stream) (*SimResult, int, error) {
	if err := m.Validate(); err != nil {
		return nil, 0, err
	}
	for j, c := range m.Classes {
		if _, ok := c.Service.(dist.Exponential); !ok {
			return nil, 0, fmt.Errorf("queueing: preemptive simulator requires exponential services (class %d is %v)", j, c.Service)
		}
	}
	if horizon <= burnin || burnin < 0 {
		return nil, 0, fmt.Errorf("queueing: need 0 <= burnin < horizon < +Inf")
	}
	n := len(m.Classes)
	rank, err := ranks(order, n)
	if err != nil {
		return nil, 0, err
	}
	sim := des.New()
	arr, svc := splitStreams(s, n)
	t := newTally(n, burnin)
	var waiting []job
	var cur job // the job in service
	inService, preemptions := false, 0
	var completion des.Handle

	var dispatch, complete func()
	dispatch = func() {
		if inService || len(waiting) == 0 {
			return
		}
		cur = take(&waiting, pick(waiting, rank))
		inService = true
		completion = sim.Schedule(m.Classes[cur.class].Service.Sample(svc[cur.class]), complete)
	}
	complete = func() {
		t.add(sim.Now(), cur.class, -1)
		inService = false
		dispatch()
	}
	singlePoisson(sim, arr, rates(m.Classes), func(j int) {
		t.add(sim.Now(), j, +1)
		waiting = append(waiting, job{class: j, arrival: sim.Now()})
		if inService && rank[j] < rank[cur.class] {
			completion.Cancel()
			waiting = append(waiting, cur)
			inService = false
			preemptions++
		}
		dispatch()
	})
	sim.At(burnin, t.snapshot)
	sim.RunUntil(horizon)
	return t.result(horizon, holds(m.Classes)), preemptions, nil
}

// sameRun reports the first way two runs differ, errors by their text and
// results bit for bit (delays only when withWq), or "" when they agree.
func sameRun(got *SimResult, gotErr error, want *SimResult, wantErr error, withWq bool) string {
	if gotErr != nil || wantErr != nil {
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			return fmt.Sprintf("error %v, want %v", gotErr, wantErr)
		}
		return ""
	}
	bits := func(name string, a, b []float64) string {
		if len(a) != len(b) {
			return fmt.Sprintf("%s has %d entries, want %d", name, len(a), len(b))
		}
		for i := range b {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return fmt.Sprintf("%s[%d] %v, want %v", name, i, a[i], b[i])
			}
		}
		return ""
	}
	if d := bits("CostRate", []float64{got.CostRate}, []float64{want.CostRate}); d != "" {
		return d
	}
	if d := bits("L", got.L, want.L); d != "" {
		return d
	}
	if d := bits("Trajectory", got.Trajectory, want.Trajectory); d != "" {
		return d
	}
	if withWq {
		if d := bits("Wq", got.Wq, want.Wq); d != "" {
			return d
		}
	}
	for j := range want.Served {
		if got.Served[j] != want.Served[j] {
			return fmt.Sprintf("Served[%d] %d, want %d", j, got.Served[j], want.Served[j])
		}
	}
	return ""
}

// gridLaw draws one of five service laws of the given mean: exponential,
// Erlang-2, uniform, deterministic or a two-phase hyperexponential.
func gridLaw(t *testing.T, r *rng.Stream, mean float64) dist.Distribution {
	switch r.Intn(5) {
	case 0:
		return dist.Exponential{Rate: 1 / mean}
	case 1:
		return dist.Erlang{K: 2, Rate: 2 / mean}
	case 2:
		return dist.Uniform{Lo: 0.2 * mean, Hi: 1.8 * mean}
	case 3:
		return dist.Deterministic{Value: mean}
	}
	he, err := dist.NewHyperExp([]float64{0.8, 0.2}, []float64{1 / (0.5 * mean), 1 / (3 * mean)})
	if err != nil {
		t.Fatal(err)
	}
	return he
}

// gridRates returns n arrival rates giving load rho at the given service
// means, with about a quarter of the classes at rate 0.
func gridRates(r *rng.Stream, rho float64, means []float64) []float64 {
	share := make([]float64, len(means))
	total := 0.0
	for j := range share {
		if r.Float64() >= 0.25 {
			share[j] = 0.2 + r.Float64()
			total += share[j]
		}
	}
	lam := make([]float64, len(means))
	for j := range lam {
		if total > 0 {
			lam[j] = rho * share[j] / total / means[j]
		}
	}
	return lam
}

// TestStationLoopMatchesModelLoops: over a seeded grid of models — 1–4
// classes, five service laws, loads 0.1–0.9 with some classes idle, burn-in
// 0 and horizon/10, plain and antithetic streams — every entry point of
// the station loop reproduces the model's own loop bit for bit: MG1 under
// FIFO, a random order and a two-order mixture; Klimov with some all-zero
// feedback rows, under both criteria; M/M/m with 1–3 servers under a
// priority and FIFO; and networks of 1–3 stations with Next chains, Routes,
// partial station orders and trajectory sampling.
func TestStationLoopMatchesModelLoops(t *testing.T) {
	r := rng.New(24)
	const draws = 300
	checked := 0
	for d := 0; d < draws; d++ {
		n := 1 + r.Intn(4)
		rho := 0.1 + 0.8*r.Float64()
		horizon := 100 + 200*r.Float64()
		burnin := 0.0
		if r.Float64() < 0.5 {
			burnin = horizon / 10
		}
		means := make([]float64, n)
		for j := range means {
			means[j] = 0.3 + r.Float64()
		}
		lam := gridRates(r, rho, means)
		classes := make([]Class, n)
		expClasses := make([]Class, n)
		for j := range classes {
			hold := 0.1 + 3*r.Float64()
			classes[j] = Class{ArrivalRate: lam[j], Service: gridLaw(t, r, means[j]), HoldCost: hold}
			expClasses[j] = Class{ArrivalRate: lam[j], Service: dist.Exponential{Rate: 1 / means[j]}, HoldCost: hold}
		}
		order, other := r.Perm(n), r.Perm(n)
		w := r.Float64()
		seed := r.Uint64()
		check := func(run string, compare func(s *rng.Stream) string) {
			t.Helper()
			root := rng.New(seed)
			if seed%2 == 0 {
				root.Antithetic()
			}
			if diff := compare(root); diff != "" {
				t.Fatalf("draw %d (%d classes, load %.2f, horizon %.1f, burn-in %.1f), %s: %s", d, n, rho, horizon, burnin, run, diff)
			}
			checked++
		}

		m := &MG1{Classes: classes}
		for _, rule := range []Priority{{}, {Orders: [][]int{order}}, {Orders: [][]int{order, other}, Weights: []float64{w, 1 - w}}} {
			check(fmt.Sprintf("MG1 %v", rule), func(s *rng.Stream) string {
				ref := *s // both loops start from the same state
				got, gotErr := m.Simulate(rule, horizon, burnin, s)
				want, wantErr := refMG1(m, rule.Orders, rule.Weights, horizon, burnin, &ref)
				return sameRun(got, gotErr, want, wantErr, true)
			})
		}

		// Klimov: feedback rows sum to at most 0.6, about a third of them
		// all zero, and external rates scaled to effective load rho.
		fb := linalg.NewMatrix(n, n)
		for i := 0; i < n; i++ {
			if r.Float64() < 1.0/3 {
				continue
			}
			for j := 0; j < n; j++ {
				fb.Set(i, j, 0.6*r.Float64()/float64(n))
			}
		}
		k := &KlimovNetwork{Classes: append([]Class(nil), classes...), Feedback: fb}
		eff, err := k.EffectiveArrivalRates()
		if err != nil {
			t.Fatal(err)
		}
		load := 0.0
		for j, c := range k.Classes {
			load += eff[j] * c.Service.Mean()
		}
		for j := range k.Classes {
			if load > 0 {
				k.Classes[j].ArrivalRate *= rho / load
			}
		}
		check("Klimov", func(s *rng.Stream) string {
			ref := *s
			got, gotErr := k.Simulate(order, horizon, burnin, s)
			want, wantErr := refKlimov(k, order, horizon, burnin, &ref)
			return sameRun(got, gotErr, want, wantErr, false)
		})
		discount := 0.01 + 0.1*r.Float64()
		check("Klimov discounted", func(s *rng.Stream) string {
			ref := *s
			got, gotErr := k.SimulateDiscounted(order, discount, horizon, s)
			want, wantErr := refKlimovDiscounted(k, order, discount, horizon, &ref)
			if gotErr != nil || wantErr != nil {
				return sameRun(nil, gotErr, nil, wantErr, false)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				return fmt.Sprintf("discounted cost %v, want %v", got, want)
			}
			return ""
		})

		servers := 1 + r.Intn(3)
		mm := &MMm{Servers: servers, Classes: make([]Class, n)}
		for j, c := range expClasses {
			mm.Classes[j] = c
			mm.Classes[j].ArrivalRate *= float64(servers)
		}
		for _, o := range [][]int{order, nil} {
			check(fmt.Sprintf("M/M/%d order %v", servers, o), func(s *rng.Stream) string {
				ref := *s
				got, gotErr := mm.Simulate(o, horizon, burnin, s)
				want, wantErr := refMMm(mm, o, horizon, burnin, &ref)
				return sameRun(got, gotErr, want, wantErr, false)
			})
		}

		// A network: each class at a random station, leaving, moving on
		// along a Next chain or routing at random with an exit deficit;
		// each station's order shuffles its classes and may leave the
		// last one out.
		stations := 1 + r.Intn(3)
		nw := &Network{Stations: stations, Classes: make([]NetClass, n)}
		for j, c := range classes {
			nc := NetClass{Station: r.Intn(stations), ArrivalRate: c.ArrivalRate, Service: c.Service, Next: -1, HoldCost: c.HoldCost}
			switch u := r.Float64(); {
			case u < 0.4 && j+1 < n:
				nc.Next = j + 1 + r.Intn(n-j-1)
			case u >= 0.7:
				left := 0.8
				for len(nc.Routes) < 2 {
					p := left * r.Float64()
					nc.Routes = append(nc.Routes, Route{To: r.Intn(n), Prob: p})
					left -= p
				}
			}
			nw.Classes[j] = nc
		}
		pol := &NetworkPolicy{StationOrder: make([][]int, stations)}
		for _, cls := range r.Perm(n) {
			st := nw.Classes[cls].Station
			pol.StationOrder[st] = append(pol.StationOrder[st], cls)
		}
		for st, o := range pol.StationOrder {
			if len(o) > 1 && r.Float64() < 0.25 {
				pol.StationOrder[st] = o[:len(o)-1]
			}
		}
		sample := 0.0
		if r.Float64() < 0.5 {
			sample = horizon / 8
		}
		check(fmt.Sprintf("network of %d stations", stations), func(s *rng.Stream) string {
			ref := *s
			got, gotErr := nw.Simulate(pol, horizon, burnin, sample, s)
			want, wantErr := refNetwork(nw, pol, horizon, burnin, sample, &ref)
			return sameRun(got, gotErr, want, wantErr, false)
		})
	}
	if checked != 8*draws {
		t.Fatalf("checked %d runs, want %d", checked, 8*draws)
	}
}

// TestStationLoopErrorsMatchModelLoops: every entry point rejects what its
// own loop rejected, with the same text, in the same order of checks.
func TestStationLoopErrorsMatchModelLoops(t *testing.T) {
	exp := dist.Exponential{Rate: 2}
	m := &MG1{Classes: []Class{{ArrivalRate: 0.3, Service: exp, HoldCost: 2}, {ArrivalRate: 0.2, Service: exp, HoldCost: 1}}}
	over := &MG1{Classes: []Class{{ArrivalRate: 3, Service: exp, HoldCost: 1}}}
	k, kOver := NoFeedback(m), NoFeedback(over)
	mm, mmOver := &MMm{Servers: 1, Classes: m.Classes}, &MMm{Servers: 1, Classes: over.Classes}
	nw := &Network{Stations: 2, Classes: []NetClass{
		{Station: 0, ArrivalRate: 0.5, Service: exp, Next: 1, HoldCost: 1},
		{Station: 1, Service: exp, Next: -1, HoldCost: 1},
	}}
	for _, tc := range []struct {
		order                 []int
		horizon, burnin, rate float64 // rate: the discount rate
	}{
		{[]int{1, 0}, 10, 20, 0},
		{[]int{1, 0}, 10, -1, -1},
		{[]int{1, 0}, 0, 0, 0.1},
		{[]int{0}, 10, 1, 0.1},
		{[]int{0, 0}, 10, 1, 0.1},
		{[]int{0, 2}, 10, 20, 0.1},
	} {
		s := rng.New(1)
		for _, mg := range []*MG1{m, over} {
			_, gotErr := mg.Simulate(Priority{Orders: [][]int{tc.order}}, tc.horizon, tc.burnin, s)
			_, wantErr := refMG1(mg, [][]int{tc.order}, nil, tc.horizon, tc.burnin, s)
			if d := sameRun(nil, gotErr, nil, wantErr, false); d != "" || gotErr == nil {
				t.Errorf("MG1 %v on [%v, %v]: %s (err %v)", tc.order, tc.burnin, tc.horizon, d, gotErr)
			}
		}
		for _, kn := range []*KlimovNetwork{k, kOver} {
			_, gotErr := kn.Simulate(tc.order, tc.horizon, tc.burnin, s)
			_, wantErr := refKlimov(kn, tc.order, tc.horizon, tc.burnin, s)
			if d := sameRun(nil, gotErr, nil, wantErr, false); d != "" || gotErr == nil {
				t.Errorf("Klimov %v on [%v, %v]: %s (err %v)", tc.order, tc.burnin, tc.horizon, d, gotErr)
			}
			_, gotErr = kn.SimulateDiscounted(tc.order, tc.rate, tc.horizon, s)
			_, wantErr = refKlimovDiscounted(kn, tc.order, tc.rate, tc.horizon, s)
			if d := sameRun(nil, gotErr, nil, wantErr, false); d != "" || gotErr == nil {
				t.Errorf("Klimov discounted %v at rate %v to %v: %s (err %v)", tc.order, tc.rate, tc.horizon, d, gotErr)
			}
		}
		for _, mx := range []*MMm{mm, mmOver} {
			_, gotErr := mx.Simulate(tc.order, tc.horizon, tc.burnin, s)
			_, wantErr := refMMm(mx, tc.order, tc.horizon, tc.burnin, s)
			if d := sameRun(nil, gotErr, nil, wantErr, false); d != "" || gotErr == nil {
				t.Errorf("M/M/1 %v on [%v, %v]: %s (err %v)", tc.order, tc.burnin, tc.horizon, d, gotErr)
			}
		}
	}
	for _, tc := range []struct {
		pol             [][]int
		horizon, burnin float64
	}{
		{[][]int{{0}, {1}}, 10, 20},
		{[][]int{{0}}, 10, 1},
		{[][]int{{1}, {0}}, 10, 1},
		{[][]int{{0}, {2}}, 10, 1},
	} {
		s := rng.New(1)
		pol := &NetworkPolicy{StationOrder: tc.pol}
		_, gotErr := nw.Simulate(pol, tc.horizon, tc.burnin, 0, s)
		_, wantErr := refNetwork(nw, pol, tc.horizon, tc.burnin, 0, s)
		if d := sameRun(nil, gotErr, nil, wantErr, false); d != "" || gotErr == nil {
			t.Errorf("network %v on [%v, %v]: %s (err %v)", tc.pol, tc.burnin, tc.horizon, d, gotErr)
		}
	}
}

// TestAgendaFiresInDesOrder: the station loop's agenda and a
// des.Simulator given the same schedule fire the same events at the same
// times in the same order, and stop at the same horizon, from a few events
// pending or from a deep heap (odd rounds start with 30–69). Delays of 0,
// 0.5 and 1 put several events at equal times, and each fired event's slot
// is taken by the first event scheduled after it, or freed when none is.
// Both report the same next pending time while an event is handled, before
// and after it schedules more.
func TestAgendaFiresInDesOrder(t *testing.T) {
	r := rng.New(27)
	fired := 0
	for round := 0; round < 200; round++ {
		sim := des.New()
		var a agenda
		var desOrder []int
		now, next := 0.0, 0
		schedule := func() {
			d, k := float64(r.Intn(3))/2, next
			next++
			sim.Schedule(d, func() { desOrder = append(desOrder, k) })
			a.at(now+d, evDone, k)
		}
		start := 1 + r.Intn(4)
		if round%2 == 1 {
			start = 30 + r.Intn(40)
		}
		for n := start; n > 0; n-- {
			schedule()
		}
		horizon := float64(2 + r.Intn(12))
		for {
			ev, ok := a.pop(horizon)
			if ok != (sim.Next() <= horizon) {
				t.Fatalf("round %d: agenda fires %v, des's next event is at %v of horizon %v", round, ok, sim.Next(), horizon)
			}
			if !ok {
				break
			}
			sim.Step()
			now = ev.time
			if got, want := int(ev.class), desOrder[len(desOrder)-1]; got != want || now != sim.Now() {
				t.Fatalf("round %d: agenda fired event %d at %v, des event %d at %v", round, got, now, want, sim.Now())
			}
			fired++
			if a.next() != sim.Next() {
				t.Fatalf("round %d: agenda's next event at %v after firing, des's at %v", round, a.next(), sim.Next())
			}
			for n := r.Intn(3); n > 0; n-- {
				schedule()
			}
			if a.next() != sim.Next() {
				t.Fatalf("round %d: agenda's next event at %v after scheduling, des's at %v", round, a.next(), sim.Next())
			}
		}
		if len(a.slots) != sim.Pending() {
			t.Fatalf("round %d: %d events left on the agenda, %d in des", round, len(a.slots), sim.Pending())
		}
	}
	if fired < 2000 {
		t.Fatalf("only %d events fired", fired)
	}
}

// TestPreemptiveMatchesDesLoop: the preemptive M/M/1 on the agenda, where
// a preempted job's completion stays queued and fires as a stale slot,
// reproduces the des loop that cancelled it bit for bit: 1–4 classes, some
// idle, at loads 0.3–0.95, so that preemptions are frequent, under the cµ
// order and its reverse, burn-in 0 and horizon/10, plain and antithetic
// streams.
func TestPreemptiveMatchesDesLoop(t *testing.T) {
	r := rng.New(28)
	checked, preemptions := 0, 0
	for _, rho := range []float64{0.3, 0.6, 0.8, 0.95} {
		for n := 1; n <= 4; n++ {
			means := make([]float64, n)
			for j := range means {
				means[j] = 0.3 + r.Float64()
			}
			m := &MG1{Classes: make([]Class, n)}
			for j, lam := range gridRates(r, rho, means) {
				m.Classes[j] = Class{ArrivalRate: lam, Service: dist.Exponential{Rate: 1 / means[j]}, HoldCost: 0.1 + 3*r.Float64()}
			}
			cmu := m.CMuOrder()
			reverse := make([]int, n)
			for i, j := range cmu {
				reverse[n-1-i] = j
			}
			for _, order := range [][]int{cmu, reverse} {
				for seed := uint64(0); seed < 8; seed++ {
					root := rng.New(seed)
					if seed%2 == 0 {
						root.Antithetic()
					}
					ref := *root // both loops start from the same state
					burnin := float64(seed%3) * 15
					got, gotErr := m.SimulatePreemptive(order, 300, burnin, root)
					want, k, wantErr := refPreemptive(m, order, 300, burnin, &ref)
					if d := sameRun(got, gotErr, want, wantErr, true); d != "" {
						t.Fatalf("load %v, %d classes, order %v, seed %d: %s", rho, n, order, seed, d)
					}
					checked++
					preemptions += k
				}
			}
		}
	}
	if checked != 256 || preemptions < 1000 {
		t.Fatalf("checked %d runs with %d preemptions, want 256 runs and at least 1000", checked, preemptions)
	}
	t.Logf("%d runs, %d preemptions", checked, preemptions)
}

// TestStationLoopManyServersMatchesModelLoop: an M/M/m with many servers
// keeps up to one completion per server pending on the agenda, and still
// reproduces the model's own loop bit for bit, under a priority order and
// FIFO.
func TestStationLoopManyServersMatchesModelLoop(t *testing.T) {
	for _, servers := range []int{31, 32, 64} {
		m := &MMm{Servers: servers, Classes: []Class{
			{ArrivalRate: 0.5 * float64(servers), Service: dist.Exponential{Rate: 1}, HoldCost: 3},
			{ArrivalRate: 0.8 * float64(servers), Service: dist.Exponential{Rate: 2}, HoldCost: 1},
		}}
		for _, order := range [][]int{{1, 0}, nil} {
			for seed := uint64(0); seed < 3; seed++ {
				got, gotErr := m.Simulate(order, 30, 3, rng.New(seed))
				want, wantErr := refMMm(m, order, 30, 3, rng.New(seed))
				if d := sameRun(got, gotErr, want, wantErr, false); d != "" {
					t.Fatalf("M/M/%d order %v seed %d: %s", servers, order, seed, d)
				}
			}
		}
	}
}

// TestNonFiniteWindowsRejected: every simulator rejects a NaN or infinite
// horizon, burn-in or discount rate before it simulates. Each used to
// return estimates of 0 with no error for a NaN, and to run forever on an
// infinite horizon once anything arrived; a run that does not return
// within a few seconds fails here.
func TestNonFiniteWindowsRejected(t *testing.T) {
	exp := dist.Exponential{Rate: 2}
	m := &MG1{Classes: []Class{{ArrivalRate: 0.3, Service: exp, HoldCost: 2}, {ArrivalRate: 0.2, Service: exp, HoldCost: 1}}}
	mm := &MMm{Servers: 2, Classes: m.Classes}
	k := NoFeedback(m)
	nw := &Network{Stations: 1, Classes: []NetClass{{ArrivalRate: 0.5, Service: exp, Next: -1, HoldCost: 1}}}
	pol := &NetworkPolicy{StationOrder: [][]int{{0}}}
	poll := &Polling{Switch: dist.Deterministic{Value: 0.1}, Queues: m.Classes}
	nan, inf := math.NaN(), math.Inf(1)
	windows := [][2]float64{{nan, 0}, {100, nan}, {inf, 0}, {inf, 10}, {100, inf}, {inf, inf}, {-inf, 0}, {100, -inf}}
	discounts := [][2]float64{{nan, 100}, {inf, 100}, {0.1, nan}, {0.1, inf}}
	returns := func(name string, run func() error) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- run() }()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s: no error", name)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("%s: did not return", name)
		}
	}
	for _, w := range windows {
		h, b := w[0], w[1]
		at := fmt.Sprintf("on [%v, %v]", b, h)
		returns("MG1 "+at, func() error { _, err := m.Simulate(Priority{}, h, b, rng.New(1)); return err })
		returns("MG1 preemptive "+at, func() error { _, err := m.SimulatePreemptive([]int{0, 1}, h, b, rng.New(1)); return err })
		returns("M/M/2 "+at, func() error { _, err := mm.Simulate(nil, h, b, rng.New(1)); return err })
		returns("Klimov "+at, func() error { _, err := k.Simulate([]int{0, 1}, h, b, rng.New(1)); return err })
		returns("network "+at, func() error { _, err := nw.Simulate(pol, h, b, 0, rng.New(1)); return err })
		returns("polling "+at, func() error { _, err := poll.Simulate(h, b, rng.New(1)); return err })
	}
	for _, d := range discounts {
		rate, h := d[0], d[1]
		returns(fmt.Sprintf("Klimov discounted at rate %v to %v", rate, h), func() error {
			_, err := k.SimulateDiscounted([]int{0, 1}, rate, h, rng.New(1))
			return err
		})
	}
}
