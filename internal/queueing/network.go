package queueing

import (
	"fmt"
	"math"

	"stochsched/internal/des"
	"stochsched/internal/dist"
	"stochsched/internal/linalg"
	"stochsched/internal/rng"
)

// Multi-station multiclass queueing networks. Each class is served at one
// station and routes deterministically to a successor class (or exits).
// Static priority disciplines per station. The Lu–Kumar network built by
// LuKumar is the canonical example (surveyed via Bramson 1994) in which
// every station has load < 1 yet a "bad" priority rule is unstable —
// experiment E19.

// Route is one probabilistic routing option: with probability Prob the
// completing job becomes class To.
type Route struct {
	To   int
	Prob float64
}

// NetClass is one class in a multi-station network. Routing is either
// deterministic via Next (the Lu–Kumar style reentrant line) or
// probabilistic via Routes (general multiclass queueing networks); when
// Routes is non-empty it takes precedence and the probability deficit
// 1 − Σ Prob is the exit probability.
type NetClass struct {
	Name        string
	Station     int
	ArrivalRate float64 // external Poisson rate (0 for internal classes)
	Service     dist.Distribution
	Next        int // class jobs become after service; -1 = exit
	Routes      []Route
	HoldCost    float64
}

// Network is a multiclass network with one server per station.
type Network struct {
	Classes  []NetClass
	Stations int
}

// Validate checks stations, routing and service laws.
func (nw *Network) Validate() error {
	if len(nw.Classes) == 0 || nw.Stations <= 0 {
		return fmt.Errorf("queueing: network needs classes and stations")
	}
	for i, c := range nw.Classes {
		if c.Station < 0 || c.Station >= nw.Stations {
			return fmt.Errorf("queueing: class %d at invalid station %d", i, c.Station)
		}
		if len(c.Routes) > 0 {
			total := 0.0
			for _, r := range c.Routes {
				if r.To < 0 || r.To >= len(nw.Classes) {
					return fmt.Errorf("queueing: class %d routes to invalid class %d", i, r.To)
				}
				if r.Prob < 0 {
					return fmt.Errorf("queueing: class %d has a negative routing probability", i)
				}
				total += r.Prob
			}
			if total > 1+1e-9 {
				return fmt.Errorf("queueing: class %d routing probabilities sum to %v > 1", i, total)
			}
		} else {
			if c.Next < -1 || c.Next >= len(nw.Classes) {
				return fmt.Errorf("queueing: class %d routes to invalid class %d", i, c.Next)
			}
			if c.Next == i {
				return fmt.Errorf("queueing: class %d routes to itself", i)
			}
		}
		if c.Service == nil || c.Service.Mean() <= 0 {
			return fmt.Errorf("queueing: class %d needs positive-mean service", i)
		}
		if c.ArrivalRate < 0 {
			return fmt.Errorf("queueing: class %d negative arrival rate", i)
		}
	}
	return nil
}

// routingMatrix returns R with R[i][j] = P(class i job becomes class j).
func (nw *Network) routingMatrix() *linalg.Matrix {
	n := len(nw.Classes)
	r := linalg.NewMatrix(n, n)
	for i, c := range nw.Classes {
		if len(c.Routes) > 0 {
			for _, rt := range c.Routes {
				r.Set(i, rt.To, r.At(i, rt.To)+rt.Prob)
			}
		} else if c.Next >= 0 {
			r.Set(i, c.Next, 1)
		}
	}
	return r
}

// EffectiveRates solves the traffic equations λ = α + Rᵀλ for the
// per-class effective arrival rates.
func (nw *Network) EffectiveRates() ([]float64, error) {
	n := len(nw.Classes)
	a := linalg.Identity(n).Sub(nw.routingMatrix().Transpose())
	alpha := make([]float64, n)
	for i, c := range nw.Classes {
		alpha[i] = c.ArrivalRate
	}
	lam, err := linalg.Solve(a, alpha)
	if err != nil {
		return nil, fmt.Errorf("queueing: network traffic equations: %w", err)
	}
	return lam, nil
}

// StationLoads returns the nominal load of each station from the traffic
// equations.
func (nw *Network) StationLoads() []float64 {
	lam, err := nw.EffectiveRates()
	if err != nil {
		// A singular routing matrix means jobs cycle forever; report an
		// overloaded sentinel rather than panicking.
		loads := make([]float64, nw.Stations)
		for s := range loads {
			loads[s] = math.Inf(1)
		}
		return loads
	}
	loads := make([]float64, nw.Stations)
	for i, c := range nw.Classes {
		loads[c.Station] += lam[i] * c.Service.Mean()
	}
	return loads
}

// NetworkResult carries steady-state estimates and a sampled trajectory of
// the total job count (for stability diagnostics).
type NetworkResult struct {
	L          []float64 // time-average per-class counts on [burnin, horizon]
	CostRate   float64
	Trajectory []float64 // total jobs sampled every SampleEvery time units
}

// NetworkPolicy gives each station a static priority order over class
// indices (highest first). Classes of other stations are ignored.
type NetworkPolicy struct {
	StationOrder [][]int
}

// Simulate runs the network under the policy. If sampleEvery > 0, the total
// job count is recorded at that interval over the whole run (including
// burn-in), which is the stability diagnostic.
func (nw *Network) Simulate(pol *NetworkPolicy, horizon, burnin, sampleEvery float64, s *rng.Stream) (*NetworkResult, error) {
	if err := nw.Validate(); err != nil {
		return nil, err
	}
	if horizon <= burnin || burnin < 0 {
		return nil, fmt.Errorf("queueing: need 0 <= burnin < horizon")
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
	t := newTally(sim, n, burnin)
	totalJobs := 0
	var trajectory []float64

	var enqueue func(cls int)
	var startService func(st int)
	done := make([]func(), n) // one completion closure per class
	for cls := range done {
		st := nw.Classes[cls].Station
		done[cls] = func() {
			busy[st] = false
			t.add(cls, -1)
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
		t.add(cls, +1)
		st := nw.Classes[cls].Station
		waiting[st] = append(waiting[st], job{class: cls, arrival: sim.Now()})
		startService(st)
	}
	poisson(sim, arr, func(j int) float64 { return nw.Classes[j].ArrivalRate }, func(cls int) {
		totalJobs++
		enqueue(cls)
	})
	t.snapshotAtBurnin()
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

	res := &NetworkResult{L: t.averages(horizon), Trajectory: trajectory}
	for j := 0; j < n; j++ {
		res.CostRate += nw.Classes[j].HoldCost * res.L[j]
	}
	return res, nil
}

// LuKumar builds the classical two-station, four-class reentrant network:
// class 0 (station 0) → class 1 (station 1) → class 2 (station 1) → class 3
// (station 0) → exit, with external arrivals only to class 0. With mean
// services m2 = m4 large enough that m2 + m4 > 1/λ while each station's
// nominal load stays below one, the priority rule (class 3 over 0; class 1
// over 2) is unstable.
func LuKumar(lambda, m1, m2, m3, m4 float64) *Network {
	return &Network{
		Stations: 2,
		Classes: []NetClass{
			{Name: "c1", Station: 0, ArrivalRate: lambda, Service: dist.Exponential{Rate: 1 / m1}, Next: 1, HoldCost: 1},
			{Name: "c2", Station: 1, Service: dist.Exponential{Rate: 1 / m2}, Next: 2, HoldCost: 1},
			{Name: "c3", Station: 1, Service: dist.Exponential{Rate: 1 / m3}, Next: 3, HoldCost: 1},
			{Name: "c4", Station: 0, Service: dist.Exponential{Rate: 1 / m4}, Next: -1, HoldCost: 1},
		},
	}
}

// LuKumarBadPolicy is the destabilizing priority assignment: each station
// prioritizes its later-stage class (class 3 over 0 at station 0; class 1
// over 2 at station 1).
func LuKumarBadPolicy() *NetworkPolicy {
	return &NetworkPolicy{StationOrder: [][]int{{3, 0}, {1, 2}}}
}

// LuKumarFCFSPolicy approximates FCFS by giving earlier-stage classes
// priority (a stabilizing order for these parameters).
func LuKumarFCFSPolicy() *NetworkPolicy {
	return &NetworkPolicy{StationOrder: [][]int{{0, 3}, {2, 1}}}
}
