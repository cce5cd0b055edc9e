package scenario

import (
	"context"
	"fmt"
	"math"
	"sort"

	"stochsched/internal/dist"
	"stochsched/internal/queueing"
	"stochsched/internal/rng"
	"stochsched/internal/stats"
	"stochsched/pkg/api"
)

// jackson simulates open multiclass queueing networks (one server per
// station, deterministic or probabilistic routing) under per-station
// static priority rules; its Index computes the product-form (Jackson)
// steady state where it applies — exponential services, one shared rate
// per station, every station stable. The simulate side has no stability
// requirement: reproducing instability under nominal loads < 1 (the
// Lu–Kumar network) is part of the kind's job.
var jacksonPolicies = []string{"cmu", "fcfs", "lbfs"}

func init() {
	Register(&Scenario{
		Name:     "jackson",
		Parse:    checked(func(p *api.JacksonSim) error { return window(p.Burnin, p.Horizon) }),
		Work:     func(p any) float64 { return p.(*api.JacksonSim).Horizon },
		Policies: func(any) []string { return jacksonPolicies },
		Prepare:  prepareJackson,
		Outcome: outcome("jackson", func(r *api.JacksonResult) Outcome {
			return Outcome{Policy: r.Policy, Metric: "cost_rate", Mean: r.CostRateMean, CI95: r.CostRateCI95}
		}),
		Index: &Index{
			Family:  "jackson",
			Parse:   strict[api.Network],
			Hash:    func(p any) string { return api.Hash(&api.IndexRequest{Kind: "jackson", Jackson: p.(*api.Network)}) },
			Compute: jacksonIndex,
		},
	})
}

// networkModel checks the station count (no more stations than classes),
// every class, the routing graph, and that the traffic equations have a
// finite nonnegative solution, and converts the spec into a queueing
// network. Deliberately NOT checked: station loads below 1 —
// simulating unstable networks (the Lu–Kumar example) is the point of the
// kind. The product-form index separately demands stability.
func networkModel(nw *api.Network) (*queueing.Network, error) {
	if len(nw.Classes) == 0 {
		return nil, fmt.Errorf("spec: network has no classes")
	}
	if nw.Stations <= 0 {
		return nil, fmt.Errorf("spec: network needs a positive station count, got %d", nw.Stations)
	}
	if nw.Stations > len(nw.Classes) {
		return nil, fmt.Errorf("spec: network has %d stations for %d classes; a station with no class serves nothing", nw.Stations, len(nw.Classes))
	}
	out := &queueing.Network{Stations: nw.Stations}
	external := false
	for i := range nw.Classes {
		c, err := netClass(&nw.Classes[i], i, len(nw.Classes))
		if err != nil {
			return nil, err
		}
		if c.ArrivalRate > 0 {
			external = true
		}
		out.Classes = append(out.Classes, c)
	}
	if !external {
		return nil, fmt.Errorf("spec: open network needs at least one class with a positive external rate")
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	lam, err := out.EffectiveRates()
	if err != nil {
		return nil, fmt.Errorf("spec: traffic equations: %w", err)
	}
	for i, l := range lam {
		if l < -1e-9 || !finite(l) {
			return nil, fmt.Errorf("spec: traffic equations give class %d effective rate %v", i, l)
		}
	}
	return out, nil
}

// netClass checks and converts class i of an n-class network.
func netClass(c *api.NetClass, i, n int) (queueing.NetClass, error) {
	var zero queueing.NetClass
	if c.Rate < 0 || !finite(c.Rate) {
		return zero, fmt.Errorf("spec: class %d needs a nonnegative external rate, got %v", i, c.Rate)
	}
	if c.HoldCost < 0 || !finite(c.HoldCost) {
		return zero, fmt.Errorf("spec: class %d needs a nonnegative holding cost, got %v", i, c.HoldCost)
	}
	if (c.ServiceMean != 0) == (c.Service != nil) {
		return zero, fmt.Errorf("spec: class %d needs exactly one of service_mean, service", i)
	}
	var law dist.Distribution
	if c.Service != nil {
		var err error
		if law, err = distLaw(c.Service); err != nil {
			return zero, fmt.Errorf("class %d: %w", i, err)
		}
	} else {
		if !(c.ServiceMean > 0) || !finite(c.ServiceMean) {
			return zero, fmt.Errorf("spec: class %d needs a positive service mean, got %v", i, c.ServiceMean)
		}
		law = dist.Exponential{Rate: 1 / c.ServiceMean}
	}
	if c.Next != nil && len(c.Routes) > 0 {
		return zero, fmt.Errorf("spec: class %d sets both next and routes", i)
	}
	next := -1
	if c.Next != nil {
		if *c.Next < 0 || *c.Next >= n {
			return zero, fmt.Errorf("spec: class %d routes to class %d outside [0,%d)", i, *c.Next, n)
		}
		next = *c.Next
	}
	routes := make([]queueing.Route, 0, len(c.Routes))
	for _, r := range c.Routes {
		if !finite(r.Prob) {
			return zero, fmt.Errorf("spec: class %d has a non-finite routing probability", i)
		}
		routes = append(routes, queueing.Route{To: r.To, Prob: r.Prob})
	}
	name := c.Name
	if name == "" {
		name = fmt.Sprintf("c%d", i+1)
	}
	return queueing.NetClass{
		Name:        name,
		Station:     c.Station,
		ArrivalRate: c.Rate,
		Service:     law,
		Next:        next,
		Routes:      routes,
		HoldCost:    c.HoldCost,
	}, nil
}

// networkPolicy derives the per-station priority orders of the named rule:
// "fcfs" serves classes in spec order, "lbfs" in reverse spec order (the
// last-buffer-first direction that destabilizes the Lu–Kumar network),
// and "cmu" by descending hold-cost × service-rate.
func networkPolicy(nw *queueing.Network, rule string) *queueing.NetworkPolicy {
	orders := make([][]int, nw.Stations)
	for i, c := range nw.Classes {
		orders[c.Station] = append(orders[c.Station], i)
	}
	for st := range orders {
		o := orders[st]
		switch rule {
		case "lbfs":
			for i, j := 0, len(o)-1; i < j; i, j = i+1, j-1 {
				o[i], o[j] = o[j], o[i]
			}
		case "cmu":
			key := func(cls int) float64 {
				c := &nw.Classes[cls]
				return c.HoldCost / c.Service.Mean()
			}
			sort.SliceStable(o, func(a, b int) bool { return key(o[a]) > key(o[b]) })
		}
	}
	return &queueing.NetworkPolicy{StationOrder: orders}
}

func prepareJackson(payload any, opts SimOpts) (Sim, error) {
	p := payload.(*api.JacksonSim)
	if err := checkPolicy("jackson", p.Policy, jacksonPolicies); err != nil {
		return nil, err
	}
	nw, err := networkModel(&p.Spec)
	if err != nil {
		return nil, err
	}
	if opts.Antithetic {
		for j, c := range nw.Classes {
			if len(c.Routes) > 0 {
				return nil, errAntithetic("jackson", fmt.Sprintf("class %d uses probabilistic routing", j))
			}
			if !dist.Invertible(c.Service) {
				return nil, errAntithetic("jackson", fmt.Sprintf("class %d service law %v is not inverse-CDF sampled", j, c.Service))
			}
		}
	}
	return func(ctx context.Context, x *Exec) (any, error) {
		rep := &queueing.ReplicatedResult{L: make([]stats.Running, len(nw.Classes))}
		pol := networkPolicy(nw, p.Policy)
		if err := replicate(ctx, x, &rep.CostRate, func(s *rng.Stream) (*queueing.SimResult, error) {
			return nw.Simulate(pol, p.Horizon, p.Burnin, 0, s)
		}, rep.Add); err != nil {
			return nil, err
		}
		return &api.JacksonResult{
			Policy:       p.Policy,
			L:            means(rep.L),
			CostRateMean: rep.CostRate.Mean(),
			CostRateCI95: rep.CostRate.CI95(),
		}, nil
	}, nil
}

// jacksonIndex computes the product-form (Jackson) steady state. It applies
// only when every class is exponential, classes at one station share one
// rate, and every station is stable — anything else is a BadSpec, not an
// approximation.
func jacksonIndex(payload any, hash string) (any, error) {
	nw, err := networkModel(payload.(*api.Network))
	if err != nil {
		return nil, BadSpec{err}
	}
	rate := make([]float64, nw.Stations)
	for i, c := range nw.Classes {
		e, ok := c.Service.(dist.Exponential)
		if !ok {
			return nil, BadSpec{fmt.Errorf("product form needs exponential services, class %d has %T", i, c.Service)}
		}
		switch {
		case rate[c.Station] == 0:
			rate[c.Station] = e.Rate
		case math.Abs(rate[c.Station]-e.Rate) > 1e-12*rate[c.Station]:
			return nil, BadSpec{fmt.Errorf("product form needs one service rate per station; station %d mixes %v and %v", c.Station, rate[c.Station], e.Rate)}
		}
	}
	lam, err := nw.EffectiveRates()
	if err != nil {
		return nil, BadSpec{err}
	}
	loads := nw.StationLoads()
	for st, rho := range loads {
		if rho >= 1 {
			return nil, BadSpec{fmt.Errorf("product form needs every station stable; station %d has load %v", st, rho)}
		}
	}
	stationLam := make([]float64, nw.Stations)
	for i, c := range nw.Classes {
		stationLam[c.Station] += lam[i]
	}
	stationL := make([]float64, nw.Stations)
	for st := range stationL {
		if loads[st] > 0 {
			stationL[st] = loads[st] / (1 - loads[st])
		}
	}
	// Per-class split of the station queue length by arrival-rate share —
	// exact for the station totals; the split matches any work-conserving
	// symmetric discipline.
	l := make([]float64, len(nw.Classes))
	cost := 0.0
	for i, c := range nw.Classes {
		if stationLam[c.Station] > 0 {
			l[i] = lam[i] / stationLam[c.Station] * stationL[c.Station]
		}
		cost += c.HoldCost * l[i]
	}
	return &api.JacksonResponse{
		SpecHash:     hash,
		Stations:     nw.Stations,
		Lambda:       lam,
		StationLoads: loads,
		StationL:     stationL,
		L:            l,
		CostRate:     cost,
	}, nil
}
