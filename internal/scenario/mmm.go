package scenario

import (
	"context"

	"stochsched/internal/queueing"
	"stochsched/internal/rng"
	"stochsched/internal/stats"
	"stochsched/pkg/api"
)

// mmm simulates the multiclass M/M/m queue — m identical exponential
// servers shared under a static nonpreemptive discipline — and its Index
// computes the cµ priority order with multiserver Cobham delays built on
// the Erlang-C waiting probability, plus the fast-single-server (speed-m
// M/M/1) lower bound on the optimal cost.
var mmmPolicies = []string{"cmu", "fifo"}

func init() {
	Register(&Scenario{
		Name:     "mmm",
		Parse:    checked(func(p *api.MMmSim) error { return window(p.Burnin, p.Horizon) }),
		Work:     func(p any) float64 { return p.(*api.MMmSim).Horizon },
		Policies: func(any) []string { return mmmPolicies },
		Prepare:  prepareMMm,
		Outcome: outcome("mmm", func(r *api.MMmResult) Outcome {
			return Outcome{Policy: r.Policy, Metric: "cost_rate", Mean: r.CostRateMean, CI95: r.CostRateCI95}
		}),
		Index: &Index{
			Family: "priority",
			Parse:  strict[api.MMm],
			// The {"kind":"mmm","mmm":…} index envelope.
			Hash:    func(p any) string { return api.Hash(&api.IndexRequest{Kind: "mmm", MMm: p.(*api.MMm)}) },
			Compute: mmmIndex,
		},
	})
}

// mmmModel checks every class (exponential services only), the server
// count, and stability, and converts the spec into a queueing model.
func mmmModel(m *api.MMm) (*queueing.MMm, error) {
	cs, err := classes(m.Classes)
	if err != nil {
		return nil, err
	}
	out := &queueing.MMm{Classes: cs, Servers: m.Servers}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// prepareMMm checks the policy and converts the spec. All M/M/m
// randomness is exponential (inverse-CDF sampled), so antithetic pairing is
// always admissible for this kind.
func prepareMMm(payload any, _ SimOpts) (Sim, error) {
	sim := payload.(*api.MMmSim)
	if err := checkPolicy("mmm", sim.Policy, mmmPolicies); err != nil {
		return nil, err
	}
	m, err := mmmModel(&sim.Spec)
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context, x *Exec) (any, error) {
		// A nil order selects FIFO. The kind reports no delays, so rep
		// carries no Wq accumulators.
		var order []int
		if sim.Policy == "cmu" {
			order = m.CMuOrder()
		}
		rep := &queueing.ReplicatedResult{L: make([]stats.Running, len(m.Classes))}
		if err := replicate(ctx, x, &rep.CostRate, func(s *rng.Stream) (*queueing.SimResult, error) {
			return m.Simulate(order, sim.Horizon, sim.Burnin, s)
		}, rep.Add); err != nil {
			return nil, err
		}
		return &api.MMmResult{
			Policy:       sim.Policy,
			Order:        order,
			Servers:      m.Servers,
			L:            means(rep.L),
			CostRateMean: rep.CostRate.Mean(),
			CostRateCI95: rep.CostRate.CI95(),
		}, nil
	}, nil
}

// mmmIndex computes the cµ order with multiserver Cobham delays (Erlang-C
// analytic wait) and the fast-single-server lower bound.
func mmmIndex(payload any, hash string) (any, error) {
	m := payload.(*api.MMm)
	q, err := mmmModel(m)
	if err != nil {
		return nil, BadSpec{err}
	}
	order := q.CMuOrder()
	indices := make([]float64, len(q.Classes))
	for i, c := range q.Classes {
		indices[i] = c.HoldCost / c.Service.Mean()
	}
	wq, l, err := q.ExactPriority(order)
	if err != nil {
		return nil, err
	}
	cost := q.HoldingCostRate(l)
	pWait, err := q.ErlangC()
	if err != nil {
		return nil, err
	}
	bound, err := q.FastSingleServerBound()
	if err != nil {
		return nil, err
	}
	return &api.PriorityResponse{
		SpecHash:             hash,
		Rule:                 "cmu",
		Order:                order,
		Indices:              indices,
		Wq:                   wq,
		L:                    l,
		CostRate:             &cost,
		Servers:              q.Servers,
		ErlangC:              &pWait,
		FastSingleServerCost: &bound,
	}, nil
}
