package scenario

import (
	"context"
	"fmt"
	"slices"

	"stochsched/internal/dist"
	"stochsched/internal/linalg"
	"stochsched/internal/queueing"
	"stochsched/internal/rng"
	"stochsched/internal/stats"
	"stochsched/pkg/api"
)

// mg1 simulates the multiclass M/G/1 queue (and, with feedback, Klimov's
// network) under a discipline; its Index computes the cµ (or Klimov)
// priority order with exact Cobham delays.
func init() {
	Register(&Scenario{
		Name:     "mg1",
		Parse:    checked(func(p *api.MG1Sim) error { return window(p.Burnin, p.Horizon) }),
		Work:     func(p any) float64 { return p.(*api.MG1Sim).Horizon },
		Policies: mg1Policies,
		Prepare:  prepareMG1,
		Outcome: outcome("mg1", func(r *api.MG1Result) Outcome {
			return Outcome{Policy: r.Policy, Metric: "cost_rate", Mean: r.CostRateMean, CI95: r.CostRateCI95}
		}),
		Index: &Index{
			Family: "priority",
			Parse:  strict[api.MG1],
			// The {"kind":"mg1","mg1":…} envelope as an api.PriorityRequest,
			// the encoding the priority golden and its cache keys were pinned
			// under.
			Hash:    func(p any) string { return api.Hash(&api.PriorityRequest{Kind: "mg1", MG1: p.(*api.MG1)}) },
			Compute: mg1Index,
		},
	})
}

// mg1Model converts a feedback-free spec into a validated queueing model.
func mg1Model(m *api.MG1) (*queueing.MG1, error) {
	cs, err := classes(m.Classes)
	if err != nil {
		return nil, err
	}
	out := &queueing.MG1{Classes: cs}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// klimovModel converts the spec into a validated Klimov network (a zero
// feedback matrix is supplied when absent).
func klimovModel(m *api.MG1) (*queueing.KlimovNetwork, error) {
	cs, err := classes(m.Classes)
	if err != nil {
		return nil, err
	}
	n := len(cs)
	fb := linalg.NewMatrix(n, n)
	if m.HasFeedback() {
		if len(m.Feedback) != n {
			return nil, fmt.Errorf("spec: feedback has %d rows, want %d", len(m.Feedback), n)
		}
		for i, row := range m.Feedback {
			if len(row) != n {
				return nil, fmt.Errorf("spec: feedback row %d has %d entries, want %d", i, len(row), n)
			}
			for j, v := range row {
				if v < 0 || !finite(v) {
					return nil, fmt.Errorf("spec: feedback[%d][%d] = %v is negative or non-finite", i, j, v)
				}
				fb.Set(i, j, v)
			}
		}
	}
	out := &queueing.KlimovNetwork{Classes: cs, Feedback: fb}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

var (
	mg1Plain    = []string{"cmu", "fifo"}
	mg1Feedback = []string{"klimov"}
)

// mg1Policies: a feedback system runs Klimov's rule only.
func mg1Policies(payload any) []string {
	if payload.(*api.MG1Sim).Spec.HasFeedback() {
		return mg1Feedback
	}
	return mg1Plain
}

func prepareMG1(payload any, opts SimOpts) (Sim, error) {
	sim := payload.(*api.MG1Sim)
	pols := mg1Policies(sim)
	if !sim.Spec.HasFeedback() {
		if err := checkPolicy("mg1", sim.Policy, pols); err != nil {
			return nil, err
		}
		return prepareCobham(sim, opts)
	}
	if !slices.Contains(pols, sim.Policy) {
		return nil, fmt.Errorf("feedback systems support policy %q, got %q", pols[0], sim.Policy)
	}
	if opts.Antithetic {
		return nil, errAntithetic("mg1", "feedback routing draws are categorical")
	}
	k, err := klimovModel(&sim.Spec)
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context, x *Exec) (any, error) {
		_, order, err := k.KlimovIndices()
		if err != nil {
			return nil, err
		}
		var est stats.Running
		if err := replicate(ctx, x, &est, func(s *rng.Stream) (*queueing.SimResult, error) {
			return k.Simulate(order, sim.Horizon, sim.Burnin, s)
		}, func(res *queueing.SimResult) { est.Add(res.CostRate) }); err != nil {
			return nil, err
		}
		return &api.MG1Result{
			Policy:       "klimov",
			Order:        order,
			CostRateMean: est.Mean(),
			CostRateCI95: est.CI95(),
		}, nil
	}, nil
}

// prepareCobham prepares a feedback-free system under cmu or fifo.
func prepareCobham(sim *api.MG1Sim, opts SimOpts) (Sim, error) {
	m, err := mg1Model(&sim.Spec)
	if err != nil {
		return nil, err
	}
	if opts.Antithetic {
		for j, c := range m.Classes {
			if !dist.Invertible(c.Service) {
				return nil, errAntithetic("mg1", fmt.Sprintf("class %d service law %v is not inverse-CDF sampled", j, c.Service))
			}
		}
	}
	return func(ctx context.Context, x *Exec) (any, error) {
		var pri queueing.Priority // FIFO
		var order []int
		if sim.Policy == "cmu" {
			order = m.CMuOrder()
			pri.Orders = [][]int{order}
		}
		n := len(m.Classes)
		rep := &queueing.ReplicatedResult{L: make([]stats.Running, n), Wq: make([]stats.Running, n)}
		if err := replicate(ctx, x, &rep.CostRate, func(s *rng.Stream) (*queueing.SimResult, error) {
			return m.Simulate(pri, sim.Horizon, sim.Burnin, s)
		}, rep.Add); err != nil {
			return nil, err
		}
		return &api.MG1Result{
			Policy:       sim.Policy,
			Order:        order,
			L:            means(rep.L),
			Wq:           means(rep.Wq),
			CostRateMean: rep.CostRate.Mean(),
			CostRateCI95: rep.CostRate.CI95(),
		}, nil
	}, nil
}

// mg1Index computes the cµ order with exact Cobham delays, or Klimov's
// indices for a feedback system.
func mg1Index(payload any, hash string) (any, error) {
	m := payload.(*api.MG1)
	if m.HasFeedback() {
		k, err := klimovModel(m)
		if err != nil {
			return nil, BadSpec{err}
		}
		indices, order, err := k.KlimovIndices()
		if err != nil {
			return nil, err
		}
		return &api.PriorityResponse{SpecHash: hash, Rule: "klimov", Order: order, Indices: indices}, nil
	}
	q, err := mg1Model(m)
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
	resp := &api.PriorityResponse{
		SpecHash: hash,
		Rule:     "cmu",
		Order:    order,
		Indices:  indices,
		Wq:       wq,
		L:        l,
		CostRate: &cost,
	}
	// Klimov fluid-limit drain order, seeded with the exact steady-state
	// queue lengths as the fluid initial condition (exhaustive over n!
	// orders — small class counts only).
	if len(q.Classes) <= 8 {
		fluidOrder, fluidCost, ferr := queueing.BestFluidOrder(q.Classes, l)
		if ferr == nil {
			resp.FluidOrder = fluidOrder
			resp.FluidDrainCost = &fluidCost
		}
	}
	return resp, nil
}
