package scenario

import (
	"context"
	"encoding/json"
	"fmt"

	"stochsched/internal/dist"
	"stochsched/internal/engine"
	"stochsched/internal/linalg"
	"stochsched/internal/queueing"
	"stochsched/internal/stats"
	"stochsched/pkg/api"
)

func init() { Register(mg1Scenario{}) }

// mg1Scenario simulates the multiclass M/G/1 queue (and, with feedback,
// Klimov's network) under a discipline; its Indexer capability computes
// the cµ (or Klimov) priority order with exact Cobham delays.
type mg1Scenario struct{}

func (mg1Scenario) Kind() string { return "mg1" }

func (mg1Scenario) ParsePayload(raw json.RawMessage) (any, error) {
	var p api.MG1Sim
	if err := decodeStrictPayload(raw, &p); err != nil {
		return nil, err
	}
	if p.Burnin < 0 || p.Horizon <= p.Burnin {
		return nil, fmt.Errorf("need 0 <= burnin < horizon, got burnin=%v horizon=%v", p.Burnin, p.Horizon)
	}
	return &p, nil
}

func (mg1Scenario) ReplicationWork(payload any) float64 {
	return payload.(*api.MG1Sim).Horizon
}

func (s mg1Scenario) Validate(payload any) error {
	p := payload.(*api.MG1Sim)
	var err error
	if p.Spec.HasFeedback() {
		_, err = klimovModel(&p.Spec)
	} else {
		_, err = mg1Model(&p.Spec)
	}
	if err != nil {
		return err
	}
	return s.checkPolicy(&p.Spec, p.Policy)
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

func (mg1Scenario) Policies(payload any) []string {
	if payload.(*api.MG1Sim).Spec.HasFeedback() {
		return []string{"klimov"}
	}
	return []string{"cmu", "fifo"}
}

func (mg1Scenario) PolicyPath() string { return "mg1.policy" }

// checkPolicy is the single source of truth for which simulate policies an
// mg1 spec supports; submit-time validation (Validate) and execution
// (Simulate) must never disagree.
func (mg1Scenario) checkPolicy(m *api.MG1, policy string) error {
	if m.HasFeedback() {
		if policy != "klimov" {
			return fmt.Errorf("feedback systems support policy \"klimov\", got %q", policy)
		}
		return nil
	}
	if policy != "cmu" && policy != "fifo" {
		return fmt.Errorf("unknown mg1 policy %q (want cmu or fifo)", policy)
	}
	return nil
}

func (s mg1Scenario) Simulate(ctx context.Context, pool *engine.Pool, payload any, seed uint64, reps int, opts SimOpts) (any, int, error) {
	sim := payload.(*api.MG1Sim)
	if err := s.checkPolicy(&sim.Spec, sim.Policy); err != nil {
		return nil, 0, BadSpec{err}
	}
	if sim.Spec.HasFeedback() {
		if opts.Antithetic {
			return nil, 0, errAntithetic("mg1", "feedback routing draws are categorical")
		}
		k, err := klimovModel(&sim.Spec)
		if err != nil {
			return nil, 0, BadSpec{err}
		}
		_, order, err := k.KlimovIndices()
		if err != nil {
			return nil, 0, err
		}
		var est stats.Running
		src := opts.stream(seed)
		used, err := runReplications(ctx, opts, reps,
			func(ctx context.Context, n int) error {
				return k.ReplicateKlimovInto(ctx, pool, order, sim.Horizon, sim.Burnin, n, src, &est)
			},
			func() *stats.Running { return &est })
		if err != nil {
			return nil, 0, err
		}
		return &api.MG1Result{
			Policy:       "klimov",
			Order:        order,
			CostRateMean: est.Mean(),
			CostRateCI95: est.CI95(),
		}, used, nil
	}

	m, err := mg1Model(&sim.Spec)
	if err != nil {
		return nil, 0, BadSpec{err}
	}
	if opts.Antithetic {
		for j, c := range m.Classes {
			if !dist.Invertible(c.Service) {
				return nil, 0, errAntithetic("mg1", fmt.Sprintf("class %d service law %v is not inverse-CDF sampled", j, c.Service))
			}
		}
	}
	// checkPolicy above admits exactly cmu and fifo here.
	var d queueing.Discipline
	var order []int
	if sim.Policy == "cmu" {
		order = m.CMuOrder()
		d = queueing.StaticPriority{Order: order}
	} else {
		d = queueing.FIFO{}
	}
	n := len(m.Classes)
	rep := &queueing.ReplicatedResult{L: make([]stats.Running, n), Wq: make([]stats.Running, n)}
	src := opts.stream(seed)
	used, err := runReplications(ctx, opts, reps,
		func(ctx context.Context, nr int) error {
			return m.ReplicateInto(ctx, pool, d, sim.Horizon, sim.Burnin, nr, src, rep)
		},
		func() *stats.Running { return &rep.CostRate })
	if err != nil {
		return nil, 0, err
	}
	res := &api.MG1Result{
		Policy:       sim.Policy,
		Order:        order,
		L:            make([]float64, n),
		Wq:           make([]float64, n),
		CostRateMean: rep.CostRate.Mean(),
		CostRateCI95: rep.CostRate.CI95(),
	}
	for j := 0; j < n; j++ {
		res.L[j] = rep.L[j].Mean()
		res.Wq[j] = rep.Wq[j].Mean()
	}
	return res, used, nil
}

func (mg1Scenario) Outcome(policy string, resp []byte) (Outcome, error) {
	var b struct {
		SpecHash string         `json:"spec_hash"`
		MG1      *api.MG1Result `json:"mg1"`
	}
	if err := json.Unmarshal(resp, &b); err != nil {
		return Outcome{}, fmt.Errorf("decoding mg1 simulate response: %v", err)
	}
	if b.MG1 == nil {
		return Outcome{}, fmt.Errorf("simulate response carries no mg1 result")
	}
	if policy == "" {
		policy = b.MG1.Policy
	}
	return Outcome{
		Policy:   policy,
		SpecHash: b.SpecHash,
		Metric:   "cost_rate",
		Mean:     b.MG1.CostRateMean,
		CI95:     b.MG1.CostRateCI95,
	}, nil
}

// ---------------------------------------------------------------------------
// Indexer capability: the cµ order with exact Cobham delays (or Klimov's
// indices for feedback systems).

func (mg1Scenario) IndexFamily() string { return "priority" }

func (mg1Scenario) ParseIndexPayload(raw json.RawMessage) (any, error) {
	var m api.MG1
	if err := decodeStrictPayload(raw, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// IndexHash hashes the {"kind":"mg1","mg1":…} envelope as an
// api.PriorityRequest, the encoding the priority golden and its cache keys
// were pinned under.
func (mg1Scenario) IndexHash(payload any) string {
	return api.Hash(&api.PriorityRequest{Kind: "mg1", MG1: payload.(*api.MG1)})
}

func (s mg1Scenario) ComputeIndex(payload any, hash string) (any, error) {
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
