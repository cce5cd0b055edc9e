package scenario

import (
	"context"
	"encoding/json"
	"fmt"

	"stochsched/internal/engine"
	"stochsched/internal/queueing"
	"stochsched/internal/stats"
	"stochsched/pkg/api"
)

func init() { Register(mmmScenario{}) }

// mmmScenario simulates the multiclass M/M/m queue — m identical
// exponential servers shared under a static nonpreemptive discipline — and
// its Indexer capability computes the cµ priority order with multiserver
// Cobham delays built on the Erlang-C waiting probability, plus the
// fast-single-server (speed-m M/M/1) lower bound on the optimal cost.
type mmmScenario struct{}

func (mmmScenario) Kind() string { return "mmm" }

func (mmmScenario) ParsePayload(raw json.RawMessage) (any, error) {
	var p api.MMmSim
	if err := DecodeStrict(raw, &p); err != nil {
		return nil, err
	}
	if p.Burnin < 0 || p.Horizon <= p.Burnin {
		return nil, fmt.Errorf("need 0 <= burnin < horizon, got burnin=%v horizon=%v", p.Burnin, p.Horizon)
	}
	return &p, nil
}

func (mmmScenario) ReplicationWork(payload any) float64 {
	return payload.(*api.MMmSim).Horizon
}

func (s mmmScenario) Validate(payload any) error {
	p := payload.(*api.MMmSim)
	if _, err := mmmModel(&p.Spec); err != nil {
		return err
	}
	return s.checkPolicy(p.Policy)
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

func (mmmScenario) Policies(payload any) []string { return []string{"cmu", "fifo"} }

func (mmmScenario) PolicyPath() string { return "mmm.policy" }

// checkPolicy is the single source of truth for which simulate policies an
// mmm spec supports; submit-time validation (Validate) and execution
// (Simulate) must never disagree.
func (mmmScenario) checkPolicy(policy string) error {
	if policy != "cmu" && policy != "fifo" {
		return fmt.Errorf("unknown mmm policy %q (want cmu or fifo)", policy)
	}
	return nil
}

func (s mmmScenario) Simulate(ctx context.Context, pool *engine.Pool, payload any, seed uint64, reps int, opts SimOpts) (any, int, error) {
	sim := payload.(*api.MMmSim)
	if err := s.checkPolicy(sim.Policy); err != nil {
		return nil, 0, BadSpec{err}
	}
	m, err := mmmModel(&sim.Spec)
	if err != nil {
		return nil, 0, BadSpec{err}
	}
	// All M/M/m randomness is exponential (inverse-CDF sampled), so
	// antithetic pairing is always admissible for this kind.
	// checkPolicy above admits exactly cmu and fifo here; a nil order is
	// Replicate's FIFO selector.
	var order []int
	if sim.Policy == "cmu" {
		order = m.CMuOrder()
	}
	n := len(m.Classes)
	rep := &queueing.ReplicatedResult{L: make([]stats.Running, n), Wq: make([]stats.Running, n)}
	src := opts.stream(seed)
	used, err := runReplications(ctx, opts, reps,
		func(ctx context.Context, nr int) error {
			return m.ReplicateInto(ctx, pool, order, sim.Horizon, sim.Burnin, nr, src, rep)
		},
		func() *stats.Running { return &rep.CostRate })
	if err != nil {
		return nil, 0, err
	}
	res := &api.MMmResult{
		Policy:       sim.Policy,
		Order:        order,
		Servers:      m.Servers,
		L:            make([]float64, n),
		CostRateMean: rep.CostRate.Mean(),
		CostRateCI95: rep.CostRate.CI95(),
	}
	for j := 0; j < n; j++ {
		res.L[j] = rep.L[j].Mean()
	}
	return res, used, nil
}

func (s mmmScenario) Outcome(policy string, resp []byte) (Outcome, error) {
	return decodeOutcome(s.Kind(), policy, resp, func(r *api.MMmResult) Outcome {
		return Outcome{Policy: r.Policy, Metric: "cost_rate", Mean: r.CostRateMean, CI95: r.CostRateCI95}
	})
}

// ---------------------------------------------------------------------------
// Indexer capability: the cµ order with multiserver Cobham delays (Erlang-C
// analytic wait) and the fast-single-server lower bound.

func (mmmScenario) IndexFamily() string { return "priority" }

func (mmmScenario) ParseIndexPayload(raw json.RawMessage) (any, error) {
	var m api.MMm
	if err := DecodeStrict(raw, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// IndexHash hashes the {"kind":"mmm","mmm":…} index envelope.
func (mmmScenario) IndexHash(payload any) string {
	return api.Hash(&api.IndexRequest{Kind: "mmm", MMm: payload.(*api.MMm)})
}

func (mmmScenario) ComputeIndex(payload any, hash string) (any, error) {
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
