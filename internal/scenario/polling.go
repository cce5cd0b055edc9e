package scenario

import (
	"context"
	"encoding/json"
	"fmt"

	"stochsched/internal/dist"
	"stochsched/internal/engine"
	"stochsched/internal/queueing"
	"stochsched/internal/stats"
	"stochsched/pkg/api"
)

func init() { Register(pollingScenario{}) }

// pollingScenario simulates a cyclic polling system (one server walking
// over the queues with switchover times). The service regime is the
// policy — "exhaustive", "gated", or "limited" (1-limited) — so regimes
// are directly comparable in sweeps.
type pollingScenario struct{}

func (pollingScenario) Kind() string { return "polling" }

func (pollingScenario) ParsePayload(raw json.RawMessage) (any, error) {
	var p api.PollingSim
	if err := DecodeStrict(raw, &p); err != nil {
		return nil, err
	}
	if p.Burnin < 0 || p.Horizon <= p.Burnin {
		return nil, fmt.Errorf("need 0 <= burnin < horizon, got burnin=%v horizon=%v", p.Burnin, p.Horizon)
	}
	return &p, nil
}

func (pollingScenario) ReplicationWork(payload any) float64 {
	return payload.(*api.PollingSim).Horizon
}

func (s pollingScenario) Validate(payload any) error {
	p := payload.(*api.PollingSim)
	if _, err := pollingModel(&p.Spec, queueing.Exhaustive); err != nil {
		return err
	}
	_, err := pollingRegime(p.Policy)
	return err
}

// pollingModel checks the queues (positive rates, one service law each),
// the switch-time law, and stability including switching overhead, and
// converts the spec into a polling model under the given regime (the
// regime is the simulate policy, not part of the spec).
func pollingModel(p *api.Polling, regime queueing.PollingRegime) (*queueing.Polling, error) {
	cs, err := classes(p.Queues)
	if err != nil {
		return nil, err
	}
	sw, err := distLaw(&p.Switch)
	if err != nil {
		return nil, fmt.Errorf("switch: %w", err)
	}
	out := &queueing.Polling{Queues: cs, Switch: sw, Regime: regime}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

func (pollingScenario) Policies(any) []string { return []string{"exhaustive", "gated", "limited"} }

func (pollingScenario) PolicyPath() string { return "polling.policy" }

// pollingRegime is the single source of truth mapping the policy knob to
// the simulator's service regime.
func pollingRegime(policy string) (queueing.PollingRegime, error) {
	switch policy {
	case "exhaustive":
		return queueing.Exhaustive, nil
	case "gated":
		return queueing.Gated, nil
	case "limited":
		return queueing.Limited1, nil
	}
	return 0, fmt.Errorf("unknown polling policy %q (want exhaustive, gated, or limited)", policy)
}

func (s pollingScenario) Simulate(ctx context.Context, pool *engine.Pool, payload any, seed uint64, reps int, opts SimOpts) (any, int, error) {
	p := payload.(*api.PollingSim)
	regime, err := pollingRegime(p.Policy)
	if err != nil {
		return nil, 0, BadSpec{err}
	}
	model, err := pollingModel(&p.Spec, regime)
	if err != nil {
		return nil, 0, BadSpec{err}
	}
	if opts.Antithetic {
		for j, q := range model.Queues {
			if !dist.Invertible(q.Service) {
				return nil, 0, errAntithetic("polling", fmt.Sprintf("queue %d service law %v is not inverse-CDF sampled", j, q.Service))
			}
		}
		if !dist.Invertible(model.Switch) {
			return nil, 0, errAntithetic("polling", fmt.Sprintf("switchover law %v is not inverse-CDF sampled", model.Switch))
		}
	}
	n := len(model.Queues)
	rep := &queueing.ReplicatedResult{L: make([]stats.Running, n), Wq: make([]stats.Running, n)}
	src := opts.stream(seed)
	used, err := runReplications(ctx, opts, reps,
		func(ctx context.Context, nr int) error {
			return model.ReplicateInto(ctx, pool, p.Horizon, p.Burnin, nr, src, rep)
		},
		func() *stats.Running { return &rep.CostRate })
	if err != nil {
		return nil, 0, err
	}
	res := &api.PollingResult{
		Policy:       p.Policy,
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

func (s pollingScenario) Outcome(policy string, resp []byte) (Outcome, error) {
	return decodeOutcome(s.Kind(), policy, resp, func(r *api.PollingResult) Outcome {
		return Outcome{Policy: r.Policy, Metric: "cost_rate", Mean: r.CostRateMean, CI95: r.CostRateCI95}
	})
}
