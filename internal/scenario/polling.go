package scenario

import (
	"context"
	"fmt"
	"slices"

	"stochsched/internal/dist"
	"stochsched/internal/queueing"
	"stochsched/internal/rng"
	"stochsched/internal/stats"
	"stochsched/pkg/api"
)

// polling simulates a cyclic polling system (one server walking over the
// queues with switchover times). The service regime is the policy —
// "exhaustive", "gated", or "limited" (1-limited) — so regimes are
// directly comparable in sweeps. pollingRegimes is the one table of
// policies and the regimes they name; pollingPolicies lists its names.
var (
	pollingRegimes = []struct {
		policy string
		regime queueing.PollingRegime
	}{
		{"exhaustive", queueing.Exhaustive},
		{"gated", queueing.Gated},
		{"limited", queueing.Limited1},
	}
	pollingPolicies = func() []string {
		out := make([]string, len(pollingRegimes))
		for i, r := range pollingRegimes {
			out[i] = r.policy
		}
		return out
	}()
)

func init() {
	Register(&Scenario{
		Name:     "polling",
		Parse:    checked(func(p *api.PollingSim) error { return window(p.Burnin, p.Horizon) }),
		Work:     func(p any) float64 { return p.(*api.PollingSim).Horizon },
		Policies: func(any) []string { return pollingPolicies },
		Prepare:  preparePolling,
		Outcome: outcome("polling", func(r *api.PollingResult) Outcome {
			return Outcome{Policy: r.Policy, Metric: "cost_rate", Mean: r.CostRateMean, CI95: r.CostRateCI95}
		}),
	})
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

func preparePolling(payload any, opts SimOpts) (Sim, error) {
	p := payload.(*api.PollingSim)
	if err := checkPolicy("polling", p.Policy, pollingPolicies); err != nil {
		return nil, err
	}
	model, err := pollingModel(&p.Spec, pollingRegimes[slices.Index(pollingPolicies, p.Policy)].regime)
	if err != nil {
		return nil, err
	}
	if opts.Antithetic {
		for j, q := range model.Queues {
			if !dist.Invertible(q.Service) {
				return nil, errAntithetic("polling", fmt.Sprintf("queue %d service law %v is not inverse-CDF sampled", j, q.Service))
			}
		}
		if !dist.Invertible(model.Switch) {
			return nil, errAntithetic("polling", fmt.Sprintf("switchover law %v is not inverse-CDF sampled", model.Switch))
		}
	}
	return func(ctx context.Context, x *Exec) (any, error) {
		n := len(model.Queues)
		rep := &queueing.ReplicatedResult{L: make([]stats.Running, n), Wq: make([]stats.Running, n)}
		if err := replicate(ctx, x, &rep.CostRate, func(s *rng.Stream) (*queueing.SimResult, error) {
			return model.Simulate(p.Horizon, p.Burnin, s)
		}, rep.Add); err != nil {
			return nil, err
		}
		return &api.PollingResult{
			Policy:       p.Policy,
			L:            means(rep.L),
			Wq:           means(rep.Wq),
			CostRateMean: rep.CostRate.Mean(),
			CostRateCI95: rep.CostRate.CI95(),
		}, nil
	}, nil
}
