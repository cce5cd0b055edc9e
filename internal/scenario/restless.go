package scenario

import (
	"context"
	"fmt"

	"stochsched/internal/linalg"
	"stochsched/internal/restless"
	"stochsched/internal/rng"
	"stochsched/internal/stats"
	"stochsched/pkg/api"
)

// restless estimates fleet-scale activation heuristics (Whittle vs myopic
// vs random) via internal/restless; its Index computes Whittle indices of
// the single project.
var restlessPolicies = []string{"whittle", "myopic", "random"}

func init() {
	Register(&Scenario{
		Name: "restless",
		Parse: checked(func(p *api.RestlessSim) error {
			if p.N < 1 || p.M < 0 || p.M > p.N {
				return fmt.Errorf("need 1 <= n and 0 <= m <= n, got n=%d m=%d", p.N, p.M)
			}
			return window(p.Burnin, p.Horizon)
		}),
		// Every epoch touches all N projects.
		Work: func(payload any) float64 {
			p := payload.(*api.RestlessSim)
			return float64(p.Horizon) * float64(p.N)
		},
		Policies: func(any) []string { return restlessPolicies },
		Prepare:  prepareRestless,
		Outcome: outcome("restless", func(r *api.RestlessResult) Outcome {
			return Outcome{Policy: r.Policy, Metric: "reward", HigherIsBetter: true, Mean: r.RewardMean, CI95: r.RewardCI95}
		}),
		Index: &Index{
			Family: "whittle",
			Parse:  strict[api.WhittleRequest],
			// The flattened project-plus-knob struct, the encoding the
			// whittle golden and its cache keys were pinned under.
			Hash:    func(p any) string { return api.Hash(p.(*api.WhittleRequest)) },
			Compute: restlessIndex,
		},
	})
}

// restlessProject checks the discount and both actions' dynamics, and
// converts the spec into a solver model.
func restlessProject(r *api.Restless) (*restless.Project, error) {
	if !(r.Beta > 0 && r.Beta < 1) {
		return nil, fmt.Errorf("spec: discount beta %v outside (0,1)", r.Beta)
	}
	if err := checkMatrix(r.Passive.Transitions, r.Passive.Rewards); err != nil {
		return nil, fmt.Errorf("passive: %w", err)
	}
	if err := checkMatrix(r.Active.Transitions, r.Active.Rewards); err != nil {
		return nil, fmt.Errorf("active: %w", err)
	}
	if len(r.Passive.Transitions) != len(r.Active.Transitions) {
		return nil, fmt.Errorf("spec: passive has %d states, active %d", len(r.Passive.Transitions), len(r.Active.Transitions))
	}
	p := &restless.Project{
		P: [2]*linalg.Matrix{linalg.FromRows(r.Passive.Transitions), linalg.FromRows(r.Active.Transitions)},
		R: [2][]float64{r.Passive.Rewards, r.Active.Rewards},
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func prepareRestless(payload any, opts SimOpts) (Sim, error) {
	p := payload.(*api.RestlessSim)
	if err := checkPolicy("restless", p.Policy, restlessPolicies); err != nil {
		return nil, err
	}
	if opts.Antithetic {
		return nil, errAntithetic("restless", "project transitions are categorical draws")
	}
	proj, err := restlessProject(&p.Spec)
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context, x *Exec) (any, error) {
		fleet := &restless.Fleet{Type: proj, N: p.N, M: p.M}
		sim := func(s *rng.Stream) (float64, error) {
			return fleet.SimulateRandomPolicy(p.Horizon, p.Burnin, s)
		}
		if p.Policy != "random" {
			score := restless.MyopicScore(proj)
			if p.Policy == "whittle" {
				var err error
				if score, err = restless.WhittleIndex(proj, p.Spec.Beta); err != nil {
					return nil, err
				}
			}
			sim = func(s *rng.Stream) (float64, error) {
				return fleet.SimulateStaticPriority(score, p.Horizon, p.Burnin, s)
			}
		}
		var est stats.Running
		if err := replicate(ctx, x, &est, sim, est.Add); err != nil {
			return nil, err
		}
		return &api.RestlessResult{Policy: p.Policy, RewardMean: est.Mean(), RewardCI95: est.CI95()}, nil
	}, nil
}

// restlessIndex computes Whittle indices, optionally with an
// indexability check and, given n and m, the LP relaxation bound.
func restlessIndex(payload any, hash string) (any, error) {
	req := payload.(*api.WhittleRequest)
	p, err := restlessProject(&req.Restless)
	if err != nil {
		return nil, BadSpec{err}
	}
	fleet := req.N != 0 || req.M != 0
	if fleet && (req.N < 1 || req.M < 0 || req.M > req.N) {
		return nil, BadSpec{fmt.Errorf("need 1 <= n and 0 <= m <= n, got n=%d m=%d", req.N, req.M)}
	}
	idx, err := restless.WhittleIndex(p, req.Beta)
	if err != nil {
		return nil, err
	}
	resp := &api.WhittleResponse{
		SpecHash: hash,
		States:   p.N(),
		Beta:     req.Beta,
		Whittle:  idx,
	}
	if req.CheckIndexability {
		lo, hi := restless.SubsidyBracket(p, req.Beta)
		rep, err := restless.CheckIndexability(p, req.Beta, lo, hi, 50)
		if err != nil {
			return nil, err
		}
		resp.Indexable = &rep.Indexable
	}
	if fleet {
		sol, err := restless.SolveRelaxation(p, float64(req.M)/float64(req.N))
		if err != nil {
			return nil, err
		}
		bound := float64(req.N) * sol.ValuePerProject
		resp.LPBound = &bound
		resp.PDIndex = sol.PDIndex
	}
	return resp, nil
}
