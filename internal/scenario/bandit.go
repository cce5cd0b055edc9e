package scenario

import (
	"context"
	"fmt"

	"stochsched/internal/bandit"
	"stochsched/internal/linalg"
	"stochsched/internal/rng"
	"stochsched/internal/stats"
	"stochsched/pkg/api"
)

// bandit evaluates an index policy on a multi-project discounted bandit;
// its Index computes Gittins indices of a single project.
var banditPolicies = []string{"gittins", "greedy"}

func init() {
	Register(&Scenario{
		Name:  "bandit",
		Parse: checked(checkBanditStart),
		// Episode length scales with the discounted horizon 1/(1−β). An
		// out-of-range discount is reported by Prepare, not the budget.
		Work: func(p any) float64 {
			if beta := p.(*api.BanditSim).Spec.Beta; beta > 0 && beta < 1 {
				return 1 / (1 - beta)
			}
			return 0
		},
		Policies: func(any) []string { return banditPolicies },
		Prepare:  prepareBandit,
		Outcome: outcome("bandit", func(r *api.BanditResult) Outcome {
			return Outcome{Policy: r.Policy, Metric: "reward", HigherIsBetter: true, Mean: r.RewardMean, CI95: r.RewardCI95}
		}),
		Index: &Index{
			Family: "gittins",
			Parse:  strict[api.Bandit],
			// The bare project spec, the encoding the gittins golden and its
			// cache keys were pinned under.
			Hash:    func(p any) string { return api.Hash(p.(*api.Bandit)) },
			Compute: banditIndex,
		},
	})
}

// banditPolicy defaults the payload's policy knob: an absent policy means
// "gittins", keeping pre-registry request bodies (and their hashes) valid.
func banditPolicy(p *api.BanditSim) string {
	if p.Policy == "" {
		return "gittins"
	}
	return p.Policy
}

// checkBanditStart requires one in-range start state per project.
func checkBanditStart(p *api.BanditSim) error {
	if len(p.Start) != len(p.Spec.Projects) {
		return fmt.Errorf("start has %d states for %d projects", len(p.Start), len(p.Spec.Projects))
	}
	for i, st := range p.Start {
		if st < 0 || st >= len(p.Spec.Projects[i].Rewards) {
			return fmt.Errorf("start state %d of project %d out of range", st, i)
		}
	}
	return nil
}

// banditModel converts the system spec into a validated solver model.
func banditModel(b *api.BanditSystem) (*bandit.Bandit, error) {
	out := &bandit.Bandit{Beta: b.Beta}
	for i, a := range b.Projects {
		if err := checkMatrix(a.Transitions, a.Rewards); err != nil {
			return nil, fmt.Errorf("project %d: %w", i, err)
		}
		out.Projects = append(out.Projects, &bandit.Project{P: linalg.FromRows(a.Transitions), R: a.Rewards})
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

func prepareBandit(payload any, opts SimOpts) (Sim, error) {
	p := payload.(*api.BanditSim)
	policy := banditPolicy(p)
	if err := checkPolicy("bandit", policy, banditPolicies); err != nil {
		return nil, err
	}
	if opts.Antithetic {
		return nil, errAntithetic("bandit", "state transitions are categorical draws")
	}
	b, err := banditModel(&p.Spec)
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context, x *Exec) (any, error) {
		var pol bandit.Policy
		if policy == "greedy" {
			pol = bandit.GreedyPolicy(b)
		} else {
			indices := make([][]float64, len(b.Projects))
			for i, pr := range b.Projects {
				var err error
				if indices[i], err = bandit.GittinsRestart(pr, b.Beta); err != nil {
					return nil, err
				}
			}
			pol = bandit.IndexPolicy(indices)
		}
		// Episodes are truncated once the discounted tail is below 1e-9.
		var est stats.Running
		if err := replicate(ctx, x, &est, func(s *rng.Stream) (float64, error) {
			return bandit.SimulateDiscounted(b, pol, p.Start, 1e-9, s), nil
		}, est.Add); err != nil {
			return nil, err
		}
		return &api.BanditResult{Policy: policy, RewardMean: est.Mean(), RewardCI95: est.CI95()}, nil
	}, nil
}

// banditProject checks the discount, matrix shape, and row-stochasticity,
// and converts the spec into a solver model.
func banditProject(b *api.Bandit) (*bandit.Project, error) {
	if !(b.Beta > 0 && b.Beta < 1) {
		return nil, fmt.Errorf("spec: discount beta %v outside (0,1)", b.Beta)
	}
	if err := checkMatrix(b.Transitions, b.Rewards); err != nil {
		return nil, err
	}
	p := &bandit.Project{P: linalg.FromRows(b.Transitions), R: b.Rewards}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// banditIndex computes Gittins indices of one project by both algorithms.
func banditIndex(payload any, hash string) (any, error) {
	b := payload.(*api.Bandit)
	p, err := banditProject(b)
	if err != nil {
		return nil, BadSpec{err}
	}
	restart, err := bandit.GittinsRestart(p, b.Beta)
	if err != nil {
		return nil, err
	}
	largest, err := bandit.GittinsLargestIndex(p, b.Beta)
	if err != nil {
		return nil, err
	}
	return &api.GittinsResponse{
		SpecHash: hash,
		States:   p.N(),
		Beta:     b.Beta,
		Restart:  restart,
		Largest:  largest,
	}, nil
}
