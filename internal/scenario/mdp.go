package scenario

import (
	"context"
	"fmt"

	"stochsched/internal/linalg"
	"stochsched/internal/markov"
	"stochsched/internal/rng"
	"stochsched/internal/stats"
	"stochsched/pkg/api"
)

// mdp simulates finite average-reward MDPs under the RVI-optimal, myopic,
// or random policy; its Index solves the model analytically — relative
// value iteration cross-checked by the occupation-measure LP — so simulated
// vs optimal gain is comparable per spec.
var mdpPolicies = []string{"optimal", "myopic", "random"}

const (
	mdpSolveTol     = 1e-9
	mdpSolveMaxIter = 100000
)

func init() {
	Register(&Scenario{
		Name: "mdp",
		Parse: checked(func(p *api.MDPSim) error {
			if err := window(p.Burnin, p.Horizon); err != nil {
				return err
			}
			if p.Start < 0 {
				return fmt.Errorf("need a nonnegative start state, got %d", p.Start)
			}
			return nil
		}),
		Work:     func(p any) float64 { return float64(p.(*api.MDPSim).Horizon) },
		Policies: func(any) []string { return mdpPolicies },
		Prepare:  prepareMDP,
		Outcome: outcome("mdp", func(r *api.MDPResult) Outcome {
			return Outcome{Policy: r.Policy, Metric: "reward", HigherIsBetter: true, Mean: r.RewardMean, CI95: r.RewardCI95}
		}),
		Index: &Index{
			Family:  "mdp",
			Parse:   strict[api.MDP],
			Hash:    func(p any) string { return api.Hash(&api.IndexRequest{Kind: "mdp", MDP: p.(*api.MDP)}) },
			Compute: mdpIndex,
		},
	})
}

// mdpModel checks that every action shares one state count and is
// row-stochastic with finite rewards, and converts the spec into a
// markov.MDP.
func mdpModel(m *api.MDP) (*markov.MDP, error) {
	if len(m.Actions) == 0 {
		return nil, fmt.Errorf("spec: mdp has no actions")
	}
	n := len(m.Actions[0].Transitions)
	out := &markov.MDP{}
	for a := range m.Actions {
		act := &m.Actions[a]
		if err := checkMatrix(act.Transitions, act.Rewards); err != nil {
			return nil, fmt.Errorf("action %d: %w", a, err)
		}
		if len(act.Transitions) != n {
			return nil, fmt.Errorf("spec: action %d has %d states, want %d", a, len(act.Transitions), n)
		}
		out.Transitions = append(out.Transitions, linalg.FromRows(act.Transitions))
		out.Rewards = append(out.Rewards, act.Rewards)
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

func prepareMDP(payload any, opts SimOpts) (Sim, error) {
	p := payload.(*api.MDPSim)
	if err := checkPolicy("mdp", p.Policy, mdpPolicies); err != nil {
		return nil, err
	}
	if opts.Antithetic {
		return nil, errAntithetic("mdp", "state transitions are categorical draws")
	}
	m, err := mdpModel(&p.Spec)
	if err != nil {
		return nil, err
	}
	if p.Start >= m.N() {
		return nil, fmt.Errorf("start state %d outside [0,%d)", p.Start, m.N())
	}
	return func(ctx context.Context, x *Exec) (any, error) {
		var choose markov.ActionChooser
		var actions []int
		switch p.Policy {
		case "optimal":
			_, _, pol, err := m.Solve(mdpSolveTol, mdpSolveMaxIter)
			if err != nil {
				return nil, err
			}
			actions, choose = pol, markov.StationaryChooser(pol)
		case "myopic":
			actions = m.MyopicPolicy()
			choose = markov.StationaryChooser(actions)
		case "random":
			choose = markov.UniformChooser(m.A())
		}
		var est stats.Running
		if err := replicate(ctx, x, &est, func(s *rng.Stream) (float64, error) {
			return m.SimulateAverage(choose, p.Start, p.Horizon, p.Burnin, s)
		}, est.Add); err != nil {
			return nil, err
		}
		return &api.MDPResult{
			Policy:     p.Policy,
			Actions:    actions,
			RewardMean: est.Mean(),
			RewardCI95: est.CI95(),
		}, nil
	}, nil
}

// mdpIndex solves for the optimal average reward by relative value
// iteration, cross-checked by the occupation-measure LP.
func mdpIndex(payload any, hash string) (any, error) {
	m, err := mdpModel(payload.(*api.MDP))
	if err != nil {
		return nil, BadSpec{err}
	}
	gain, bias, pol, err := m.Solve(mdpSolveTol, mdpSolveMaxIter)
	if err != nil {
		return nil, err
	}
	lpGain, err := m.AverageRewardLP()
	if err != nil {
		return nil, err
	}
	return &api.MDPResponse{
		SpecHash: hash,
		States:   m.N(),
		Actions:  m.A(),
		Gain:     gain,
		LPGain:   lpGain,
		Bias:     bias,
		Policy:   pol,
	}, nil
}
