package scenario

import (
	"context"
	"encoding/json"
	"fmt"

	"stochsched/internal/engine"
	"stochsched/internal/linalg"
	"stochsched/internal/markov"
	"stochsched/internal/stats"
	"stochsched/pkg/api"
)

func init() { Register(mdpScenario{}) }

// mdpScenario simulates finite average-reward MDPs under the RVI-optimal,
// myopic, or random policy; its Indexer capability solves the model
// analytically — relative value iteration cross-checked by the
// occupation-measure LP — so simulated vs optimal gain is comparable per
// spec.
type mdpScenario struct{}

func (mdpScenario) Kind() string { return "mdp" }

const (
	mdpSolveTol     = 1e-9
	mdpSolveMaxIter = 100000
)

func (mdpScenario) ParsePayload(raw json.RawMessage) (any, error) {
	var p api.MDPSim
	if err := decodeStrictPayload(raw, &p); err != nil {
		return nil, err
	}
	if p.Burnin < 0 || p.Horizon <= p.Burnin {
		return nil, fmt.Errorf("need 0 <= burnin < horizon, got burnin=%d horizon=%d", p.Burnin, p.Horizon)
	}
	if p.Start < 0 {
		return nil, fmt.Errorf("need a nonnegative start state, got %d", p.Start)
	}
	return &p, nil
}

func (mdpScenario) ReplicationWork(payload any) float64 {
	return float64(payload.(*api.MDPSim).Horizon)
}

func (s mdpScenario) Validate(payload any) error {
	p := payload.(*api.MDPSim)
	m, err := mdpModel(&p.Spec)
	if err != nil {
		return err
	}
	if p.Start >= m.N() {
		return fmt.Errorf("start state %d outside [0,%d)", p.Start, m.N())
	}
	return s.checkPolicy(p.Policy)
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

func (mdpScenario) Policies(any) []string { return []string{"optimal", "myopic", "random"} }

func (mdpScenario) PolicyPath() string { return "mdp.policy" }

func (mdpScenario) checkPolicy(policy string) error {
	switch policy {
	case "optimal", "myopic", "random":
		return nil
	}
	return fmt.Errorf("unknown mdp policy %q (want optimal, myopic, or random)", policy)
}

func (s mdpScenario) Simulate(ctx context.Context, pool *engine.Pool, payload any, seed uint64, reps int, opts SimOpts) (any, int, error) {
	p := payload.(*api.MDPSim)
	if err := s.checkPolicy(p.Policy); err != nil {
		return nil, 0, BadSpec{err}
	}
	if opts.Antithetic {
		return nil, 0, errAntithetic("mdp", "state transitions are categorical draws")
	}
	m, err := mdpModel(&p.Spec)
	if err != nil {
		return nil, 0, BadSpec{err}
	}
	if p.Start >= m.N() {
		return nil, 0, BadSpec{fmt.Errorf("start state %d outside [0,%d)", p.Start, m.N())}
	}
	var choose markov.ActionChooser
	var actions []int
	switch p.Policy {
	case "optimal":
		_, _, pol, err := m.Solve(mdpSolveTol, mdpSolveMaxIter)
		if err != nil {
			return nil, 0, err
		}
		actions, choose = pol, markov.StationaryChooser(pol)
	case "myopic":
		actions = m.MyopicPolicy()
		choose = markov.StationaryChooser(actions)
	case "random":
		choose = markov.UniformChooser(m.A())
	}
	var est stats.Running
	src := opts.stream(seed)
	used, err := runReplications(ctx, opts, reps,
		func(ctx context.Context, nr int) error {
			return m.ReplicateInto(ctx, pool, choose, p.Start, p.Horizon, p.Burnin, nr, src, &est)
		},
		func() *stats.Running { return &est })
	if err != nil {
		return nil, 0, err
	}
	return &api.MDPResult{
		Policy:     p.Policy,
		Actions:    actions,
		RewardMean: est.Mean(),
		RewardCI95: est.CI95(),
	}, used, nil
}

func (mdpScenario) Outcome(policy string, resp []byte) (Outcome, error) {
	var b struct {
		SpecHash string         `json:"spec_hash"`
		MDP      *api.MDPResult `json:"mdp"`
	}
	if err := json.Unmarshal(resp, &b); err != nil {
		return Outcome{}, fmt.Errorf("decoding mdp simulate response: %v", err)
	}
	if b.MDP == nil {
		return Outcome{}, fmt.Errorf("simulate response carries no mdp result")
	}
	if policy == "" {
		policy = b.MDP.Policy
	}
	return Outcome{
		Policy:         policy,
		SpecHash:       b.SpecHash,
		Metric:         "reward",
		HigherIsBetter: true,
		Mean:           b.MDP.RewardMean,
		CI95:           b.MDP.RewardCI95,
	}, nil
}

// ---------------------------------------------------------------------------
// Indexer capability: the optimal average reward by relative value
// iteration, cross-checked by the occupation-measure LP.

func (mdpScenario) IndexFamily() string { return "mdp" }

func (mdpScenario) ParseIndexPayload(raw json.RawMessage) (any, error) {
	var m api.MDP
	if err := decodeStrictPayload(raw, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

func (mdpScenario) IndexHash(payload any) string {
	return api.Hash(&api.IndexRequest{Kind: "mdp", MDP: payload.(*api.MDP)})
}

func (mdpScenario) ComputeIndex(payload any, hash string) (any, error) {
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
