package scenario

import (
	"context"
	"encoding/json"
	"fmt"

	"stochsched/internal/bandit"
	"stochsched/internal/engine"
	"stochsched/internal/linalg"
	"stochsched/internal/stats"
	"stochsched/pkg/api"
)

func init() { Register(banditScenario{}) }

// banditScenario evaluates an index policy on a multi-project discounted
// bandit; its Indexer capability computes Gittins indices of a single
// project.
type banditScenario struct{}

func (banditScenario) Kind() string { return "bandit" }

// banditPolicy defaults the payload's policy knob: an absent policy means
// "gittins", keeping pre-registry request bodies (and their hashes) valid.
func banditPolicy(p *api.BanditSim) string {
	if p.Policy == "" {
		return "gittins"
	}
	return p.Policy
}

func (banditScenario) ParsePayload(raw json.RawMessage) (any, error) {
	var p api.BanditSim
	if err := decodeStrictPayload(raw, &p); err != nil {
		return nil, err
	}
	if len(p.Start) != len(p.Spec.Projects) {
		return nil, fmt.Errorf("start has %d states for %d projects", len(p.Start), len(p.Spec.Projects))
	}
	for i, st := range p.Start {
		if st < 0 || st >= len(p.Spec.Projects[i].Rewards) {
			return nil, fmt.Errorf("start state %d of project %d out of range", st, i)
		}
	}
	return &p, nil
}

func (banditScenario) ReplicationWork(payload any) float64 {
	// Episode length scales with the discounted horizon 1/(1−β). An
	// out-of-range discount is reported by Validate, not the budget.
	if beta := payload.(*api.BanditSim).Spec.Beta; beta > 0 && beta < 1 {
		return 1 / (1 - beta)
	}
	return 0
}

func (s banditScenario) Validate(payload any) error {
	p := payload.(*api.BanditSim)
	// These two checks stay out of banditModel so that Simulate keeps
	// answering the solver's own error text for such specs.
	if !(p.Spec.Beta > 0 && p.Spec.Beta < 1) {
		return fmt.Errorf("spec: discount beta %v outside (0,1)", p.Spec.Beta)
	}
	if len(p.Spec.Projects) == 0 {
		return fmt.Errorf("spec: bandit system has no projects")
	}
	if _, err := banditModel(&p.Spec); err != nil {
		return err
	}
	return s.checkPolicy(banditPolicy(p))
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

func (banditScenario) Policies(any) []string { return []string{"gittins", "greedy"} }

func (banditScenario) PolicyPath() string { return "bandit.policy" }

func (banditScenario) checkPolicy(policy string) error {
	if policy != "gittins" && policy != "greedy" {
		return fmt.Errorf("unknown bandit policy %q (want gittins or greedy)", policy)
	}
	return nil
}

func (s banditScenario) Simulate(ctx context.Context, pool *engine.Pool, payload any, seed uint64, reps int, opts SimOpts) (any, int, error) {
	p := payload.(*api.BanditSim)
	policy := banditPolicy(p)
	if err := s.checkPolicy(policy); err != nil {
		return nil, 0, BadSpec{err}
	}
	if opts.Antithetic {
		return nil, 0, errAntithetic("bandit", "state transitions are categorical draws")
	}
	b, err := banditModel(&p.Spec)
	if err != nil {
		return nil, 0, BadSpec{err}
	}
	var pol bandit.Policy
	if policy == "greedy" {
		pol = bandit.GreedyPolicy(b)
	} else {
		indices := make([][]float64, len(b.Projects))
		for i, pr := range b.Projects {
			if indices[i], err = bandit.GittinsRestart(pr, b.Beta); err != nil {
				return nil, 0, err
			}
		}
		pol = bandit.IndexPolicy(indices)
	}
	var est stats.Running
	src := opts.stream(seed)
	used, err := runReplications(ctx, opts, reps,
		func(ctx context.Context, nr int) error {
			return bandit.EstimateDiscountedInto(ctx, pool, b, pol, p.Start, nr, src, &est)
		},
		func() *stats.Running { return &est })
	if err != nil {
		return nil, 0, err
	}
	return &api.BanditResult{Policy: policy, RewardMean: est.Mean(), RewardCI95: est.CI95()}, used, nil
}

func (banditScenario) Outcome(policy string, resp []byte) (Outcome, error) {
	var b struct {
		SpecHash string            `json:"spec_hash"`
		Bandit   *api.BanditResult `json:"bandit"`
	}
	if err := json.Unmarshal(resp, &b); err != nil {
		return Outcome{}, fmt.Errorf("decoding bandit simulate response: %v", err)
	}
	if b.Bandit == nil {
		return Outcome{}, fmt.Errorf("simulate response carries no bandit result")
	}
	if policy == "" {
		policy = b.Bandit.Policy
	}
	return Outcome{
		Policy:         policy,
		SpecHash:       b.SpecHash,
		Metric:         "reward",
		HigherIsBetter: true,
		Mean:           b.Bandit.RewardMean,
		CI95:           b.Bandit.RewardCI95,
	}, nil
}

// ---------------------------------------------------------------------------
// Indexer capability: Gittins indices of one project.

func (banditScenario) IndexFamily() string { return "gittins" }

func (banditScenario) ParseIndexPayload(raw json.RawMessage) (any, error) {
	var b api.Bandit
	if err := decodeStrictPayload(raw, &b); err != nil {
		return nil, err
	}
	return &b, nil
}

// IndexHash hashes the bare project spec, the encoding the gittins golden
// and its cache keys were pinned under.
func (banditScenario) IndexHash(payload any) string { return api.Hash(payload.(*api.Bandit)) }

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

func (banditScenario) ComputeIndex(payload any, hash string) (any, error) {
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
