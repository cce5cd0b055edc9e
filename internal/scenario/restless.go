package scenario

import (
	"context"
	"encoding/json"
	"fmt"

	"stochsched/internal/engine"
	"stochsched/internal/linalg"
	"stochsched/internal/restless"
	"stochsched/internal/stats"
	"stochsched/pkg/api"
)

func init() { Register(restlessScenario{}) }

// restlessScenario estimates fleet-scale activation heuristics
// (Whittle vs myopic vs random) via internal/restless; its Indexer
// capability computes Whittle indices of the single project.
type restlessScenario struct{}

func (restlessScenario) Kind() string { return "restless" }

func (restlessScenario) ParsePayload(raw json.RawMessage) (any, error) {
	var p api.RestlessSim
	if err := DecodeStrict(raw, &p); err != nil {
		return nil, err
	}
	if p.N < 1 || p.M < 0 || p.M > p.N {
		return nil, fmt.Errorf("need 1 <= n and 0 <= m <= n, got n=%d m=%d", p.N, p.M)
	}
	if p.Burnin < 0 || p.Horizon <= p.Burnin {
		return nil, fmt.Errorf("need 0 <= burnin < horizon, got burnin=%d horizon=%d", p.Burnin, p.Horizon)
	}
	return &p, nil
}

func (restlessScenario) ReplicationWork(payload any) float64 {
	// Every epoch touches all N projects.
	p := payload.(*api.RestlessSim)
	return float64(p.Horizon) * float64(p.N)
}

func (s restlessScenario) Validate(payload any) error {
	p := payload.(*api.RestlessSim)
	if _, err := restlessProject(&p.Spec); err != nil {
		return err
	}
	return s.checkPolicy(p.Policy)
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

func (restlessScenario) Policies(any) []string { return []string{"whittle", "myopic", "random"} }

func (restlessScenario) PolicyPath() string { return "restless.policy" }

func (restlessScenario) checkPolicy(policy string) error {
	switch policy {
	case "whittle", "myopic", "random":
		return nil
	}
	return fmt.Errorf("unknown restless policy %q (want whittle, myopic, or random)", policy)
}

func (s restlessScenario) Simulate(ctx context.Context, pool *engine.Pool, payload any, seed uint64, reps int, opts SimOpts) (any, int, error) {
	p := payload.(*api.RestlessSim)
	if err := s.checkPolicy(p.Policy); err != nil {
		return nil, 0, BadSpec{err}
	}
	if opts.Antithetic {
		return nil, 0, errAntithetic("restless", "project transitions are categorical draws")
	}
	proj, err := restlessProject(&p.Spec)
	if err != nil {
		return nil, 0, BadSpec{err}
	}
	fleet := &restless.Fleet{Type: proj, N: p.N, M: p.M}
	var est stats.Running
	var round func(ctx context.Context, nr int) error
	src := opts.stream(seed)
	switch p.Policy {
	case "random":
		round = func(ctx context.Context, nr int) error {
			return fleet.EstimateRandomPolicyInto(ctx, pool, p.Horizon, p.Burnin, nr, src, &est)
		}
	default:
		score := restless.MyopicScore(proj)
		if p.Policy == "whittle" {
			if score, err = restless.WhittleIndex(proj, p.Spec.Beta); err != nil {
				return nil, 0, err
			}
		}
		round = func(ctx context.Context, nr int) error {
			return fleet.EstimateStaticPriorityInto(ctx, pool, score, p.Horizon, p.Burnin, nr, src, &est)
		}
	}
	used, err := runReplications(ctx, opts, reps, round,
		func() *stats.Running { return &est })
	if err != nil {
		return nil, 0, err
	}
	return &api.RestlessResult{Policy: p.Policy, RewardMean: est.Mean(), RewardCI95: est.CI95()}, used, nil
}

func (s restlessScenario) Outcome(policy string, resp []byte) (Outcome, error) {
	return decodeOutcome(s.Kind(), policy, resp, func(r *api.RestlessResult) Outcome {
		return Outcome{Policy: r.Policy, Metric: "reward", HigherIsBetter: true, Mean: r.RewardMean, CI95: r.RewardCI95}
	})
}

// ---------------------------------------------------------------------------
// Indexer capability: Whittle indices (+ optional indexability check).

func (restlessScenario) IndexFamily() string { return "whittle" }

func (restlessScenario) ParseIndexPayload(raw json.RawMessage) (any, error) {
	var r api.WhittleRequest
	if err := DecodeStrict(raw, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// IndexHash hashes the flattened project-plus-knob struct, the encoding
// the whittle golden and its cache keys were pinned under.
func (restlessScenario) IndexHash(payload any) string {
	return api.Hash(payload.(*api.WhittleRequest))
}

func (restlessScenario) ComputeIndex(payload any, hash string) (any, error) {
	req := payload.(*api.WhittleRequest)
	p, err := restlessProject(&req.Restless)
	if err != nil {
		return nil, BadSpec{err}
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
	if req.N != 0 || req.M != 0 {
		if req.N < 1 || req.M < 0 || req.M > req.N {
			return nil, BadSpec{fmt.Errorf("need 1 <= n and 0 <= m <= n, got n=%d m=%d", req.N, req.M)}
		}
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
