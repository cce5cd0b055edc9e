package scenario

import (
	"context"
	"encoding/json"
	"fmt"

	"stochsched/internal/batch"
	"stochsched/internal/dist"
	"stochsched/internal/engine"
	"stochsched/internal/stats"
	"stochsched/pkg/api"
)

func init() { Register(flowshopScenario{}) }

// flowshopScenario simulates the batch-shop models under one kind, with
// the variant selected by the spec: permutation flow shops (optionally
// bufferless/blocking) under Talwar/SEPT/LEPT sequences, in-tree
// precedence on identical machines under HLF/LLF/random selectors, and
// Sevcik's preemptive discrete-law single machine vs the nonpreemptive
// WSEPT baseline.
type flowshopScenario struct{}

func (flowshopScenario) Kind() string { return "flowshop" }

func (flowshopScenario) ParsePayload(raw json.RawMessage) (any, error) {
	var p api.FlowShopSim
	if err := decodeStrictPayload(raw, &p); err != nil {
		return nil, err
	}
	if p.Spec.Variant() == "" {
		return nil, fmt.Errorf("flowshop spec needs exactly one of jobs, tree, sevcik")
	}
	return &p, nil
}

func (flowshopScenario) ReplicationWork(payload any) float64 {
	p := payload.(*api.FlowShopSim)
	switch p.Spec.Variant() {
	case "flowshop":
		return float64(len(p.Spec.Jobs) * len(p.Spec.Jobs[0].Stages))
	case "tree":
		return float64(len(p.Spec.Tree.Parent))
	default: // sevcik
		return float64(len(p.Spec.Sevcik))
	}
}

func (s flowshopScenario) Validate(payload any) error {
	p := payload.(*api.FlowShopSim)
	var err error
	switch p.Spec.Variant() {
	case "flowshop":
		_, err = flowShopJobs(&p.Spec)
	case "tree":
		_, _, err = treeModel(p.Spec.Tree)
	case "sevcik":
		_, err = discreteJobs(p.Spec.Sevcik)
	default:
		err = fmt.Errorf("spec: flowshop needs exactly one of jobs, tree, sevcik")
	}
	if err != nil {
		return err
	}
	return s.checkPolicy(p)
}

// flowShopJobs converts the flow-shop variant into solver jobs; every job
// must share one positive stage count.
func flowShopJobs(f *api.FlowShop) ([]batch.FlowShopJob, error) {
	stages := len(f.Jobs[0].Stages)
	if stages == 0 {
		return nil, fmt.Errorf("spec: flowshop job 0 has no stages")
	}
	out := make([]batch.FlowShopJob, 0, len(f.Jobs))
	for i := range f.Jobs {
		j := &f.Jobs[i]
		if len(j.Stages) != stages {
			return nil, fmt.Errorf("spec: flowshop job %d has %d stages, want %d", i, len(j.Stages), stages)
		}
		laws := make([]dist.Distribution, stages)
		for k := range j.Stages {
			law, err := distLaw(&j.Stages[k])
			if err != nil {
				return nil, fmt.Errorf("job %d stage %d: %w", i, k, err)
			}
			laws[k] = law
		}
		out = append(out, batch.FlowShopJob{ID: i, Stages: laws})
	}
	return out, nil
}

// treeModel converts the tree variant into a validated in-tree plus its
// machine count (default 1).
func treeModel(t *api.TreeSpec) (*batch.InTree, int, error) {
	if !(t.Rate > 0) || !finite(t.Rate) {
		return nil, 0, fmt.Errorf("spec: tree needs a positive task rate, got %v", t.Rate)
	}
	machines := t.Machines
	if machines == 0 {
		machines = 1
	}
	if machines < 1 {
		return nil, 0, fmt.Errorf("spec: tree needs at least one machine, got %d", t.Machines)
	}
	tree, err := batch.NewInTree(t.Parent)
	if err != nil {
		return nil, 0, err
	}
	return tree, machines, nil
}

// discreteJobs converts the sevcik variant into solver jobs with validated
// discrete laws (positive finite values, probabilities summing to 1).
func discreteJobs(list []api.DiscreteJobSpec) ([]batch.DiscreteJob, error) {
	out := make([]batch.DiscreteJob, 0, len(list))
	for i := range list {
		j := &list[i]
		if j.Weight < 0 || !finite(j.Weight) {
			return nil, fmt.Errorf("spec: sevcik job %d needs a nonnegative weight, got %v", i, j.Weight)
		}
		for k, v := range j.Values {
			if !(v > 0) || !finite(v) {
				return nil, fmt.Errorf("spec: sevcik job %d value %d must be positive and finite, got %v", i, k, v)
			}
		}
		law, err := dist.NewDiscrete(j.Values, j.Probs)
		if err != nil {
			return nil, fmt.Errorf("sevcik job %d: %w", i, err)
		}
		out = append(out, batch.DiscreteJob{ID: i, Weight: j.Weight, Law: law})
	}
	return out, nil
}

// Policies is variant-dependent: "talwar" is listed only when it applies
// (two stages, all exponential), so sweeps never enumerate a policy the
// spec cannot run.
func (flowshopScenario) Policies(payload any) []string {
	p := payload.(*api.FlowShopSim)
	switch p.Spec.Variant() {
	case "flowshop":
		if talwarApplies(&p.Spec) {
			return []string{"talwar", "sept", "lept"}
		}
		return []string{"sept", "lept"}
	case "tree":
		return []string{"hlf", "llf", "random"}
	case "sevcik":
		return []string{"sevcik", "wsept"}
	}
	return nil
}

func (flowshopScenario) PolicyPath() string { return "flowshop.policy" }

// talwarApplies reports whether Talwar's rule is defined for the flow-shop
// variant: exactly two stages per job, every stage exponential (checked on
// the wire shape — the "exp" dist kind or the service-mean-free Dist form).
func talwarApplies(f *api.FlowShop) bool {
	for i := range f.Jobs {
		if len(f.Jobs[i].Stages) != 2 {
			return false
		}
		for k := range f.Jobs[i].Stages {
			if f.Jobs[i].Stages[k].Kind != "exp" {
				return false
			}
		}
	}
	return len(f.Jobs) > 0
}

func (s flowshopScenario) checkPolicy(p *api.FlowShopSim) error {
	for _, pol := range s.Policies(p) {
		if pol == p.Policy {
			return nil
		}
	}
	return fmt.Errorf("unknown flowshop policy %q for the %s variant (want one of %v)",
		p.Policy, p.Spec.Variant(), s.Policies(p))
}

func (s flowshopScenario) Simulate(ctx context.Context, pool *engine.Pool, payload any, seed uint64, reps int, opts SimOpts) (any, int, error) {
	p := payload.(*api.FlowShopSim)
	if err := s.checkPolicy(p); err != nil {
		return nil, 0, BadSpec{err}
	}
	switch p.Spec.Variant() {
	case "flowshop":
		return s.simulateFlowShop(ctx, pool, p, seed, reps, opts)
	case "tree":
		return s.simulateTree(ctx, pool, p, seed, reps, opts)
	default:
		return s.simulateSevcik(ctx, pool, p, seed, reps, opts)
	}
}

func (flowshopScenario) simulateFlowShop(ctx context.Context, pool *engine.Pool, p *api.FlowShopSim, seed uint64, reps int, opts SimOpts) (any, int, error) {
	jobs, err := flowShopJobs(&p.Spec)
	if err != nil {
		return nil, 0, BadSpec{err}
	}
	if opts.Antithetic {
		for j := range jobs {
			for k, d := range jobs[j].Stages {
				if !dist.Invertible(d) {
					return nil, 0, errAntithetic("flowshop", fmt.Sprintf("job %d stage %d law %v is not inverse-CDF sampled", j, k, d))
				}
			}
		}
	}
	var order batch.Order
	switch p.Policy {
	case "talwar":
		order = batch.TalwarOrder(jobs)
	case "sept":
		order = batch.FlowShopSEPT(jobs)
	case "lept":
		order = batch.FlowShopLEPT(jobs)
	}
	var est stats.Running
	src := opts.stream(seed)
	round := func(ctx context.Context, nr int) error {
		if p.Spec.Blocking {
			return batch.EstimateFlowShopBlockingInto(ctx, pool, jobs, order, nr, src, &est)
		}
		return batch.EstimateFlowShopInto(ctx, pool, jobs, order, nr, src, &est)
	}
	used, err := runReplications(ctx, opts, reps, round,
		func() *stats.Running { return &est })
	if err != nil {
		return nil, 0, err
	}
	return &api.FlowShopResult{
		Policy:  p.Policy,
		Variant: "flowshop",
		Metric:  "makespan",
		Order:   order,
		Mean:    est.Mean(),
		CI95:    est.CI95(),
	}, used, nil
}

func (flowshopScenario) simulateTree(ctx context.Context, pool *engine.Pool, p *api.FlowShopSim, seed uint64, reps int, opts SimOpts) (any, int, error) {
	if opts.Antithetic {
		return nil, 0, errAntithetic("flowshop", "the tree variant's finisher selection is a categorical draw")
	}
	tree, machines, err := treeModel(p.Spec.Tree)
	if err != nil {
		return nil, 0, BadSpec{err}
	}
	var sel batch.TreeSelector
	switch p.Policy {
	case "hlf":
		sel = batch.HLF
	case "llf":
		sel = batch.LLF
	case "random":
		sel = batch.RandomSelector
	}
	var est stats.Running
	src := opts.stream(seed)
	used, err := runReplications(ctx, opts, reps,
		func(ctx context.Context, nr int) error {
			return batch.EstimateTreeMakespanInto(ctx, pool, tree, machines, p.Spec.Tree.Rate, sel, nr, src, &est)
		},
		func() *stats.Running { return &est })
	if err != nil {
		return nil, 0, err
	}
	return &api.FlowShopResult{
		Policy:  p.Policy,
		Variant: "tree",
		Metric:  "makespan",
		Mean:    est.Mean(),
		CI95:    est.CI95(),
	}, used, nil
}

func (flowshopScenario) simulateSevcik(ctx context.Context, pool *engine.Pool, p *api.FlowShopSim, seed uint64, reps int, opts SimOpts) (any, int, error) {
	if opts.Antithetic {
		return nil, 0, errAntithetic("flowshop", "the sevcik variant's discrete laws are not inverse-CDF sampled")
	}
	jobs, err := discreteJobs(p.Spec.Sevcik)
	if err != nil {
		return nil, 0, BadSpec{err}
	}
	var est stats.Running
	var order batch.Order
	src := opts.stream(seed)
	var round func(ctx context.Context, nr int) error
	if p.Policy == "wsept" {
		order = batch.WSEPTDiscrete(jobs)
		round = func(ctx context.Context, nr int) error {
			return batch.EstimateWSEPTDiscreteInto(ctx, pool, jobs, nr, src, &est)
		}
	} else {
		// The Sevcik rule is dynamic (preemptive, index recomputed at
		// milestones) — no static order to report.
		round = func(ctx context.Context, nr int) error {
			return batch.EstimateSevcikInto(ctx, pool, jobs, nr, src, &est)
		}
	}
	used, err := runReplications(ctx, opts, reps, round,
		func() *stats.Running { return &est })
	if err != nil {
		return nil, 0, err
	}
	return &api.FlowShopResult{
		Policy:  p.Policy,
		Variant: "sevcik",
		Metric:  "weighted_flowtime",
		Order:   order,
		Mean:    est.Mean(),
		CI95:    est.CI95(),
	}, used, nil
}

func (flowshopScenario) Outcome(policy string, resp []byte) (Outcome, error) {
	var b struct {
		SpecHash string              `json:"spec_hash"`
		FlowShop *api.FlowShopResult `json:"flowshop"`
	}
	if err := json.Unmarshal(resp, &b); err != nil {
		return Outcome{}, fmt.Errorf("decoding flowshop simulate response: %v", err)
	}
	if b.FlowShop == nil {
		return Outcome{}, fmt.Errorf("simulate response carries no flowshop result")
	}
	if policy == "" {
		policy = b.FlowShop.Policy
	}
	return Outcome{
		Policy:   policy,
		SpecHash: b.SpecHash,
		Metric:   b.FlowShop.Metric,
		Mean:     b.FlowShop.Mean,
		CI95:     b.FlowShop.CI95,
	}, nil
}
