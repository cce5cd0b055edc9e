package scenario

import (
	"context"
	"fmt"
	"slices"

	"stochsched/internal/batch"
	"stochsched/internal/dist"
	"stochsched/internal/rng"
	"stochsched/internal/stats"
	"stochsched/pkg/api"
)

// flowshop simulates the batch-shop models under one kind, with the
// variant selected by the spec: permutation flow shops (optionally
// bufferless/blocking) under Talwar/SEPT/LEPT sequences, in-tree
// precedence on identical machines under HLF/LLF/random selectors, and
// Sevcik's preemptive discrete-law single machine vs the nonpreemptive
// WSEPT baseline.
func init() {
	Register(&Scenario{
		Name: "flowshop",
		Parse: checked(func(p *api.FlowShopSim) error {
			if p.Spec.Variant() == "" {
				return fmt.Errorf("flowshop spec needs exactly one of jobs, tree, sevcik")
			}
			return nil
		}),
		Work: func(payload any) float64 {
			p := payload.(*api.FlowShopSim)
			switch p.Spec.Variant() {
			case "flowshop":
				return float64(len(p.Spec.Jobs) * len(p.Spec.Jobs[0].Stages))
			case "tree":
				return float64(len(p.Spec.Tree.Parent))
			default: // sevcik
				return float64(len(p.Spec.Sevcik))
			}
		},
		Policies: flowshopPolicies,
		Prepare:  prepareFlowshop,
		Outcome: outcome("flowshop", func(r *api.FlowShopResult) Outcome {
			return Outcome{Policy: r.Policy, Metric: r.Metric, Mean: r.Mean, CI95: r.CI95}
		}),
	})
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

var (
	flowshopTalwar = []string{"talwar", "sept", "lept"}
	flowshopSEPT   = []string{"sept", "lept"}
	flowshopTree   = []string{"hlf", "llf", "random"}
	flowshopSevcik = []string{"sevcik", "wsept"}
)

// flowshopPolicies is variant-dependent: "talwar" is listed only when it
// applies (two stages, all exponential), so sweeps never enumerate a policy
// the spec cannot run.
func flowshopPolicies(payload any) []string {
	p := payload.(*api.FlowShopSim)
	switch p.Spec.Variant() {
	case "flowshop":
		if talwarApplies(&p.Spec) {
			return flowshopTalwar
		}
		return flowshopSEPT
	case "tree":
		return flowshopTree
	case "sevcik":
		return flowshopSevcik
	}
	return nil
}

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

func prepareFlowshop(payload any, opts SimOpts) (Sim, error) {
	p := payload.(*api.FlowShopSim)
	if pols := flowshopPolicies(p); !slices.Contains(pols, p.Policy) {
		return nil, fmt.Errorf("unknown flowshop policy %q for the %s variant (want one of %v)",
			p.Policy, p.Spec.Variant(), pols)
	}
	switch p.Spec.Variant() {
	case "flowshop":
		return prepareFlowShopJobs(p, opts)
	case "tree":
		return prepareTree(p, opts)
	default:
		return prepareSevcik(p, opts)
	}
}

func prepareFlowShopJobs(p *api.FlowShopSim, opts SimOpts) (Sim, error) {
	jobs, err := flowShopJobs(&p.Spec)
	if err != nil {
		return nil, err
	}
	if opts.Antithetic {
		for j := range jobs {
			for k, d := range jobs[j].Stages {
				if !dist.Invertible(d) {
					return nil, errAntithetic("flowshop", fmt.Sprintf("job %d stage %d law %v is not inverse-CDF sampled", j, k, d))
				}
			}
		}
	}
	return func(ctx context.Context, x *Exec) (any, error) {
		var order batch.Order
		switch p.Policy {
		case "talwar":
			order = batch.TalwarOrder(jobs)
		case "sept":
			order = batch.FlowShopSEPT(jobs)
		case "lept":
			order = batch.FlowShopLEPT(jobs)
		}
		makespan := batch.FlowShopMakespan
		if p.Spec.Blocking {
			makespan = batch.FlowShopBlockingMakespan
		}
		var est stats.Running
		if err := replicate(ctx, x, &est, func(s *rng.Stream) (float64, error) {
			return makespan(batch.SampleFlowShop(jobs, s), order), nil
		}, est.Add); err != nil {
			return nil, err
		}
		return &api.FlowShopResult{
			Policy:  p.Policy,
			Variant: "flowshop",
			Metric:  "makespan",
			Order:   order,
			Mean:    est.Mean(),
			CI95:    est.CI95(),
		}, nil
	}, nil
}

func prepareTree(p *api.FlowShopSim, opts SimOpts) (Sim, error) {
	if opts.Antithetic {
		return nil, errAntithetic("flowshop", "the tree variant's finisher selection is a categorical draw")
	}
	tree, machines, err := treeModel(p.Spec.Tree)
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context, x *Exec) (any, error) {
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
		if err := replicate(ctx, x, &est, func(s *rng.Stream) (float64, error) {
			return batch.SimulateTreeMakespan(tree, machines, p.Spec.Tree.Rate, sel, s), nil
		}, est.Add); err != nil {
			return nil, err
		}
		return &api.FlowShopResult{
			Policy:  p.Policy,
			Variant: "tree",
			Metric:  "makespan",
			Mean:    est.Mean(),
			CI95:    est.CI95(),
		}, nil
	}, nil
}

func prepareSevcik(p *api.FlowShopSim, opts SimOpts) (Sim, error) {
	if opts.Antithetic {
		return nil, errAntithetic("flowshop", "the sevcik variant's discrete laws are not inverse-CDF sampled")
	}
	jobs, err := discreteJobs(p.Spec.Sevcik)
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context, x *Exec) (any, error) {
		var order batch.Order
		// The Sevcik rule is dynamic (preemptive, index recomputed at
		// milestones) — no static order to report.
		sim := func(s *rng.Stream) (float64, error) { return batch.SimulateSevcik(jobs, s) }
		if p.Policy == "wsept" {
			order = batch.WSEPTDiscrete(jobs)
			sim = func(s *rng.Stream) (float64, error) {
				return batch.SimulateNonpreemptiveWSEPTDiscrete(jobs, s), nil
			}
		}
		var est stats.Running
		if err := replicate(ctx, x, &est, sim, est.Add); err != nil {
			return nil, err
		}
		return &api.FlowShopResult{
			Policy:  p.Policy,
			Variant: "sevcik",
			Metric:  "weighted_flowtime",
			Order:   order,
			Mean:    est.Mean(),
			CI95:    est.CI95(),
		}, nil
	}, nil
}
