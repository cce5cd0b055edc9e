package scenario

import (
	"context"
	"fmt"
	"slices"

	"stochsched/internal/batch"
	"stochsched/internal/dist"
	"stochsched/internal/rng"
	"stochsched/pkg/api"
)

// batch estimates list-policy objectives on identical parallel machines
// via internal/batch; its Index computes the WSEPT/SEPT/LEPT orders with
// Smith ratios.
var (
	batchPolicies   = []string{"wsept", "sept", "lept"}
	batchObjectives = []string{"weighted_flowtime", "flowtime", "makespan"}
)

func init() {
	Register(&Scenario{
		Name:  "batch",
		Parse: strict[api.BatchSim],
		// One replication dispatches every job once.
		Work:     func(p any) float64 { return float64(len(p.(*api.BatchSim).Spec.Jobs)) },
		Policies: func(any) []string { return batchPolicies },
		Prepare:  prepareBatch,
		Outcome: outcome("batch", func(r *api.BatchResult) Outcome {
			out := Outcome{Policy: r.Policy, Metric: r.Objective}
			switch r.Objective {
			case "makespan":
				out.Mean, out.CI95 = r.MakespanMean, r.MakespanCI95
			case "flowtime":
				out.Mean, out.CI95 = r.FlowtimeMean, r.FlowtimeCI95
			default:
				out.Metric = "weighted_flowtime"
				out.Mean, out.CI95 = r.WeightedFlowtimeMean, r.WeightedFlowtimeCI95
			}
			return out
		}),
		Index: &Index{
			Family: "priority",
			Parse:  strict[api.Batch],
			// The {"kind":"batch","batch":…} envelope as an
			// api.PriorityRequest, the encoding the batch index cache keys
			// were pinned under.
			Hash:    func(p any) string { return api.Hash(&api.PriorityRequest{Kind: "batch", Batch: p.(*api.Batch)}) },
			Compute: batchIndex,
		},
	})
}

// batchObjective defaults the payload's objective knob.
func batchObjective(p *api.BatchSim) string {
	if p.Objective == "" {
		return "weighted_flowtime"
	}
	return p.Objective
}

// batchInstance checks every job and the machine count, and converts the
// spec into a solver instance.
func batchInstance(b *api.Batch) (*batch.Instance, error) {
	if len(b.Jobs) == 0 {
		return nil, fmt.Errorf("spec: batch has no jobs")
	}
	machines := b.Machines
	if machines == 0 {
		machines = 1
	}
	in := &batch.Instance{Machines: machines}
	for i, j := range b.Jobs {
		if j.Weight < 0 || !finite(j.Weight) {
			return nil, fmt.Errorf("spec: job %d needs a nonnegative weight, got %v", i, j.Weight)
		}
		law, err := distLaw(&j.Dist)
		if err != nil {
			return nil, fmt.Errorf("job %d: %w", i, err)
		}
		in.Jobs = append(in.Jobs, batch.Job{ID: i, Weight: j.Weight, Dist: law})
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

func prepareBatch(payload any, opts SimOpts) (Sim, error) {
	p := payload.(*api.BatchSim)
	if err := checkPolicy("batch", p.Policy, batchPolicies); err != nil {
		return nil, err
	}
	objective := batchObjective(p)
	if !slices.Contains(batchObjectives, objective) {
		return nil, fmt.Errorf("unknown batch objective %q (want %s)", objective, orList(batchObjectives))
	}
	in, err := batchInstance(&p.Spec)
	if err != nil {
		return nil, err
	}
	if opts.Antithetic {
		for j, job := range in.Jobs {
			if !dist.Invertible(job.Dist) {
				return nil, errAntithetic("batch", fmt.Sprintf("job %d processing law %v is not inverse-CDF sampled", j, job.Dist))
			}
		}
	}
	return func(ctx context.Context, x *Exec) (any, error) {
		var order batch.Order
		switch p.Policy {
		case "wsept":
			order = batch.WSEPT(in.Jobs)
		case "sept":
			order = batch.SEPT(in.Jobs)
		case "lept":
			order = batch.LEPT(in.Jobs)
		}
		var est batch.ParallelEstimate
		// The objective knob selects the comparison metric, so it also
		// drives the sequential stopping rule.
		primary := &est.WeightedFlowtime
		switch objective {
		case "makespan":
			primary = &est.Makespan
		case "flowtime":
			primary = &est.Flowtime
		}
		batch.MustOrder(order, len(in.Jobs))
		if err := replicate(ctx, x, primary, func(s *rng.Stream) (batch.ParallelResult, error) {
			return batch.SimulateList(in, order, s), nil
		}, est.Add); err != nil {
			return nil, err
		}
		return &api.BatchResult{
			Policy:               p.Policy,
			Objective:            objective,
			Order:                order,
			MakespanMean:         est.Makespan.Mean(),
			MakespanCI95:         est.Makespan.CI95(),
			FlowtimeMean:         est.Flowtime.Mean(),
			FlowtimeCI95:         est.Flowtime.CI95(),
			WeightedFlowtimeMean: est.WeightedFlowtime.Mean(),
			WeightedFlowtimeCI95: est.WeightedFlowtime.CI95(),
		}, nil
	}, nil
}

// batchIndex computes the WSEPT/SEPT/LEPT orders with Smith ratios.
func batchIndex(payload any, hash string) (any, error) {
	b := payload.(*api.Batch)
	in, err := batchInstance(b)
	if err != nil {
		return nil, BadSpec{err}
	}
	wsept := batch.WSEPT(in.Jobs)
	ratios := make([]float64, len(in.Jobs))
	for i, j := range in.Jobs {
		ratios[i] = j.SmithRatio()
	}
	resp := &api.PriorityResponse{
		SpecHash: hash,
		Rule:     "wsept",
		Order:    wsept,
		Indices:  ratios,
		SEPT:     batch.SEPT(in.Jobs),
		LEPT:     batch.LEPT(in.Jobs),
	}
	if in.Machines == 1 {
		v := batch.ExactWeightedFlowtime(in.Jobs, wsept)
		resp.ExactWeightedFlowtime = &v
	}
	return resp, nil
}
