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

func init() { Register(batchScenario{}) }

// batchScenario estimates list-policy objectives on identical parallel
// machines via internal/batch; its Indexer capability computes the
// WSEPT/SEPT/LEPT orders with Smith ratios.
type batchScenario struct{}

func (batchScenario) Kind() string { return "batch" }

// batchObjective defaults the payload's objective knob.
func batchObjective(p *api.BatchSim) string {
	if p.Objective == "" {
		return "weighted_flowtime"
	}
	return p.Objective
}

func (batchScenario) ParsePayload(raw json.RawMessage) (any, error) {
	var p api.BatchSim
	if err := decodeStrictPayload(raw, &p); err != nil {
		return nil, err
	}
	return &p, nil
}

func (batchScenario) ReplicationWork(payload any) float64 {
	// One replication dispatches every job once.
	return float64(len(payload.(*api.BatchSim).Spec.Jobs))
}

func (s batchScenario) Validate(payload any) error {
	p := payload.(*api.BatchSim)
	if _, err := batchInstance(&p.Spec); err != nil {
		return err
	}
	if err := s.checkPolicy(p.Policy); err != nil {
		return err
	}
	return checkBatchObjective(batchObjective(p))
}

func (batchScenario) Policies(any) []string { return []string{"wsept", "sept", "lept"} }

func (batchScenario) PolicyPath() string { return "batch.policy" }

func (batchScenario) checkPolicy(policy string) error {
	switch policy {
	case "wsept", "sept", "lept":
		return nil
	}
	return fmt.Errorf("unknown batch policy %q (want wsept, sept, or lept)", policy)
}

func checkBatchObjective(objective string) error {
	switch objective {
	case "weighted_flowtime", "flowtime", "makespan":
		return nil
	}
	return fmt.Errorf("unknown batch objective %q (want weighted_flowtime, flowtime, or makespan)", objective)
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

func (s batchScenario) Simulate(ctx context.Context, pool *engine.Pool, payload any, seed uint64, reps int, opts SimOpts) (any, int, error) {
	p := payload.(*api.BatchSim)
	if err := s.checkPolicy(p.Policy); err != nil {
		return nil, 0, BadSpec{err}
	}
	objective := batchObjective(p)
	if err := checkBatchObjective(objective); err != nil {
		return nil, 0, BadSpec{err}
	}
	in, err := batchInstance(&p.Spec)
	if err != nil {
		return nil, 0, BadSpec{err}
	}
	if opts.Antithetic {
		for j, job := range in.Jobs {
			if !dist.Invertible(job.Dist) {
				return nil, 0, errAntithetic("batch", fmt.Sprintf("job %d processing law %v is not inverse-CDF sampled", j, job.Dist))
			}
		}
	}
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
	// The objective knob selects the comparison metric, so it also drives
	// the sequential stopping rule.
	primary := &est.WeightedFlowtime
	switch objective {
	case "makespan":
		primary = &est.Makespan
	case "flowtime":
		primary = &est.Flowtime
	}
	src := opts.stream(seed)
	used, err := runReplications(ctx, opts, reps,
		func(ctx context.Context, nr int) error {
			return batch.EstimateParallelInto(ctx, pool, in, order, nr, src, &est)
		},
		func() *stats.Running { return primary })
	if err != nil {
		return nil, 0, err
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
	}, used, nil
}

func (batchScenario) Outcome(policy string, resp []byte) (Outcome, error) {
	var b struct {
		SpecHash string           `json:"spec_hash"`
		Batch    *api.BatchResult `json:"batch"`
	}
	if err := json.Unmarshal(resp, &b); err != nil {
		return Outcome{}, fmt.Errorf("decoding batch simulate response: %v", err)
	}
	if b.Batch == nil {
		return Outcome{}, fmt.Errorf("simulate response carries no batch result")
	}
	if policy == "" {
		policy = b.Batch.Policy
	}
	out := Outcome{
		Policy:   policy,
		SpecHash: b.SpecHash,
		Metric:   b.Batch.Objective,
	}
	switch b.Batch.Objective {
	case "makespan":
		out.Mean, out.CI95 = b.Batch.MakespanMean, b.Batch.MakespanCI95
	case "flowtime":
		out.Mean, out.CI95 = b.Batch.FlowtimeMean, b.Batch.FlowtimeCI95
	default:
		out.Metric = "weighted_flowtime"
		out.Mean, out.CI95 = b.Batch.WeightedFlowtimeMean, b.Batch.WeightedFlowtimeCI95
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Indexer capability: WSEPT/SEPT/LEPT orders with Smith ratios.

func (batchScenario) IndexFamily() string { return "priority" }

func (batchScenario) ParseIndexPayload(raw json.RawMessage) (any, error) {
	var b api.Batch
	if err := decodeStrictPayload(raw, &b); err != nil {
		return nil, err
	}
	return &b, nil
}

// IndexHash hashes the {"kind":"batch","batch":…} envelope as an
// api.PriorityRequest, the encoding the batch index cache keys were pinned
// under.
func (batchScenario) IndexHash(payload any) string {
	return api.Hash(&api.PriorityRequest{Kind: "batch", Batch: payload.(*api.Batch)})
}

func (s batchScenario) ComputeIndex(payload any, hash string) (any, error) {
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
