package queueing

// Engine-backed replication of the network model, mirroring MG1.Replicate.
// The served kinds fold through the same Add methods from
// internal/scenario, which spends their replication budgets.

import (
	"context"

	"stochsched/internal/engine"
	"stochsched/internal/rng"
	"stochsched/internal/stats"
)

// ReplicatedNetworkResult carries the replication statistics of
// Network.Simulate: per-class time-average numbers in system and the
// holding-cost rate.
type ReplicatedNetworkResult struct {
	L        []stats.Running
	CostRate stats.Running
}

// Add folds one replication into the accumulators.
func (r *ReplicatedNetworkResult) Add(res *NetworkResult) {
	for j := range r.L {
		r.L[j].Add(res.L[j])
	}
	r.CostRate.Add(res.CostRate)
}

// Replicate aggregates independent replications of Simulate on the pool
// (trajectory sampling disabled — sampleEvery 0).
func (nw *Network) Replicate(ctx context.Context, p *engine.Pool, pol *NetworkPolicy, horizon, burnin float64, reps int, s *rng.Stream) (*ReplicatedNetworkResult, error) {
	out := &ReplicatedNetworkResult{L: make([]stats.Running, len(nw.Classes))}
	if err := engine.ReplicateReduce(ctx, p, reps, s,
		func(_ context.Context, _ int, sub *rng.Stream) (*NetworkResult, error) {
			return nw.Simulate(pol, horizon, burnin, 0, sub)
		},
		func(_ int, res *NetworkResult) error { out.Add(res); return nil }); err != nil {
		return nil, err
	}
	return out, nil
}
