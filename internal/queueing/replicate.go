package queueing

// Engine-backed replication for the network and polling models, mirroring
// MG1.Replicate: per-replication substreams, replication-order folds,
// byte-identical results for a given seed at any parallelism level. Each
// model's ReplicateInto folds into caller-owned accumulators — repeated
// calls sharing the source stream and the accumulator are bitwise-equal to
// one call with the summed count, which is what lets the adaptive
// (target-precision) rounds stop anywhere on the fixed-budget trajectory.

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

// Replicate aggregates independent replications of Simulate on the pool
// (trajectory sampling disabled — sampleEvery 0).
func (nw *Network) Replicate(ctx context.Context, p *engine.Pool, pol *NetworkPolicy, horizon, burnin float64, reps int, s *rng.Stream) (*ReplicatedNetworkResult, error) {
	out := &ReplicatedNetworkResult{L: make([]stats.Running, len(nw.Classes))}
	if err := nw.ReplicateInto(ctx, p, pol, horizon, burnin, reps, s, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReplicateInto folds reps further replications into out, continuing s's
// substream sequence.
func (nw *Network) ReplicateInto(ctx context.Context, p *engine.Pool, pol *NetworkPolicy, horizon, burnin float64, reps int, s *rng.Stream, out *ReplicatedNetworkResult) error {
	n := len(nw.Classes)
	return engine.ReplicateReduce(ctx, p, reps, s,
		func(_ context.Context, _ int, sub *rng.Stream) (*NetworkResult, error) {
			return nw.Simulate(pol, horizon, burnin, 0, sub)
		},
		func(_ int, res *NetworkResult) error {
			for j := 0; j < n; j++ {
				out.L[j].Add(res.L[j])
			}
			out.CostRate.Add(res.CostRate)
			return nil
		})
}

// ReplicateInto folds reps further replications of Simulate into out,
// continuing s's substream sequence. Polling reuses ReplicatedResult: its
// per-replication result has the same shape as the M/G/1 one.
func (p *Polling) ReplicateInto(ctx context.Context, pool *engine.Pool, horizon, burnin float64, reps int, s *rng.Stream, out *ReplicatedResult) error {
	n := len(p.Queues)
	return engine.ReplicateReduce(ctx, pool, reps, s,
		func(_ context.Context, _ int, sub *rng.Stream) (*SimResult, error) {
			return p.Simulate(horizon, burnin, sub)
		},
		func(_ int, res *SimResult) error {
			for j := 0; j < n; j++ {
				out.L[j].Add(res.L[j])
				out.Wq[j].Add(res.Wq[j])
			}
			out.CostRate.Add(res.CostRate)
			return nil
		})
}
