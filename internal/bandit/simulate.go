package bandit

import (
	"context"
	"math"

	"stochsched/internal/engine"
	"stochsched/internal/rng"
	"stochsched/internal/stats"
)

// SimulateDiscounted runs one sample path of the bandit under the given
// policy starting from the given component states and returns the realized
// total discounted reward. The horizon is truncated once the residual
// discounted weight β^t/(1−β)·maxR falls below tol.
func SimulateDiscounted(b *Bandit, pol Policy, start []int, tol float64, s *rng.Stream) float64 {
	comp := append([]int(nil), start...)
	maxR := 0.0
	for _, p := range b.Projects {
		for _, r := range p.R {
			if math.Abs(r) > maxR {
				maxR = math.Abs(r)
			}
		}
	}
	total := 0.0
	disc := 1.0
	for {
		if disc/(1-b.Beta)*maxR < tol {
			return total
		}
		a := pol(comp)
		proj := b.Projects[a]
		total += disc * proj.R[comp[a]]
		// Sample the next state of the engaged project.
		row := proj.P.Data[comp[a]*proj.N() : (comp[a]+1)*proj.N()]
		comp[a] = s.Categorical(row)
		disc *= b.Beta
	}
}

// EstimateDiscountedInto folds reps further independent replications of
// SimulateDiscounted into out, continuing s's substream sequence — the
// accumulation form the adaptive (target-precision) rounds use.
// Replications run concurrently on the pool (the policy must be safe for
// concurrent read-only use, which every index policy is), and the aggregate
// is byte-identical for a given seed at any parallelism level.
func EstimateDiscountedInto(ctx context.Context, p *engine.Pool, b *Bandit, pol Policy, start []int, reps int, s *rng.Stream, out *stats.Running) error {
	return engine.ReplicateInto(ctx, p, 0, reps, s,
		func(_ context.Context, _ int, sub *rng.Stream) (float64, error) {
			return SimulateDiscounted(b, pol, start, 1e-9, sub), nil
		}, out)
}
