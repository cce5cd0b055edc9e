package bandit

import (
	"math"

	"stochsched/internal/rng"
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
