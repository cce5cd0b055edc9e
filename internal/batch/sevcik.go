package batch

import (
	"fmt"
	"math"

	"stochsched/internal/dist"
	"stochsched/internal/rng"
)

// Sevcik's preemptive priority index (Sevcik 1974) generalizes Smith's rule
// to preemptive single-machine scheduling: a job's index depends on the
// amount of processing it has already received. For a job with weight w,
// processing-time law X, and attained service a (with X > a), the index is
//
//	γ(a) = w · sup_{t > a}  P(X ≤ t | X > a) / E[min(X, t) − a | X > a],
//
// the best achievable "completion probability per unit of expected further
// work". The optimal preemptive policy serves a job of maximal current
// index, and the supremum's argmax t* is the milestone at which the index
// must be recomputed.
//
// The implementation here supports finite discrete processing-time
// distributions, where the supremum is attained at a support point and all
// quantities are exact sums.

// SevcikIndex returns the index γ(a) and the milestone t* > a at which it is
// attained, for a job with discrete law d, weight w, and attained service a.
// It returns an error if P(X > a) = 0.
func SevcikIndex(d dist.Discrete, w, a float64) (gamma, milestone float64, err error) {
	surv := 0.0
	for i, v := range d.Values {
		if v > a {
			surv += d.Probs[i]
		}
	}
	if surv <= 0 {
		return 0, 0, fmt.Errorf("batch: SevcikIndex at attained service %v beyond support", a)
	}
	best := math.Inf(-1)
	bestT := 0.0
	for k, t := range d.Values {
		if t <= a {
			continue
		}
		// P(a < X ≤ t) and E[min(X,t) − a; X > a].
		pComplete := 0.0
		ework := 0.0
		for i, v := range d.Values {
			if v <= a {
				continue
			}
			if v <= t {
				pComplete += d.Probs[i]
				ework += (v - a) * d.Probs[i]
			} else {
				ework += (t - a) * d.Probs[i]
			}
		}
		if ework <= 0 {
			continue
		}
		ratio := (pComplete / surv) / (ework / surv)
		if ratio > best {
			best = ratio
			bestT = t
		}
		_ = k
	}
	if math.IsInf(best, -1) {
		return 0, 0, fmt.Errorf("batch: SevcikIndex found no feasible milestone")
	}
	return w * best, bestT, nil
}

// DiscreteJob is a job with a finite discrete processing-time law, the class
// on which the Sevcik policy is implemented exactly.
type DiscreteJob struct {
	ID     int
	Weight float64
	Law    dist.Discrete
}

// SimulateSevcik runs one replication of Sevcik's preemptive index policy on
// a single machine and returns the realized Σ w_i C_i. Processing times are
// sampled up front (they are revealed to the scheduler only through
// completion or survival past each milestone, as nonanticipativity
// requires).
func SimulateSevcik(jobs []DiscreteJob, s *rng.Stream) (float64, error) {
	n := len(jobs)
	x := make([]float64, n)        // realized processing times
	attained := make([]float64, n) // service received so far
	done := make([]bool, n)
	for i, j := range jobs {
		x[i] = j.Law.Sample(s)
	}
	clock := 0.0
	total := 0.0
	remaining := n
	for remaining > 0 {
		// Pick the uncompleted job with the highest current index.
		bestIdx := -1
		bestGamma := math.Inf(-1)
		bestMilestone := 0.0
		for i, j := range jobs {
			if done[i] {
				continue
			}
			g, t, err := SevcikIndex(j.Law, j.Weight, attained[i])
			if err != nil {
				return 0, err
			}
			if g > bestGamma {
				bestGamma, bestIdx, bestMilestone = g, i, t
			}
		}
		i := bestIdx
		// Serve job i until it completes or reaches its milestone.
		if x[i] <= bestMilestone {
			clock += x[i] - attained[i]
			attained[i] = x[i]
			done[i] = true
			remaining--
			total += jobs[i].Weight * clock
		} else {
			clock += bestMilestone - attained[i]
			attained[i] = bestMilestone
		}
	}
	return total, nil
}

// SimulateNonpreemptiveWSEPTDiscrete runs the nonpreemptive WSEPT order on
// the same job class, for head-to-head comparison with the Sevcik policy
// (experiment E02).
func SimulateNonpreemptiveWSEPTDiscrete(jobs []DiscreteJob, s *rng.Stream) float64 {
	plain := make([]Job, len(jobs))
	for i, j := range jobs {
		plain[i] = Job{ID: j.ID, Weight: j.Weight, Dist: j.Law}
	}
	return SimulateSingleMachine(plain, WSEPT(plain), s)
}

// WSEPTDiscrete returns the WSEPT order of the discrete job class (the
// static sequence SimulateNonpreemptiveWSEPTDiscrete dispatches).
func WSEPTDiscrete(jobs []DiscreteJob) Order {
	plain := make([]Job, len(jobs))
	for i, j := range jobs {
		plain[i] = Job{ID: j.ID, Weight: j.Weight, Dist: j.Law}
	}
	return WSEPT(plain)
}
