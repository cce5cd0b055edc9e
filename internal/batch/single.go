package batch

import (
	"math"
	"sort"

	"stochsched/internal/rng"
)

// WSEPT returns the Shortest Weighted Expected Processing Time order:
// jobs sorted by nonincreasing Smith ratio w_i/E[p_i]. Ties break by job
// index for determinism. Rothkopf (1966) proved this order minimizes
// E[Σ w_i C_i] on a single machine over nonpreemptive nonanticipative
// policies.
func WSEPT(jobs []Job) Order {
	o := identityOrder(len(jobs))
	sort.SliceStable(o, func(a, b int) bool {
		return jobs[o[a]].SmithRatio() > jobs[o[b]].SmithRatio()
	})
	return o
}

// SEPT orders jobs by nondecreasing expected processing time.
func SEPT(jobs []Job) Order {
	o := identityOrder(len(jobs))
	sort.SliceStable(o, func(a, b int) bool {
		return jobs[o[a]].Mean() < jobs[o[b]].Mean()
	})
	return o
}

// LEPT orders jobs by nonincreasing expected processing time.
func LEPT(jobs []Job) Order {
	o := identityOrder(len(jobs))
	sort.SliceStable(o, func(a, b int) bool {
		return jobs[o[a]].Mean() > jobs[o[b]].Mean()
	})
	return o
}

// RandomOrder returns a uniformly random order.
func RandomOrder(n int, s *rng.Stream) Order {
	return Order(s.Perm(n))
}

func identityOrder(n int) Order {
	o := make(Order, n)
	for i := range o {
		o[i] = i
	}
	return o
}

// ExactWeightedFlowtime returns E[Σ w_i C_i] for a static nonpreemptive
// order on a single machine. Because completion times telescope,
// E[C_{(k)}] = Σ_{j ≤ k} E[p_{(j)}], the expectation depends only on the
// processing-time means — no simulation needed.
func ExactWeightedFlowtime(jobs []Job, o Order) float64 {
	if !validOrder(o, len(jobs)) {
		panic("batch: invalid order")
	}
	total := 0.0
	elapsed := 0.0
	for _, idx := range o {
		elapsed += jobs[idx].Mean()
		total += jobs[idx].Weight * elapsed
	}
	return total
}

// BestOrderExhaustive enumerates all n! static orders and returns a
// minimizer of the exact expected weighted flowtime together with its value.
// Use only for small n (≤ 10).
func BestOrderExhaustive(jobs []Job) (Order, float64) {
	best := math.Inf(1)
	var bestOrder Order
	Permutations(len(jobs), func(o Order) {
		if v := ExactWeightedFlowtime(jobs, o); v < best {
			best = v
			bestOrder = append(Order(nil), o...)
		}
	})
	return bestOrder, best
}

// SimulateSingleMachine runs one replication of the static order on a
// single machine and returns the realized Σ w_i C_i.
func SimulateSingleMachine(jobs []Job, o Order, s *rng.Stream) float64 {
	if !validOrder(o, len(jobs)) {
		panic("batch: invalid order")
	}
	total, clock := 0.0, 0.0
	for _, idx := range o {
		clock += jobs[idx].Dist.Sample(s)
		total += jobs[idx].Weight * clock
	}
	return total
}
