package queueing

import "fmt"

// Single-station multiclass fluid model (Chen–Yao 1993): class j fluid
// drains at rate µ_j per unit of server effort; the draining problem starts
// from buffer levels x0 with no arrivals and asks for the effort allocation
// minimizing the total holding cost ∫ Σ c_j x_j(t) dt. Under a static
// priority order the trajectory is piecewise linear and the cost is exact in
// closed form; for linear costs the optimal order is cµ, so the fluid
// heuristic recovers the stochastic system's optimal rule — experiment E20.

// FluidDrainCost returns ∫₀^∞ Σ_j c_j x_j(t) dt when buffers x0 are drained
// under the static priority order (highest first) with unit total effort:
// the top nonempty class drains at its µ while the rest wait.
func FluidDrainCost(classes []Class, x0 []float64, order []int) (float64, error) {
	n := len(classes)
	if len(x0) != n || len(order) != n {
		return 0, fmt.Errorf("queueing: fluid dimensions mismatch")
	}
	x := append([]float64(nil), x0...)
	for _, v := range x {
		if v < 0 {
			return 0, fmt.Errorf("queueing: negative initial buffer")
		}
	}
	total := 0.0
	// Drain classes one at a time in priority order; while class k drains
	// for duration d, every untouched class contributes c_j x_j d.
	for pos, k := range order {
		if x[k] == 0 {
			continue
		}
		mu := 1 / classes[k].Service.Mean()
		d := x[k] / mu
		// Cost of the draining class: triangle ∫ c_k x_k(t) dt = c_k x_k d/2.
		total += classes[k].HoldCost * x[k] * d / 2
		// Cost of lower-priority (still full) classes over this interval.
		for _, j := range order[pos+1:] {
			total += classes[j].HoldCost * x[j] * d
		}
		x[k] = 0
	}
	return total, nil
}

// BestFluidOrder enumerates all priority orders for the draining problem
// and returns a minimizer with its cost. For linear holding costs this is
// the cµ order (Chen–Yao 1993).
func BestFluidOrder(classes []Class, x0 []float64) ([]int, float64, error) {
	n := len(classes)
	if n > 8 {
		return nil, 0, fmt.Errorf("queueing: fluid enumeration limited to 8 classes")
	}
	return bestOrder(n, func(order []int) (float64, error) {
		return FluidDrainCost(classes, x0, order)
	})
}
