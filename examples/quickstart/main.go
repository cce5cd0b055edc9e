// Quickstart: schedule a batch of stochastic jobs on one machine with
// Smith's WSEPT rule and verify by both exact computation and simulation —
// the smallest possible tour of the library.
package main

import (
	"context"
	"fmt"

	"stochsched/internal/batch"
	"stochsched/internal/dist"
	"stochsched/internal/engine"
	"stochsched/internal/rng"
	"stochsched/internal/stats"
)

func main() {
	// Four jobs with different laws, weights, and means.
	jobs := []batch.Job{
		{ID: 0, Weight: 3, Dist: dist.Exponential{Rate: 2}},    // mean 0.5, urgent
		{ID: 1, Weight: 1, Dist: dist.Uniform{Lo: 1, Hi: 3}},   // mean 2
		{ID: 2, Weight: 2, Dist: dist.Erlang{K: 3, Rate: 2}},   // mean 1.5
		{ID: 3, Weight: 1, Dist: dist.Deterministic{Value: 1}}, // mean 1
	}

	order := batch.WSEPT(jobs)
	fmt.Println("WSEPT order (job IDs, first = highest priority):", order)
	for _, j := range order {
		fmt.Printf("  job %d: weight %.1f, mean %.2f, Smith ratio %.2f (%v)\n",
			j, jobs[j].Weight, jobs[j].Mean(), jobs[j].SmithRatio(), jobs[j].Dist)
	}

	exact := batch.ExactWeightedFlowtime(jobs, order)
	fmt.Printf("\nexpected weighted flowtime (exact): %.4f\n", exact)

	s := rng.New(1)
	var est stats.Running
	if err := engine.ReplicateReduce(context.Background(), engine.NewPool(0), 20000, s, func(sub *rng.Stream) (float64, error) {
		return batch.SimulateSingleMachine(jobs, order, sub), nil
	}, est.Add); err != nil {
		panic(err)
	}
	fmt.Printf("simulated over 20000 runs:          %v\n", &est)

	_, best := batch.BestOrderExhaustive(jobs)
	fmt.Printf("exhaustive optimum over all 24 orders: %.4f (WSEPT matches: %v)\n",
		best, exact <= best+1e-9)
}
