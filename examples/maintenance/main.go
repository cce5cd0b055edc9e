// Machine maintenance: a restless-bandit fleet. N machines deteriorate
// whether or not they are attended (the "restless" feature Whittle added to
// the bandit model); a repair crew can service M per day. The Whittle index
// policy is compared against myopic and random crews, with the LP
// relaxation bound showing how little is left on the table.
package main

import (
	"context"
	"fmt"

	"stochsched/internal/engine"
	"stochsched/internal/restless"
	"stochsched/internal/rng"
	"stochsched/internal/stats"
)

func main() {
	// 5 deterioration levels; revenue decays with wear; repair costs 0.6.
	machine, err := restless.MachineRepair(5, 0.3, 0.6, []float64{1, 0.85, 0.55, 0.25, 0})
	if err != nil {
		panic(err)
	}

	rep, err := restless.CheckIndexability(machine, 0.95, -20, 20, 80)
	if err != nil {
		panic(err)
	}
	fmt.Println("indexable:", rep.Indexable)

	widx, err := restless.WhittleIndex(machine, 0.99)
	if err != nil {
		panic(err)
	}
	fmt.Println("Whittle index by deterioration level (repair urgency):")
	for st, v := range widx {
		fmt.Printf("  level %d: %+.4f\n", st, v)
	}

	s := rng.New(11)
	ctx := context.Background()
	pool := engine.NewPool(0) // all cores; results are identical at any parallelism
	const n, m = 20, 5
	fleet := &restless.Fleet{Type: machine, N: n, M: m}
	bound, err := restless.FleetUpperBound(machine, n, m)
	if err != nil {
		panic(err)
	}

	fmt.Printf("\nfleet of %d machines, crew capacity %d per day\n", n, m)
	fmt.Printf("%-18s %s\n", "policy", "avg daily profit")
	show := func(name string, sim func(*rng.Stream) (float64, error)) { // 8 runs of 8,000 days, 1,000 of burn-in
		var est stats.Running
		if err := engine.ReplicateReduce(ctx, pool, 8, s.Split(), sim, est.Add); err != nil {
			panic(err)
		}
		fmt.Printf("%-18s %.4f ± %.2g\n", name, est.Mean(), est.CI95())
	}
	myopic := restless.MyopicScore(machine)
	show("Whittle index", func(sub *rng.Stream) (float64, error) { return fleet.SimulateStaticPriority(widx, 8000, 1000, sub) })
	show("myopic", func(sub *rng.Stream) (float64, error) { return fleet.SimulateStaticPriority(myopic, 8000, 1000, sub) })
	show("random crew", func(sub *rng.Stream) (float64, error) { return fleet.SimulateRandomPolicy(8000, 1000, sub) })
	fmt.Printf("%-18s %.4f (not attainable: average-activation relaxation)\n", "LP upper bound", bound)
}
