// Manufacturing workstation: the survey's motivating example. A single
// machine processes three part types arriving at random; the scheduling
// policy determines the average work-in-process cost. The cµ rule is
// compared against FIFO and the worst static priority, with exact Cobham
// values beside the simulation.
package main

import (
	"context"
	"fmt"

	"stochsched/internal/dist"
	"stochsched/internal/engine"
	"stochsched/internal/queueing"
	"stochsched/internal/rng"
)

func main() {
	ws := &queueing.MG1{Classes: []queueing.Class{
		{Name: "rush parts", ArrivalRate: 0.4, Service: dist.Erlang{K: 2, Rate: 8}, HoldCost: 10},
		{Name: "standard", ArrivalRate: 0.5, Service: dist.Exponential{Rate: 2}, HoldCost: 2},
		{Name: "bulk", ArrivalRate: 0.1, Service: dist.Uniform{Lo: 1, Hi: 3}, HoldCost: 1},
	}}
	if err := ws.Validate(); err != nil {
		panic(err)
	}
	fmt.Printf("workstation load ρ = %.3f\n\n", ws.Load())

	cmu := ws.CMuOrder()
	fmt.Println("cµ priority order (highest first):")
	for rank, j := range cmu {
		c := ws.Classes[j]
		fmt.Printf("  %d. %-12s cµ = %.2f\n", rank+1, c.Name, c.HoldCost/c.Service.Mean())
	}

	_, best, err := ws.BestPriorityExhaustive()
	if err != nil {
		panic(err)
	}

	s := rng.New(7)
	ctx := context.Background()
	pool := engine.NewPool(0) // all cores; results are identical at any parallelism
	fmt.Printf("\n%-22s %-14s %-14s\n", "policy", "cost (exact)", "cost (sim)")
	show := func(name string, order []int) { // a nil order is FIFO
		var exact float64
		var pri queueing.Priority
		if order != nil {
			_, l, err := ws.ExactPriority(order)
			if err != nil {
				panic(err)
			}
			exact = ws.HoldingCostRate(l)
			pri.Orders = [][]int{order}
		} else {
			_, l := ws.ExactFIFO()
			exact = ws.HoldingCostRate(l)
		}
		var rep queueing.ReplicatedResult // the cost rate alone
		if err := engine.ReplicateReduce(ctx, pool, 5, s.Split(), func(sub *rng.Stream) (*queueing.SimResult, error) {
			return ws.Simulate(pri, 30000, 3000, sub)
		}, rep.Add); err != nil {
			panic(err)
		}
		fmt.Printf("%-22s %-14.4f %.4f ± %.2g\n", name, exact, rep.CostRate.Mean(), rep.CostRate.CI95())
	}
	show("cµ rule", cmu)
	show("FIFO", nil)
	show("reverse cµ", []int{cmu[2], cmu[1], cmu[0]})
	fmt.Printf("\nexhaustive-best static priority cost: %.4f (cµ attains it)\n", best)
}
