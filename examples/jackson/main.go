// Jackson network: a two-station tandem of exponential queues, solved
// analytically by product form and verified by simulation through the
// scenario registry — the dual analytic/Monte Carlo surface the jackson
// kind serves over /v1/index and /v1/simulate.
package main

import (
	"context"
	"fmt"

	"stochsched/internal/dist"
	"stochsched/internal/engine"
	"stochsched/internal/queueing"
	"stochsched/internal/rng"
	"stochsched/internal/stats"
)

func main() {
	// Class 0 arrives externally at station 0 (rate 1, exponential mean
	// 0.5) and feeds class 1 at station 1 (exponential mean 0.4); class 1
	// exits. Loads: ρ0 = 0.5, ρ1 = 0.4 — a stable tandem.
	nw := &queueing.Network{
		Stations: 2,
		Classes: []queueing.NetClass{
			{Name: "upstream", Station: 0, ArrivalRate: 1,
				Service: dist.Exponential{Rate: 2}, Next: 1, HoldCost: 2},
			{Name: "downstream", Station: 1,
				Service: dist.Exponential{Rate: 2.5}, Next: -1, HoldCost: 1},
		},
	}
	if err := nw.Validate(); err != nil {
		panic(err)
	}

	// Product form: solve the traffic equations, then each station is an
	// independent M/M/1 — L = ρ/(1−ρ) exactly.
	lambda, err := nw.EffectiveRates()
	if err != nil {
		panic(err)
	}
	loads := nw.StationLoads()
	fmt.Println("traffic equations: effective class rates =", lambda)
	for st, rho := range loads {
		fmt.Printf("station %d: load %.3f, product-form L = %.4f\n", st, rho, rho/(1-rho))
	}

	// Simulate the same network under FCFS and compare the time-average
	// queue lengths against the analytic answer.
	pol := &queueing.NetworkPolicy{StationOrder: [][]int{{0}, {1}}}
	rep := queueing.ReplicatedResult{L: make([]stats.Running, len(nw.Classes))}
	if err := engine.ReplicateReduce(context.Background(), engine.NewPool(0), 24, rng.New(7), func(s *rng.Stream) (*queueing.SimResult, error) {
		return nw.Simulate(pol, 4000, 500, 0, s)
	}, rep.Add); err != nil {
		panic(err)
	}
	fmt.Println()
	for i := range nw.Classes {
		want := loads[nw.Classes[i].Station] / (1 - loads[nw.Classes[i].Station])
		fmt.Printf("class %-10s simulated L = %.4f (product form %.4f)\n",
			nw.Classes[i].Name, rep.L[i].Mean(), want)
	}
	fmt.Printf("holding-cost rate: %.4f ± %.4f\n", rep.CostRate.Mean(), rep.CostRate.CI95())
}
