// Sweep: drive the parameter-sweep subsystem as a library. A two-class
// M/G/1 workstation is swept over the class-1 arrival rate with the cµ rule
// compared against FIFO at every load level — the "which policy wins, and
// by how much, as the workload varies" question the paper's experiments
// answer, here in ~40 lines against the same backend the HTTP service uses.
//
// Every cell is memoized by canonical spec hash, the rows stream in grid
// order, and the output is byte-identical at any parallelism (run with
// different pool sizes and diff the NDJSON to see for yourself).
package main

import (
	"context"
	"encoding/json"
	"fmt"

	"stochsched/internal/engine"
	"stochsched/internal/service"
	"stochsched/internal/sweep"
	"stochsched/pkg/api"
)

func main() {
	base := `{
	  "kind": "mg1",
	  "mg1": {
	    "spec": {"classes": [
	      {"rate": 0.3, "service_mean": 0.5, "hold_cost": 4},
	      {"rate": 0.2, "service_mean": 1, "hold_cost": 1}
	    ]},
	    "policy": "cmu", "horizon": 1000, "burnin": 100
	  },
	  "seed": 7, "replications": 10
	}`
	req := &api.SweepRequest{
		Base: json.RawMessage(base),
		Grid: api.Grid{Axes: []api.Axis{
			{Path: "mg1.spec.classes.0.rate", Values: []float64{0.15, 0.25, 0.35, 0.45}},
		}},
		Policies: []string{"cmu", "fifo"},
	}

	// The service is the sweep backend: cells share its response cache, so
	// overlapping sweeps (or repeated points) cost one simulation each.
	be := service.New(service.Config{})
	plan, err := sweep.Expand(req, be, 0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("sweep %s…: %d points × %d policies = %d cells\n\n",
		plan.Hash[:12], plan.Points, len(plan.Policies), plan.Cells())

	fmt.Printf("%-8s %-12s %-22s %-22s %s\n", "point", "rate", "cmu", "fifo", "fifo regret")
	err = sweep.Execute(context.Background(), be, plan, engine.NewPool(0), nil, nil,
		func(row api.SweepRow, _ []byte) error {
			cmu, fifo := row.Policies[0], row.Policies[1]
			fmt.Printf("%-8d %-12.2f %8.4f ± %-10.4f %8.4f ± %-10.4f %+.4f\n",
				row.Point, row.Params[0].Value, cmu.Mean, cmu.CI95, fifo.Mean, fifo.CI95, fifo.Regret)
			return nil
		})
	if err != nil {
		panic(err)
	}
	fmt.Println("\ncµ wins at every load, and its edge grows with congestion —")
	fmt.Println("the cµ-rule optimality the survey's queueing-control section proves.")
}
