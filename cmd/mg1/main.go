// Command mg1 simulates a multiclass M/G/1 queue under a chosen discipline
// and prints the simulated steady-state metrics next to the exact
// Pollaczek–Khinchine / Cobham values.
//
// Classes are given as repeated -class flags, "rate:serviceMean:holdCost"
// (exponential service):
//
//	mg1 -class 0.3:0.5:4 -class 0.2:1:1 -policy cmu -horizon 50000
//
// The simulation runs through pkg/client against an in-process policy
// service — the same /v1/simulate path (spec validation, canonical
// hashing, engine-backed replication) the daemon serves — and, for the cµ
// discipline, the exact delays come from the same /v1/index priority
// computation. Supported policies are the service's: cmu and fifo.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"strconv"
	"strings"

	"stochsched/internal/dist"
	"stochsched/internal/queueing"
	"stochsched/internal/service"
	"stochsched/pkg/api"
	"stochsched/pkg/client"
)

// classList accumulates -class flags as wire classes. Malformed specs,
// non-finite or nonpositive rates and means, and negative costs are
// rejected at parse time instead of producing a nonsensical simulation.
type classList []api.Class

func (c *classList) String() string { return fmt.Sprint(*c) }

func (c *classList) Set(v string) error {
	cl, err := parseClass(v)
	if err != nil {
		return err
	}
	*c = append(*c, cl)
	return nil
}

// parseClass parses the class shorthand "rate:serviceMean:holdCost"
// (exponential service). It rejects trailing garbage, missing or extra
// fields, and every error names the offending input.
func parseClass(v string) (api.Class, error) {
	parts := strings.Split(v, ":")
	if len(parts) != 3 {
		return api.Class{}, fmt.Errorf("class %q: want rate:serviceMean:holdCost", v)
	}
	names := [3]string{"rate", "serviceMean", "holdCost"}
	var f [3]float64
	for i, p := range parts {
		x, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || math.IsNaN(x) || math.IsInf(x, 0) {
			return api.Class{}, fmt.Errorf("class %q: bad %s %q", v, names[i], p)
		}
		f[i] = x
	}
	switch {
	case f[0] <= 0:
		return api.Class{}, fmt.Errorf("class %q: rate must be positive", v)
	case f[1] <= 0:
		return api.Class{}, fmt.Errorf("class %q: serviceMean must be positive", v)
	case f[2] < 0:
		return api.Class{}, fmt.Errorf("class %q: holdCost must be nonnegative", v)
	}
	return api.Class{Rate: f[0], ServiceMean: f[1], HoldCost: f[2]}, nil
}

// model builds the exponential-service queueing model behind the load
// factor and the exact FIFO values, which have no wire endpoint.
func model(classes []api.Class) (*queueing.MG1, error) {
	m := &queueing.MG1{}
	for i, c := range classes {
		name := c.Name
		if name == "" {
			name = fmt.Sprintf("c%d", i+1)
		}
		m.Classes = append(m.Classes, queueing.Class{
			Name:        name,
			ArrivalRate: c.Rate,
			Service:     dist.Exponential{Rate: 1 / c.ServiceMean},
			HoldCost:    c.HoldCost,
		})
	}
	return m, m.Validate()
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mg1", flag.ContinueOnError)
	var classes classList
	fs.Var(&classes, "class", "class spec rate:serviceMean:holdCost (repeatable)")
	policy := fs.String("policy", "cmu", "discipline: cmu or fifo")
	horizon := fs.Float64("horizon", 50000, "simulation horizon")
	reps := fs.Int("replications", 2, "independent replications to average (at least 2)")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage already printed; a clean exit, not a failure
		}
		return err
	}

	if len(classes) == 0 {
		classes = classList{
			{Name: "c1", Rate: 0.3, ServiceMean: 0.5, HoldCost: 4},
			{Name: "c2", Rate: 0.2, ServiceMean: 1, HoldCost: 1},
		}
		fmt.Fprintln(stdout, "(no -class flags: using the built-in 2-class demo system)")
	}
	sys := api.MG1{Classes: classes}
	if *policy != "cmu" && *policy != "fifo" {
		return fmt.Errorf("unknown policy %q (want cmu or fifo)", *policy)
	}
	m, err := model(classes)
	if err != nil {
		return err
	}

	ctx := context.Background()
	c := client.NewInProcess(service.New(service.Config{MaxReplications: -1, MaxSimWork: -1, MaxBodyBytes: -1}).Handler())
	sim, err := c.Simulate(ctx, &api.SimulateRequest{
		Kind: "mg1",
		MG1: &api.MG1Sim{
			Spec:    sys,
			Policy:  *policy,
			Horizon: *horizon,
			Burnin:  *horizon / 10,
		},
		Seed:         *seed,
		Replications: *reps,
	})
	if err != nil {
		return err
	}
	res := sim.MG1

	var wqE, lE []float64
	var costE float64
	if *policy == "cmu" {
		pr, err := c.Priority(ctx, &api.PriorityRequest{Kind: "mg1", MG1: &sys})
		if err != nil {
			return err
		}
		wqE, lE, costE = pr.Wq, pr.L, *pr.CostRate
	} else {
		wqE, lE = m.ExactFIFO()
		costE = m.HoldingCostRate(lE)
	}

	fmt.Fprintf(stdout, "policy %s, load ρ = %.3f  (spec %.12s…)\n\n", res.Policy, m.Load(), sim.SpecHash)
	fmt.Fprintf(stdout, "class   L(sim)    L(exact)  Wq(sim)   Wq(exact)\n")
	for j, cl := range m.Classes {
		fmt.Fprintf(stdout, "%-6s  %-8.4f  %-8.4f  %-8.4f  %-8.4f\n", cl.Name, res.L[j], lE[j], res.Wq[j], wqE[j])
	}
	fmt.Fprintf(stdout, "\nholding-cost rate: sim %.4f, exact %.4f\n", res.CostRateMean, costE)
	return nil
}
