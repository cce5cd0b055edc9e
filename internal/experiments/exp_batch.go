package experiments

import (
	"fmt"
	"math"

	"stochsched/internal/batch"
	"stochsched/internal/dist"
	"stochsched/internal/engine"
	"stochsched/internal/rng"
	"stochsched/internal/stats"
)

// E01: WSEPT optimality on a single machine (Rothkopf 1966; Smith 1956).
func runE01(cfg Config) (*Table, error) {
	s := rng.New(cfg.Seed)
	n := 7
	jobs := make([]batch.Job, n)
	for i := range jobs {
		var d dist.Distribution
		switch i % 3 {
		case 0:
			d = dist.Exponential{Rate: 0.4 + 2.6*s.Float64()}
		case 1:
			d = dist.Erlang{K: 2 + s.Intn(3), Rate: 1 + 2*s.Float64()}
		default:
			lo := s.Float64()
			d = dist.Uniform{Lo: lo, Hi: lo + 0.5 + 2*s.Float64()}
		}
		jobs[i] = batch.Job{ID: i, Weight: 0.5 + 2*s.Float64(), Dist: d}
	}
	t := &Table{
		ID: "E01", Title: "WSEPT minimizes E[Σ wC] on one machine (n=7, mixed laws)",
		Ref:     "[34,37]",
		Columns: []string{"policy", "E[Σ wC] (exact)", "gap vs optimum"},
	}
	_, best := batch.BestOrderExhaustive(jobs)
	add := func(name string, o batch.Order) {
		v := batch.ExactWeightedFlowtime(jobs, o)
		t.AddRow(name, f(v), pct(stats.RelGap(v, best)))
	}
	add("WSEPT", batch.WSEPT(jobs))
	add("SEPT", batch.SEPT(jobs))
	add("LEPT", batch.LEPT(jobs))
	add("random", batch.RandomOrder(n, s))
	t.AddRow("exhaustive optimum", f(best), "0.00%")
	t.Notes = "the expectation depends only on means, so values are exact; WSEPT must match the optimum"
	return t, nil
}

// E02: Sevcik's preemptive index beats nonpreemptive WSEPT (Sevcik 1974).
func runE02(cfg Config) (*Table, error) {
	s := rng.New(cfg.Seed)
	mk := func(vals, probs []float64) dist.Discrete {
		d, err := dist.NewDiscrete(vals, probs)
		if err != nil {
			panic(err)
		}
		return d
	}
	jobs := []batch.DiscreteJob{
		{ID: 0, Weight: 1, Law: mk([]float64{1, 20}, []float64{0.8, 0.2})},
		{ID: 1, Weight: 1, Law: mk([]float64{1, 20}, []float64{0.8, 0.2})},
		{ID: 2, Weight: 1, Law: mk([]float64{5}, []float64{1})},
		{ID: 3, Weight: 2, Law: mk([]float64{2, 12}, []float64{0.6, 0.4})},
	}
	reps := 40000
	if cfg.Quick {
		reps = 4000
	}
	var sev, wsept stats.Running
	err := engine.ReplicateReduce(cfg.Context(), cfg.Pool, reps, s,
		func(sub *rng.Stream) ([2]float64, error) {
			v, err := batch.SimulateSevcik(jobs, sub.Split())
			if err != nil {
				return [2]float64{}, err
			}
			return [2]float64{v, batch.SimulateNonpreemptiveWSEPTDiscrete(jobs, sub.Split())}, nil
		},
		func(pair [2]float64) {
			sev.Add(pair[0])
			wsept.Add(pair[1])
		})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "E02", Title: "Preemptive Sevcik index vs nonpreemptive WSEPT (two-point jobs)",
		Ref:     "[35]",
		Columns: []string{"policy", "E[Σ wC]", "95% CI"},
	}
	t.AddRow("Sevcik (preemptive)", f(sev.Mean()), f(sev.CI95()))
	t.AddRow("WSEPT (nonpreemptive)", f(wsept.Mean()), f(wsept.CI95()))
	t.Notes = "preemption milestones let the scheduler abandon jobs revealed to be long"
	return t, nil
}

// E03/E04 share instances: exponential jobs, 2 machines, DP ground truth.
func runE0304(cfg Config, obj batch.Objective, id, title, ref string) (*Table, error) {
	s := rng.New(cfg.Seed)
	trials := 5
	t := &Table{
		ID: id, Title: title, Ref: ref,
		Columns: []string{"instance", "optimal (DP)", "SEPT", "LEPT", "random", "index-policy gap"},
	}
	for trial := 0; trial < trials; trial++ {
		n := 6
		rates := make([]float64, n)
		jobs := make([]batch.Job, n)
		for i := range rates {
			rates[i] = 0.3 + 2.7*s.Float64()
			jobs[i] = batch.Job{ID: i, Weight: 1, Dist: dist.Exponential{Rate: rates[i]}}
		}
		opt, err := batch.ExpOptimalDP(rates, 2, obj)
		if err != nil {
			return nil, err
		}
		sept, err := batch.ExpPolicyValue(rates, 2, batch.SEPT(jobs), obj)
		if err != nil {
			return nil, err
		}
		lept, err := batch.ExpPolicyValue(rates, 2, batch.LEPT(jobs), obj)
		if err != nil {
			return nil, err
		}
		rnd, err := batch.ExpPolicyValue(rates, 2, batch.RandomOrder(n, s), obj)
		if err != nil {
			return nil, err
		}
		indexVal := sept
		if obj == batch.Makespan {
			indexVal = lept
		}
		t.AddRow(fmt.Sprintf("#%d", trial+1), f(opt), f(sept), f(lept), f(rnd), pct(stats.RelGap(indexVal, opt)))
	}
	if obj == batch.Flowtime {
		t.Notes = "SEPT attains the DP optimum (Glazebrook 1979); all values exact via subset DP"
	} else {
		t.Notes = "LEPT attains the DP optimum (Bruno–Downey–Frederickson 1981); all values exact"
	}
	return t, nil
}

func runE03(cfg Config) (*Table, error) {
	return runE0304(cfg, batch.Flowtime, "E03",
		"SEPT minimizes E[ΣC] on 2 machines, exponential jobs (DP-verified)", "[20,43]")
}

func runE04(cfg Config) (*Table, error) {
	return runE0304(cfg, batch.Makespan, "E04",
		"LEPT minimizes E[Cmax] on 2 machines, exponential jobs (DP-verified)", "[10]")
}

// E05: SEPT/LEPT across the hazard-rate regimes via a Weibull shape sweep
// (Weber 1982).
func runE05(cfg Config) (*Table, error) {
	s := rng.New(cfg.Seed)
	reps := 8000
	if cfg.Quick {
		reps = 800
	}
	t := &Table{
		ID: "E05", Title: "Weibull shape sweep: SEPT vs LEPT on 3 machines (n=12)",
		Ref:     "[41]",
		Columns: []string{"shape k", "hazard", "SEPT flow", "LEPT flow", "flow winner", "SEPT mksp", "LEPT mksp", "mksp winner"},
	}
	for _, shape := range []float64{0.5, 0.75, 1.0, 1.5, 2.5} {
		jobs := make([]batch.Job, 12)
		sub := s.Split()
		for i := range jobs {
			scale := 0.5 + 2*sub.Float64()
			jobs[i] = batch.Job{ID: i, Weight: 1, Dist: dist.Weibull{K: shape, Lambda: scale}}
		}
		in := &batch.Instance{Jobs: jobs, Machines: 3}
		var est [2]batch.ParallelEstimate // SEPT, then LEPT
		for i, o := range []batch.Order{batch.SEPT(jobs), batch.LEPT(jobs)} {
			if err := engine.ReplicateReduce(cfg.Context(), cfg.Pool, reps, s.Split(), func(sub *rng.Stream) (batch.ParallelResult, error) {
				return batch.SimulateList(in, o, sub), nil
			}, est[i].Add); err != nil {
				return nil, err
			}
		}
		se, le := &est[0], &est[1]
		hazard := dist.MonotoneHazard(jobs[0].Dist, 10, 0.01)
		flowWinner := "SEPT"
		if le.Flowtime.Mean() < se.Flowtime.Mean() {
			flowWinner = "LEPT"
		}
		mkWinner := "SEPT"
		if le.Makespan.Mean() < se.Makespan.Mean() {
			mkWinner = "LEPT"
		}
		t.AddRow(f2(shape), hazard,
			f(se.Flowtime.Mean()), f(le.Flowtime.Mean()), flowWinner,
			f(se.Makespan.Mean()), f(le.Makespan.Mean()), mkWinner)
	}
	t.Notes = "flowtime favours SEPT throughout; makespan favours LEPT, most strongly in the DHR regime (k<1)"
	return t, nil
}

// E06: the Coffman–Hofri–Weiss reversal — SEPT suboptimal for two-point
// jobs on two machines, certified by exact enumeration.
func runE06(cfg Config) (*Table, error) {
	s := rng.New(cfg.Seed)
	t := &Table{
		ID: "E06", Title: "SEPT reversal with two-point jobs on 2 machines (exact)",
		Ref:     "[13]",
		Columns: []string{"instance", "SEPT E[ΣC]", "best order E[ΣC]", "SEPT excess"},
	}
	found := 0
	for trial := 0; trial < 2000 && found < 3; trial++ {
		jobs := make([]batch.Job, 4)
		for i := range jobs {
			a := 0.1 + 2*s.Float64()
			b := a + 0.5 + 20*s.Float64()
			pa := 0.5 + 0.49*s.Float64()
			jobs[i] = batch.Job{ID: i, Weight: 1, Dist: dist.TwoPoint{A: a, B: b, PA: pa}}
		}
		in := &batch.Instance{Jobs: jobs, Machines: 2}
		septRes, err := batch.ExactParallelDiscrete(in, batch.SEPT(jobs))
		if err != nil {
			return nil, err
		}
		best := math.Inf(1)
		batch.Permutations(4, func(o batch.Order) {
			r, err2 := batch.ExactParallelDiscrete(in, o)
			if err2 == nil && r.Flowtime < best {
				best = r.Flowtime
			}
		})
		if best < septRes.Flowtime-1e-9 {
			found++
			t.AddRow(fmt.Sprintf("#%d", found), f(septRes.Flowtime), f(best),
				pct(stats.RelGap(septRes.Flowtime, best)))
		}
	}
	t.Notes = fmt.Sprintf("%d reversal instances found by seeded search; values exact by support enumeration", found)
	return t, nil
}

// E07: the Weiss turnpike — the WSEPT list policy's absolute gap over the
// true optimum stays bounded as n grows, so its relative gap vanishes
// (Weiss 1992). Exponential jobs admit an exact optimum via the weighted
// subset DP, so both columns are exact (no Monte Carlo) up to n = 16.
func runE07(cfg Config) (*Table, error) {
	s := rng.New(cfg.Seed)
	sizes := []int{4, 6, 8, 10, 12, 14, 16}
	instances := 5
	if cfg.Quick {
		sizes = []int{4, 8, 12}
		instances = 2
	}
	t := &Table{
		ID: "E07", Title: "WSEPT turnpike on 2 machines: exact gap to the DP optimum (exp jobs)",
		Ref:     "[46]",
		Columns: []string{"n", "mean optimal", "mean WSEPT", "mean abs gap", "mean rel gap"},
	}
	for _, n := range sizes {
		var opt, val, gap, rel stats.Running
		for k := 0; k < instances; k++ {
			sub := s.Split()
			rates := make([]float64, n)
			weights := make([]float64, n)
			for i := range rates {
				rates[i] = 0.3 + 2.7*sub.Float64()
				weights[i] = 0.5 + 1.5*sub.Float64()
			}
			o, err := batch.ExpOptimalWeightedDP(rates, weights, 2)
			if err != nil {
				return nil, err
			}
			v, err := batch.ExpPolicyValueWeighted(rates, weights, 2, batch.WMuOrder(rates, weights))
			if err != nil {
				return nil, err
			}
			opt.Add(o)
			val.Add(v)
			gap.Add(v - o)
			rel.Add((v - o) / o)
		}
		t.AddRow(fmt.Sprint(n), f(opt.Mean()), f(val.Mean()), f(gap.Mean()), pct(rel.Mean()))
	}
	t.Notes = "the absolute gap stays O(1) while the optimum grows like n², so the relative gap vanishes — Weiss's turnpike property, here with both columns exact"
	return t, nil
}

// E08: HLF on in-tree precedence (Papadimitriou–Tsitsiklis 1987).
func runE08(cfg Config) (*Table, error) {
	s := rng.New(cfg.Seed)
	reps := 4000
	sizes := []int{12, 30, 80, 200}
	if cfg.Quick {
		reps = 500
		sizes = []int{12, 60}
	}
	t := &Table{
		ID: "E08", Title: "HLF on random in-trees, 3 machines, exp(1) jobs",
		Ref:     "[31]",
		Columns: []string{"n", "optimal (DP)", "HLF", "LLF", "random", "HLF rel gap"},
	}
	for _, n := range sizes {
		tree := batch.RandomInTree(n, s.Split())
		// Per-replication cost grows superlinearly in n; scale replication
		// counts down so the sweep stays balanced.
		r := reps
		if scaled := 40 * reps / n; scaled < r {
			r = scaled
		}
		if r < 200 {
			r = 200
		}
		var est [3]stats.Running // HLF, LLF, then random
		for i, sel := range []batch.TreeSelector{batch.HLF, batch.LLF, batch.RandomSelector} {
			if err := engine.ReplicateReduce(cfg.Context(), cfg.Pool, r, s.Split(), func(sub *rng.Stream) (float64, error) {
				return batch.SimulateTreeMakespan(tree, 3, 1, sel, sub), nil
			}, est[i].Add); err != nil {
				return nil, err
			}
		}
		optStr, gapStr := "–", "–"
		if n <= 14 {
			opt, err := batch.TreeOptimalDP(tree, 3, 1)
			if err != nil {
				return nil, err
			}
			hlfExact, err := batch.TreePolicyDP(tree, 3, 1, batch.HLF)
			if err != nil {
				return nil, err
			}
			optStr = f(opt)
			gapStr = pct(stats.RelGap(hlfExact, opt))
		}
		t.AddRow(fmt.Sprint(n), optStr, f(est[0].Mean()), f(est[1].Mean()), f(est[2].Mean()), gapStr)
	}
	t.Notes = "HLF dominates LLF/random at every size; exact DP gap shown where the subset DP is feasible"
	return t, nil
}
