package experiments

import (
	"fmt"
	"math"

	"stochsched/internal/dist"
	"stochsched/internal/engine"
	"stochsched/internal/linalg"
	"stochsched/internal/queueing"
	"stochsched/internal/rng"
	"stochsched/internal/stats"
)

// threeClassSystem builds a 3-class M/M/1 scaled to total load rho.
func threeClassSystem(rho float64) *queueing.MG1 {
	base := []struct {
		mu, c, share float64
	}{
		{mu: 3, c: 5, share: 0.3},
		{mu: 1.5, c: 2, share: 0.3},
		{mu: 0.8, c: 1, share: 0.4},
	}
	m := &queueing.MG1{}
	for i, b := range base {
		m.Classes = append(m.Classes, queueing.Class{
			Name:        fmt.Sprintf("c%d", i+1),
			ArrivalRate: rho * b.share * b.mu,
			Service:     dist.Exponential{Rate: b.mu},
			HoldCost:    b.c,
		})
	}
	return m
}

// E14: the cµ rule in the multiclass M/G/1, validated against Cobham.
func runE14(cfg Config) (*Table, error) {
	s := rng.New(cfg.Seed)
	horizon, reps := 30000.0, 6
	if cfg.Quick {
		horizon, reps = 5000.0, 3
	}
	t := &Table{
		ID: "E14", Title: "cµ rule in a 3-class M/M/1: exact Cobham vs simulation vs baselines",
		Ref:     "[15]",
		Columns: []string{"ρ", "cµ (exact)", "cµ (sim)", "FIFO (exact)", "reverse-cµ (exact)", "cµ saves"},
	}
	for _, rho := range []float64{0.5, 0.7, 0.9} {
		m := threeClassSystem(rho)
		order := m.CMuOrder()
		_, lC, err := m.ExactPriority(order)
		if err != nil {
			return nil, err
		}
		cmuExact := m.HoldingCostRate(lC)
		rev := []int{order[2], order[1], order[0]}
		_, lR, err := m.ExactPriority(rev)
		if err != nil {
			return nil, err
		}
		revExact := m.HoldingCostRate(lR)
		_, lF := m.ExactFIFO()
		fifoExact := m.HoldingCostRate(lF)
		var rep queueing.ReplicatedResult
		if err := engine.ReplicateReduce(cfg.Context(), cfg.Pool, reps, s.Split(), func(sub *rng.Stream) (*queueing.SimResult, error) {
			return m.Simulate(queueing.Priority{Orders: [][]int{order}}, horizon, horizon/10, sub)
		}, rep.Add); err != nil {
			return nil, err
		}
		t.AddRow(f2(rho), f(cmuExact), ci(rep.CostRate.Mean(), rep.CostRate.CI95()),
			f(fifoExact), f(revExact), pct((revExact-cmuExact)/revExact))
	}
	t.Notes = "cµ is the exhaustive-best static priority at every load; simulation matches Cobham within CI"
	return t, nil
}

// E15: Klimov's rule with Markovian feedback (Klimov 1974).
func runE15(cfg Config) (*Table, error) {
	s := rng.New(cfg.Seed)
	k := &queueing.KlimovNetwork{
		Classes: []queueing.Class{
			{Name: "A", ArrivalRate: 0.15, Service: dist.Exponential{Rate: 3}, HoldCost: 1},
			{Name: "B", ArrivalRate: 0.1, Service: dist.Exponential{Rate: 2}, HoldCost: 3},
			{Name: "C", ArrivalRate: 0.05, Service: dist.Exponential{Rate: 1}, HoldCost: 2},
		},
		Feedback: linalg.FromRows([][]float64{
			{0, 0.4, 0.1},
			{0.2, 0, 0.3},
			{0, 0.1, 0},
		}),
	}
	_, korder, err := k.KlimovIndices()
	if err != nil {
		return nil, err
	}
	horizon, reps := 30000.0, 6
	if cfg.Quick {
		horizon, reps = 6000.0, 3
	}
	t := &Table{
		ID: "E15", Title: "Klimov network: every static priority order (simulated cost)",
		Ref:     "[24]",
		Columns: []string{"priority order", "Σ c·E[L]", "95% CI", "Klimov's?"},
	}
	orders := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, o := range orders {
		var rep queueing.ReplicatedResult
		if err := engine.ReplicateReduce(cfg.Context(), cfg.Pool, reps, s.Split(), func(sub *rng.Stream) (*queueing.SimResult, error) {
			return k.Simulate(o, horizon, horizon/10, sub)
		}, rep.Add); err != nil {
			return nil, err
		}
		mark := ""
		if o[0] == korder[0] && o[1] == korder[1] && o[2] == korder[2] {
			mark = "← Klimov"
		}
		t.AddRow(fmt.Sprint(o), f(rep.CostRate.Mean()), f(rep.CostRate.CI95()), mark)
	}
	t.Notes = fmt.Sprintf("Klimov's adaptive-greedy order %v attains the minimum simulated cost", korder)
	return t, nil
}

// E16: Klimov/cµ on parallel servers approaches the fast-single-server
// bound in heavy traffic (Glazebrook–Niño-Mora 2001).
func runE16(cfg Config) (*Table, error) {
	s := rng.New(cfg.Seed)
	horizon, reps := 30000.0, 6
	if cfg.Quick {
		horizon, reps = 6000.0, 3
	}
	t := &Table{
		ID: "E16", Title: "cµ on M/M/3 vs fast-single-server bound across loads",
		Ref:     "[22]",
		Columns: []string{"ρ/m", "cµ sim", "fast-server bound", "rel gap"},
	}
	for _, scale := range []float64{0.55, 0.9, 1.2, 1.35} {
		m := &queueing.MMm{
			Servers: 3,
			Classes: []queueing.Class{
				{Name: "hi", ArrivalRate: 1.2 * scale, Service: dist.Exponential{Rate: 1.5}, HoldCost: 3},
				{Name: "lo", ArrivalRate: 1.0 * scale, Service: dist.Exponential{Rate: 1.0}, HoldCost: 1},
			},
		}
		bound, err := m.FastSingleServerBound()
		if err != nil {
			return nil, err
		}
		var rep queueing.ReplicatedResult
		if err := engine.ReplicateReduce(cfg.Context(), cfg.Pool, reps, s.Split(), func(sub *rng.Stream) (*queueing.SimResult, error) {
			return m.Simulate(m.CMuOrder(), horizon, horizon/10, sub)
		}, rep.Add); err != nil {
			return nil, err
		}
		cost := &rep.CostRate
		load := (1.2*scale/1.5 + 1.0*scale) / 3
		t.AddRow(f2(load), ci(cost.Mean(), cost.CI95()), f(bound), pct((cost.Mean()-bound)/cost.Mean()))
	}
	t.Notes = "the relative gap to the relaxation closes as traffic intensifies — heavy-traffic optimality of the index rule"
	return t, nil
}

// E17: Kleinrock's conservation law across disciplines.
func runE17(cfg Config) (*Table, error) {
	s := rng.New(cfg.Seed)
	m := &queueing.MG1{Classes: []queueing.Class{
		{Name: "A", ArrivalRate: 0.3, Service: dist.Exponential{Rate: 2}, HoldCost: 4},
		{Name: "B", ArrivalRate: 0.2, Service: dist.Erlang{K: 2, Rate: 2.5}, HoldCost: 1},
	}}
	horizon, reps := 40000.0, 6
	if cfg.Quick {
		horizon, reps = 8000.0, 3
	}
	t := &Table{
		ID: "E17", Title: "Conservation law: Σ ρ_j Wq_j across work-conserving disciplines",
		Ref:     "[4,14]",
		Columns: []string{"discipline", "Σ ρ_j Wq_j (sim)", "invariant ρW0/(1−ρ)"},
	}
	rhs := m.KleinrockRHS()
	disciplines := []struct {
		name string
		pri  queueing.Priority
	}{
		{"FIFO", queueing.Priority{}},
		{"priority[0 1]", queueing.Priority{Orders: [][]int{{0, 1}}}},
		{"priority[1 0]", queueing.Priority{Orders: [][]int{{1, 0}}}},
		{"random-mix", queueing.Priority{Orders: [][]int{{0, 1}, {1, 0}}, Weights: []float64{0.5, 0.5}}},
	}
	s.Split() // unused, but the splits after it, and so the table, depend on it
	for _, d := range disciplines {
		rep := queueing.ReplicatedResult{Wq: make([]stats.Running, len(m.Classes))}
		if err := engine.ReplicateReduce(cfg.Context(), cfg.Pool, reps, s.Split(), func(sub *rng.Stream) (*queueing.SimResult, error) {
			return m.Simulate(d.pri, horizon, horizon/10, sub)
		}, rep.Add); err != nil {
			return nil, err
		}
		conserved := 0.0
		for j, c := range m.Classes {
			conserved += c.ArrivalRate * c.Service.Mean() * rep.Wq[j].Mean()
		}
		t.AddRow(d.name, f(conserved), f(rhs))
	}
	t.Notes = "all disciplines produce the same weighted delay sum — the polymatroid face the achievable region method builds on"
	return t, nil
}

// E18: the M/G/1 performance polytope — mixtures trace the segment between
// the two priority vertices (Coffman–Mitrani 1980).
func runE18(cfg Config) (*Table, error) {
	s := rng.New(cfg.Seed)
	m := &queueing.MG1{Classes: []queueing.Class{
		{Name: "A", ArrivalRate: 0.3, Service: dist.Exponential{Rate: 2}, HoldCost: 1},
		{Name: "B", ArrivalRate: 0.2, Service: dist.Exponential{Rate: 1}, HoldCost: 1},
	}}
	horizon, reps := 40000.0, 4
	if cfg.Quick {
		horizon, reps = 8000.0, 2
	}
	wqA, _, err := m.ExactPriority([]int{0, 1})
	if err != nil {
		return nil, err
	}
	wqB, _, err := m.ExactPriority([]int{1, 0})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "E18", Title: "Performance polytope: (Wq_A, Wq_B) under priority mixtures",
		Ref:     "[14,17]",
		Columns: []string{"P(A-priority)", "Wq_A", "Wq_B", "on segment?"},
	}
	t.AddRow("1.00 (vertex)", f(wqA[0]), f(wqA[1]), "vertex (exact)")
	for _, w := range []float64{0.75, 0.5, 0.25} {
		mix := queueing.Priority{Orders: [][]int{{0, 1}, {1, 0}}, Weights: []float64{w, 1 - w}}
		s.Split() // unused, but the splits after it, and so the table, depend on it
		rep := queueing.ReplicatedResult{Wq: make([]stats.Running, len(m.Classes))}
		if err := engine.ReplicateReduce(cfg.Context(), cfg.Pool, reps, s.Split(), func(sub *rng.Stream) (*queueing.SimResult, error) {
			return m.Simulate(mix, horizon, horizon/10, sub)
		}, rep.Add); err != nil {
			return nil, err
		}
		onSeg := "yes"
		if rep.Wq[0].Mean() < math.Min(wqA[0], wqB[0])-0.1 || rep.Wq[0].Mean() > math.Max(wqA[0], wqB[0])+0.1 {
			onSeg = "no"
		}
		t.AddRow(f2(w), f(rep.Wq[0].Mean()), f(rep.Wq[1].Mean()), onSeg)
	}
	t.AddRow("0.00 (vertex)", f(wqB[0]), f(wqB[1]), "vertex (exact)")
	t.Notes = "mixtures interpolate the vertices along the conservation-law segment: the achievable region is the polytope's base"
	return t, nil
}

// E19: Lu–Kumar instability under a bad priority rule (Bramson 1994
// context).
func runE19(cfg Config) (*Table, error) {
	s := rng.New(cfg.Seed)
	horizon := 4000.0
	if cfg.Quick {
		horizon = 1000.0
	}
	nw := queueing.LuKumar(1, 0.01, 0.6, 0.01, 0.6)
	bad, err := nw.Simulate(queueing.LuKumarBadPolicy(), horizon, 0, horizon/8, s.Split())
	if err != nil {
		return nil, err
	}
	good, err := nw.Simulate(queueing.LuKumarFCFSPolicy(), horizon, 0, horizon/8, s.Split())
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "E19", Title: "Lu–Kumar network: total jobs over time (loads 0.61/0.61 < 1)",
		Ref:     "[9]",
		Columns: []string{"t", "bad priority (2&4 first)", "stable order"},
	}
	for i := range bad.Trajectory {
		tm := float64(i) * horizon / 8
		goodV := "–"
		if i < len(good.Trajectory) {
			goodV = f(good.Trajectory[i])
		}
		t.AddRow(f(tm), f(bad.Trajectory[i]), goodV)
	}
	t.Notes = "nominal station loads are below 1, yet the bad priority rule's population grows linearly — the stability problem the survey highlights"
	return t, nil
}

// E20: the fluid draining problem recovers the cµ rule (Chen–Yao 1993).
func runE20(cfg Config) (*Table, error) {
	s := rng.New(cfg.Seed)
	trials := 5
	t := &Table{
		ID: "E20", Title: "Fluid drain: enumerated-optimal order vs cµ (4 classes)",
		Ref:     "[11,3]",
		Columns: []string{"instance", "best fluid cost", "cµ fluid cost", "cµ optimal?"},
	}
	for k := 0; k < trials; k++ {
		sub := s.Split()
		classes := make([]queueing.Class, 4)
		x0 := make([]float64, 4)
		for j := range classes {
			classes[j] = queueing.Class{
				Service:  dist.Exponential{Rate: 0.5 + 3*sub.Float64()},
				HoldCost: 0.2 + 2*sub.Float64(),
			}
			x0[j] = 0.5 + 5*sub.Float64()
		}
		_, best, err := queueing.BestFluidOrder(classes, x0)
		if err != nil {
			return nil, err
		}
		m := &queueing.MG1{Classes: classes}
		cmuVal, err := queueing.FluidDrainCost(classes, x0, m.CMuOrder())
		if err != nil {
			return nil, err
		}
		ok := "yes"
		if cmuVal > best+1e-9 {
			ok = "no"
		}
		t.AddRow(fmt.Sprintf("#%d", k+1), f(best), f(cmuVal), ok)
	}
	t.Notes = "the fluid heuristic reproduces the stochastic system's optimal index rule for linear costs"
	return t, nil
}

// E21: the discounted criterion preserves the index order (Tcha–Pliska
// 1977).
func runE21(cfg Config) (*Table, error) {
	s := rng.New(cfg.Seed)
	m := &queueing.MG1{Classes: []queueing.Class{
		{Name: "hi", ArrivalRate: 0.3, Service: dist.Exponential{Rate: 4}, HoldCost: 10},
		{Name: "lo", ArrivalRate: 0.4, Service: dist.Exponential{Rate: 0.8}, HoldCost: 0.5},
	}}
	k := queueing.NoFeedback(m)
	_, order, err := k.KlimovIndices()
	if err != nil {
		return nil, err
	}
	rev := []int{order[1], order[0]}
	reps := 40
	horizon := 1500.0
	if cfg.Quick {
		reps, horizon = 10, 600
	}
	t := &Table{
		ID: "E21", Title: "Discounted holding cost (r = 0.02): index order vs reverse (paired seeds)",
		Ref:     "[38]",
		Columns: []string{"policy", "E[∫ e^{−rt} c·n(t) dt]", "95% CI"},
	}
	var kl, rv, diff stats.Running
	err = engine.ReplicateReduce(cfg.Context(), cfg.Pool, reps, s.Split(),
		func(sub *rng.Stream) ([2]float64, error) {
			// Paired seeds: both policies see identical arrival/service draws.
			seed := sub.Uint64()
			a, err := k.SimulateDiscounted(order, 0.02, horizon, rng.New(seed))
			if err != nil {
				return [2]float64{}, err
			}
			b, err := k.SimulateDiscounted(rev, 0.02, horizon, rng.New(seed))
			if err != nil {
				return [2]float64{}, err
			}
			return [2]float64{a, b}, nil
		},
		func(ab [2]float64) {
			kl.Add(ab[0])
			rv.Add(ab[1])
			diff.Add(ab[1] - ab[0])
		})
	if err != nil {
		return nil, err
	}
	t.AddRow("Klimov/cµ order", f(kl.Mean()), f(kl.CI95()))
	t.AddRow("reverse order", f(rv.Mean()), f(rv.CI95()))
	t.AddRow("paired difference", f(diff.Mean()), f(diff.CI95()))
	t.Notes = "the index order dominates under discounting too, extending the average-cost result"
	return t, nil
}

// E22: polling regimes vs switchover magnitude (Levy–Sidi 1990).
func runE22(cfg Config) (*Table, error) {
	s := rng.New(cfg.Seed)
	horizon, reps := 15000.0, 5
	if cfg.Quick {
		horizon, reps = 4000.0, 2
	}
	t := &Table{
		ID: "E22", Title: "Polling with setups: cost by regime and switchover time",
		Ref:     "[25,32]",
		Columns: []string{"setup", "exhaustive", "gated", "1-limited"},
	}
	for _, setup := range []float64{0.1, 0.5, 1.0, 2.0} {
		row := []string{f2(setup)}
		for _, regime := range []queueing.PollingRegime{queueing.Exhaustive, queueing.Gated, queueing.Limited1} {
			p := &queueing.Polling{
				Queues: []queueing.Class{
					{Name: "q1", ArrivalRate: 0.25, Service: dist.Exponential{Rate: 1.2}, HoldCost: 1},
					{Name: "q2", ArrivalRate: 0.25, Service: dist.Exponential{Rate: 1.2}, HoldCost: 1},
				},
				Switch: dist.Deterministic{Value: setup},
				Regime: regime,
			}
			var rep queueing.ReplicatedResult
			if err := engine.ReplicateReduce(cfg.Context(), cfg.Pool, reps, s.Split(), func(sub *rng.Stream) (*queueing.SimResult, error) {
				return p.Simulate(horizon, horizon/10, sub)
			}, rep.Add); err != nil {
				return nil, err
			}
			row = append(row, f(rep.CostRate.Mean()))
		}
		t.AddRow(row...)
	}
	t.Notes = "exhaustive degrades most gracefully as setups grow; 1-limited pays a setup per job, saturates near setup 2.0 (its stability region shrinks with switchover time), and collapses"
	return t, nil
}
