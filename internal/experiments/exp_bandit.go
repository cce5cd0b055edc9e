package experiments

import (
	"fmt"

	"stochsched/internal/bandit"
	"stochsched/internal/engine"
	"stochsched/internal/restless"
	"stochsched/internal/rng"
	"stochsched/internal/stats"
)

// E09: Gittins optimality on the product chain (Gittins–Jones 1974).
func runE09(cfg Config) (*Table, error) {
	s := rng.New(cfg.Seed)
	trials := 6
	if cfg.Quick {
		trials = 3
	}
	t := &Table{
		ID: "E09", Title: "Gittins rule vs DP optimum vs greedy (3 projects ≤ 4 states)",
		Ref:     "[19,18,47]",
		Columns: []string{"instance", "optimal value", "Gittins gap", "greedy gap"},
	}
	for trial := 0; trial < trials; trial++ {
		sub := s.Split()
		b := &bandit.Bandit{Beta: 0.8, Projects: []*bandit.Project{
			bandit.RandomProject(2+sub.Intn(3), sub.Split()),
			bandit.RandomProject(2+sub.Intn(3), sub.Split()),
			bandit.RandomProject(2+sub.Intn(3), sub.Split()),
		}}
		opt, _, err := bandit.OptimalValue(b)
		if err != nil {
			return nil, err
		}
		indices := make([][]float64, len(b.Projects))
		for i, p := range b.Projects {
			g, err := bandit.GittinsRestart(p, b.Beta)
			if err != nil {
				return nil, err
			}
			indices[i] = g
		}
		gv, err := bandit.PolicyValue(b, bandit.IndexPolicy(indices))
		if err != nil {
			return nil, err
		}
		mv, err := bandit.PolicyValue(b, bandit.GreedyPolicy(b))
		if err != nil {
			return nil, err
		}
		// Worst-state gaps across the product space.
		worstG, worstM := 0.0, 0.0
		for st := range opt {
			if g := stats.RelGap(opt[st], gv[st]); g > worstG {
				worstG = g
			}
			if g := stats.RelGap(opt[st], mv[st]); g > worstM {
				worstM = g
			}
		}
		t.AddRow(fmt.Sprintf("#%d", trial+1), f(opt[0]), pct(worstG), pct(worstM))
	}
	t.Notes = "Gittins gap is numerically zero from every start state; greedy loses up to several percent"
	return t, nil
}

// E10: switching costs break the Gittins rule (Asawa–Teneketzis 1996).
func runE10(cfg Config) (*Table, error) {
	s := rng.New(cfg.Seed)
	instances := 8
	if cfg.Quick {
		instances = 3
	}
	t := &Table{
		ID: "E10", Title: "Gittins suboptimality vs switching cost (2 projects ≤ 3 states)",
		Ref:     "[2]",
		Columns: []string{"switch cost", "mean rel gap", "max rel gap"},
	}
	type inst struct {
		b   *bandit.Bandit
		pol bandit.Policy
	}
	var insts []inst
	for k := 0; k < instances; k++ {
		sub := s.Split()
		b := &bandit.Bandit{Beta: 0.85, Projects: []*bandit.Project{
			bandit.RandomProject(2+sub.Intn(2), sub.Split()),
			bandit.RandomProject(2+sub.Intn(2), sub.Split()),
		}}
		indices := make([][]float64, 2)
		for i, p := range b.Projects {
			g, err := bandit.GittinsRestart(p, b.Beta)
			if err != nil {
				return nil, err
			}
			indices[i] = g
		}
		insts = append(insts, inst{b: b, pol: bandit.IndexPolicy(indices)})
	}
	for _, cost := range []float64{0, 0.1, 0.2, 0.4, 0.8} {
		var mean stats.Running
		maxGap := 0.0
		for _, in := range insts {
			opt, _, err := bandit.SwitchingOptimalValue(in.b, cost)
			if err != nil {
				return nil, err
			}
			gv, err := bandit.SwitchingPolicyValue(in.b, cost, in.pol)
			if err != nil {
				return nil, err
			}
			for st := range opt {
				g := stats.RelGap(opt[st], gv[st])
				mean.Add(g)
				if g > maxGap {
					maxGap = g
				}
			}
		}
		t.AddRow(f2(cost), pct(mean.Mean()), pct(maxGap))
	}
	t.Notes = "gap is zero at cost 0 (classical optimality) and grows with the switching penalty"
	return t, nil
}

// E11: Whittle index policy and the LP relaxation bound on the
// machine-repair fleet (Whittle 1988).
func runE11(cfg Config) (*Table, error) {
	s := rng.New(cfg.Seed)
	p, err := restless.MachineRepair(5, 0.3, 0.6, []float64{1, 0.85, 0.55, 0.25, 0})
	if err != nil {
		return nil, err
	}
	widx, err := restless.WhittleIndex(p, 0.99)
	if err != nil {
		return nil, err
	}
	horizon, reps := 6000, 8
	if cfg.Quick {
		horizon, reps = 1500, 3
	}
	t := &Table{
		ID: "E11", Title: "Whittle rule vs LP bound vs myopic (machine repair, M = N/4)",
		Ref:     "[48]",
		Columns: []string{"N", "LP bound /N", "Whittle /N", "myopic /N", "random /N"},
	}
	for _, n := range []int{4, 8, 16} {
		fleet := &restless.Fleet{Type: p, N: n, M: n / 4}
		bound, err := restless.FleetUpperBound(p, n, n/4)
		if err != nil {
			return nil, err
		}
		var est [3]stats.Running // Whittle, myopic, then the random crew
		for i, score := range [][]float64{widx, restless.MyopicScore(p)} {
			if err := engine.ReplicateReduce(cfg.Context(), cfg.Pool, reps, s.Split(), func(sub *rng.Stream) (float64, error) {
				return fleet.SimulateStaticPriority(score, horizon, horizon/5, sub)
			}, est[i].Add); err != nil {
				return nil, err
			}
		}
		if err := engine.ReplicateReduce(cfg.Context(), cfg.Pool, reps, s.Split(), func(sub *rng.Stream) (float64, error) {
			return fleet.SimulateRandomPolicy(horizon, horizon/5, sub)
		}, est[2].Add); err != nil {
			return nil, err
		}
		nf := float64(n)
		t.AddRow(fmt.Sprint(n), f(bound/nf), f(est[0].Mean()/nf), f(est[1].Mean()/nf), f(est[2].Mean()/nf))
	}
	t.Notes = "both index policies (Whittle, myopic) operate near the unattainable relaxation bound on this instance; the random crew lags far behind"
	return t, nil
}

// E12: Weber–Weiss asymptotic optimality — relative gap to the LP bound
// shrinks as N grows at fixed activation fraction.
func runE12(cfg Config) (*Table, error) {
	s := rng.New(cfg.Seed)
	p, err := restless.MachineRepair(5, 0.3, 0.6, []float64{1, 0.85, 0.55, 0.25, 0})
	if err != nil {
		return nil, err
	}
	widx, err := restless.WhittleIndex(p, 0.99)
	if err != nil {
		return nil, err
	}
	horizon, reps := 8000, 6
	sizes := []int{4, 8, 16, 32, 64}
	if cfg.Quick {
		horizon, reps = 2000, 3
		sizes = []int{4, 16, 48}
	}
	t := &Table{
		ID: "E12", Title: "Whittle asymptotic optimality: rel gap to LP bound, M/N = 1/4",
		Ref:     "[44]",
		Columns: []string{"N", "LP bound", "Whittle avg", "rel gap"},
	}
	for _, n := range sizes {
		fleet := &restless.Fleet{Type: p, N: n, M: n / 4}
		bound, err := restless.FleetUpperBound(p, n, n/4)
		if err != nil {
			return nil, err
		}
		var w stats.Running
		if err := engine.ReplicateReduce(cfg.Context(), cfg.Pool, reps, s.Split(), func(sub *rng.Stream) (float64, error) {
			return fleet.SimulateStaticPriority(widx, horizon, horizon/5, sub)
		}, w.Add); err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(n), f(bound), f(w.Mean()), pct((bound-w.Mean())/bound))
	}
	t.Notes = "the relative gap decreases toward 0 with N, as Weber–Weiss prove under their ergodicity condition"
	return t, nil
}

// E13: the first-order primal–dual heuristic is competitive with Whittle
// (Bertsimas–Niño-Mora 2000).
func runE13(cfg Config) (*Table, error) {
	s := rng.New(cfg.Seed)
	instances := 5
	horizon, reps := 5000, 5
	if cfg.Quick {
		instances, horizon, reps = 2, 1500, 2
	}
	t := &Table{
		ID: "E13", Title: "Primal–dual index vs Whittle vs myopic on random restless projects (N=12, M=3)",
		Ref:     "[7]",
		Columns: []string{"instance", "LP bound", "Whittle", "primal–dual", "myopic"},
	}
	for k := 0; k < instances; k++ {
		p := restless.RandomProject(4, s.Split())
		fleet := &restless.Fleet{Type: p, N: 12, M: 3}
		bound, err := restless.FleetUpperBound(p, 12, 3)
		if err != nil {
			return nil, err
		}
		widx, err := restless.WhittleIndex(p, 0.99)
		if err != nil {
			return nil, err
		}
		sol, err := restless.SolveRelaxation(p, 0.25)
		if err != nil {
			return nil, err
		}
		var est [3]stats.Running // Whittle, primal–dual, then myopic
		for i, score := range [][]float64{widx, sol.PDIndex, restless.MyopicScore(p)} {
			if err := engine.ReplicateReduce(cfg.Context(), cfg.Pool, reps, s.Split(), func(sub *rng.Stream) (float64, error) {
				return fleet.SimulateStaticPriority(score, horizon, horizon/5, sub)
			}, est[i].Add); err != nil {
				return nil, err
			}
		}
		t.AddRow(fmt.Sprintf("#%d", k+1), f(bound), f(est[0].Mean()), f(est[1].Mean()), f(est[2].Mean()))
	}
	t.Notes = "both index heuristics approach the LP bound; primal–dual tracks Whittle closely at a fraction of the computation"
	return t, nil
}
