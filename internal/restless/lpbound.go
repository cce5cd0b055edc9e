package restless

import (
	"fmt"

	"stochsched/internal/linalg"
	"stochsched/internal/lp"
	"stochsched/internal/markov"
)

// The Whittle relaxation: requiring m of N projects active *on average*
// decouples the fleet into per-project occupation-measure LPs. For N iid
// copies with activation fraction alpha = m/N, the per-project LP is
//
//	max  Σ_{i,a} R_a(i) x(i,a)
//	s.t. Σ_a x(j,a) = Σ_{i,a} x(i,a) P_a(i,j)   ∀ j   (balance)
//	     Σ_{i,a} x(i,a) = 1                            (normalization)
//	     Σ_i x(i,1) = alpha                            (average activation)
//	     x ≥ 0,
//
// and N times its optimal value upper-bounds the long-run average reward of
// every policy that activates exactly m projects each epoch (Whittle 1988;
// Bertsimas–Niño-Mora 2000).

// RelaxationSolution carries the per-project LP solution.
type RelaxationSolution struct {
	ValuePerProject float64
	X               [][2]float64 // occupation measure x[state][action]
	// PDIndex is the first-order primal–dual score per state: the reduced-
	// cost advantage of the active over the passive action. Larger means
	// activating in that state costs less optimality in the relaxed
	// solution — the index heuristic of Bertsimas–Niño-Mora (2000) in its
	// first-order form.
	PDIndex []float64
}

// SolveRelaxation solves the per-project average-reward LP with activation
// fraction alpha ∈ [0, 1].
//
// ValuePerProject and X come from the exact LP. PDIndex is computed from a
// second solve with ergodically perturbed dynamics (each row mixed with the
// uniform distribution at weight 1e-3): states the relaxed optimum never
// visits have degenerate, non-unique duals in the exact LP, so their raw
// reduced costs carry no ranking information; the perturbation forces every
// state to be visited and pins the duals down without materially moving the
// index values.
func SolveRelaxation(p *Project, alpha float64) (*RelaxationSolution, error) {
	sol, err := solveRelaxationLP(p, alpha)
	if err != nil {
		return nil, err
	}
	pert, err := solveRelaxationLP(perturb(p, 1e-3), alpha)
	if err != nil {
		return nil, fmt.Errorf("restless: perturbed index solve: %w", err)
	}
	sol.PDIndex = pert.PDIndex
	return sol, nil
}

// perturb mixes every transition row with the uniform distribution.
func perturb(p *Project, eps float64) *Project {
	n := p.N()
	out := &Project{}
	for a := 0; a < 2; a++ {
		m := linalg.NewMatrix(n, n)
		for k, v := range p.P[a].Data {
			m.Data[k] = v*(1-eps) + eps/float64(n)
		}
		out.P[a] = m
		out.R[a] = append([]float64(nil), p.R[a]...)
	}
	return out
}

func solveRelaxationLP(p *Project, alpha float64) (*RelaxationSolution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if alpha < 0 || alpha > 1 {
		return nil, fmt.Errorf("restless: activation fraction %v outside [0,1]", alpha)
	}
	// The occupation-measure LP of the two-action MDP, x(i, Passive) at 2i
	// and x(i, Active) at 2i+1, with the average activation row appended.
	prob := markov.OccupationLP(p.P[:], p.R[:])
	n := p.N()
	act := make([]float64, 2*n)
	for i := 0; i < n; i++ {
		act[2*i+1] = 1
	}
	prob.A = append(prob.A, act)
	prob.Rels = append(prob.Rels, lp.EQ)
	prob.B = append(prob.B, alpha)

	res, err := lp.Solve(prob)
	if err != nil {
		return nil, err
	}
	if res.Status != lp.Optimal {
		return nil, fmt.Errorf("restless: relaxation LP %v", res.Status)
	}
	sol := &RelaxationSolution{ValuePerProject: res.Obj}
	sol.X = make([][2]float64, n)
	for i := 0; i < n; i++ {
		sol.X[i][Passive] = res.X[2*i]
		sol.X[i][Active] = res.X[2*i+1]
	}
	// Reduced costs from the duals: c̄(i,a) = R_a(i) − Σ_r y_r A[r][(i,a)].
	// The primal–dual index is c̄(i,Active) − c̄(i,Passive).
	sol.PDIndex = make([]float64, n)
	for i := 0; i < n; i++ {
		rbarA := prob.C[2*i+1]
		rbarP := prob.C[2*i]
		for r, row := range prob.A {
			rbarA -= res.Duals[r] * row[2*i+1]
			rbarP -= res.Duals[r] * row[2*i]
		}
		sol.PDIndex[i] = rbarA - rbarP
	}
	return sol, nil
}

// FleetUpperBound returns N · (per-project relaxation value), the Whittle
// LP upper bound on the average reward of any policy activating exactly m of
// the N iid projects per epoch.
func FleetUpperBound(p *Project, n, m int) (float64, error) {
	if n <= 0 || m < 0 || m > n {
		return 0, fmt.Errorf("restless: invalid fleet (N=%d, m=%d)", n, m)
	}
	sol, err := SolveRelaxation(p, float64(m)/float64(n))
	if err != nil {
		return 0, err
	}
	return float64(n) * sol.ValuePerProject, nil
}
