package bandit

import (
	"fmt"
	"math"

	"stochsched/internal/linalg"
)

// The Gittins index of state i is
//
//	γ_i = sup_{τ>0} E[Σ_{t<τ} β^t R(x_t) | x_0 = i] / E[Σ_{t<τ} β^t | x_0 = i],
//
// the best achievable discounted reward rate per unit of discounted time
// before stopping. Gittins–Jones (1974): engaging a project of maximal
// current index is optimal for the multi-armed bandit.

// GittinsRestart computes the Gittins indices of every state of the project
// via the restart-in-state formulation (Katehakis–Veinott 1987): for each
// state i, solve the two-action MDP in which from any state j one may either
// continue (earn R_j, move by row j) or restart at i (earn R_i, move by row
// i); then γ_i = (1−β)·V_i(i). Value iteration converges geometrically.
func GittinsRestart(p *Project, beta float64) ([]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if !(beta > 0 && beta < 1) {
		return nil, fmt.Errorf("bandit: discount %v outside (0,1)", beta)
	}
	n := p.N()
	gamma := make([]float64, n)
	v := make([]float64, n)
	next := make([]float64, n)
	for i := 0; i < n; i++ {
		// Initialize V at zero for each restart target (could warm start,
		// but instances are small).
		for k := range v {
			v[k] = 0
		}
		// Precompute the restart action value's state-independent part.
		for iter := 0; iter < 100000; iter++ {
			restartVal := p.R[i]
			rowI := p.P.Data[i*n : (i+1)*n]
			for k, pk := range rowI {
				restartVal += beta * pk * v[k]
			}
			delta := 0.0
			for j := 0; j < n; j++ {
				cont := p.R[j]
				rowJ := p.P.Data[j*n : (j+1)*n]
				for k, pk := range rowJ {
					cont += beta * pk * v[k]
				}
				val := cont
				if restartVal > val {
					val = restartVal
				}
				next[j] = val
				if d := math.Abs(val - v[j]); d > delta {
					delta = d
				}
			}
			v, next = next, v
			if delta < 1e-12 {
				break
			}
		}
		gamma[i] = (1 - beta) * v[i]
	}
	return gamma, nil
}

// GittinsLargestIndex computes Gittins indices by the largest-index-first
// algorithm of Varaiya–Walrand–Buyukkoc (1985). States are indexed in
// decreasing order: the top state is the argmax of R with γ = R; thereafter,
// with C the set already indexed, for each unindexed i
//
//	N_i = R_i + β P_{i,C} (I − βP_{CC})⁻¹ R_C
//	D_i = 1  + β P_{i,C} (I − βP_{CC})⁻¹ 1_C
//
// and the next indexed state maximizes N_i/D_i, with γ_i = N_i/D_i.
func GittinsLargestIndex(p *Project, beta float64) ([]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if !(beta > 0 && beta < 1) {
		return nil, fmt.Errorf("bandit: discount %v outside (0,1)", beta)
	}
	n := p.N()
	gamma := make([]float64, n)
	indexed := make([]bool, n)
	var cont []int // states indexed so far, the continuation set

	for round := 0; round < n; round++ {
		var solveR, solve1 []float64
		if len(cont) > 0 {
			// (I − βP_CC)⁻¹ applied to R_C and 1_C.
			k := len(cont)
			a := linalg.NewMatrix(k, k)
			for ai, si := range cont {
				for aj, sj := range cont {
					v := -beta * p.P.At(si, sj)
					if ai == aj {
						v += 1
					}
					a.Set(ai, aj, v)
				}
			}
			rC := make([]float64, k)
			ones := make([]float64, k)
			for ai, si := range cont {
				rC[ai] = p.R[si]
				ones[ai] = 1
			}
			f, err := linalg.Factorize(a)
			if err != nil {
				return nil, fmt.Errorf("bandit: largest-index solve: %w", err)
			}
			solveR = f.Solve(rC)
			solve1 = f.Solve(ones)
		}
		best := math.Inf(-1)
		bestState := -1
		for i := 0; i < n; i++ {
			if indexed[i] {
				continue
			}
			num := p.R[i]
			den := 1.0
			for ai, si := range cont {
				num += beta * p.P.At(i, si) * solveR[ai]
				den += beta * p.P.At(i, si) * solve1[ai]
			}
			if ratio := num / den; ratio > best {
				best = ratio
				bestState = i
			}
		}
		gamma[bestState] = best
		indexed[bestState] = true
		cont = append(cont, bestState)
	}
	return gamma, nil
}
