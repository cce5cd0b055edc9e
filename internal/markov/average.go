package markov

import (
	"fmt"
	"math"

	"stochsched/internal/linalg"
)

// Average-reward MDP machinery behind MDP.Solve, which the mdp scenario
// kind serves: relative value iteration solves the average-reward Bellman
// equation g + h(s) = max_a [r_a(s) + P_a h](s) for unichain MDPs,
// yielding the optimal gain g and a bias h. The time-average Whittle index
// does not use it: internal/restless solves its subsidy problem by policy
// iteration on the discounted criterion's workspace.

// RelativeValueIteration solves a finite average-reward MDP by relative
// value iteration with a reference state (state 0). transitions[a] and
// rewards[a][s] are as in ValueIteration; available may be nil. It returns
// the optimal gain, the bias vector (h(0) = 0), and a greedy policy.
//
// Convergence requires the MDP to be unichain and aperiodic under every
// stationary policy; an aperiodicity transform (damping) is applied
// internally so periodic chains also converge.
func RelativeValueIteration(transitions []*linalg.Matrix, rewards [][]float64, available [][]bool, tol float64, maxIter int) (gain float64, bias []float64, policy []int, err error) {
	n, err := mdpStates(transitions, rewards)
	if err != nil {
		return 0, nil, nil, err
	}
	// Aperiodicity transform: P' = (1−τ)I + τP leaves gain and optimal
	// policies unchanged while guaranteeing aperiodicity.
	const tau = 0.9
	h := make([]float64, n)
	next := make([]float64, n)
	policy = make([]int, n)
	for iter := 0; iter < maxIter; iter++ {
		for s := range next {
			next[s] = (1 - tau) * h[s]
		}
		if err := greedyBackup(transitions, rewards, available, tau, h, next, policy); err != nil {
			return 0, nil, nil, err
		}
		// Normalize by the reference state and measure the span of the
		// increment; span contraction certifies convergence of the gain.
		ref := next[0]
		spanMin, spanMax := math.Inf(1), math.Inf(-1)
		for s := 0; s < n; s++ {
			inc := next[s] - h[s]
			if inc < spanMin {
				spanMin = inc
			}
			if inc > spanMax {
				spanMax = inc
			}
			next[s] -= ref
		}
		h, next = next, h
		if spanMax-spanMin < tol {
			// The fixed point satisfies g + h'(s) = r + (1−τ)h' + τP h',
			// i.e. g = r + τ(P−I)h': the converged vector is the bias of
			// the *transformed* chain, h' = h/τ. Scale back so callers get
			// the bias of the original chain (g is unchanged by the
			// transform).
			for s := range h {
				h[s] *= tau
			}
			return (spanMax + spanMin) / 2, h, policy, nil
		}
	}
	return 0, nil, nil, fmt.Errorf("markov: relative value iteration did not converge in %d iterations", maxIter)
}

// PolicyIteration solves a discounted MDP by Howard's policy iteration:
// alternate exact policy evaluation with greedy improvement. It typically
// converges in a handful of iterations and provides an independent check on
// ValueIteration.
func PolicyIteration(transitions []*linalg.Matrix, rewards [][]float64, beta float64, maxIter int) ([]float64, []int, error) {
	if len(transitions) == 0 {
		return nil, nil, fmt.Errorf("markov: no actions")
	}
	if !(beta > 0 && beta < 1) {
		return nil, nil, fmt.Errorf("markov: discount beta = %v outside (0,1)", beta)
	}
	n := transitions[0].Rows
	policy := make([]int, n) // start with action 0 everywhere
	qs := make([]float64, len(transitions))
	for iter := 0; iter < maxIter; iter++ {
		// Evaluate: v = (I − βP_π)⁻¹ r_π.
		r := make([]float64, n)
		for s := 0; s < n; s++ {
			r[s] = rewards[policy[s]][s]
		}
		sys := discountedSystem(n, beta, func(s int) []float64 { return transitions[policy[s]].Data[s*n : (s+1)*n] })
		v, err := linalg.Solve(sys, r)
		if err != nil {
			return nil, nil, fmt.Errorf("markov: policy evaluation: %w", err)
		}
		// Improve. A state keeps its action unless another beats it by a
		// relative 1e-12, so actions tied to within rounding cannot make
		// the policy cycle.
		changed := false
		for s := 0; s < n; s++ {
			for a := range transitions {
				q := rewards[a][s]
				row := transitions[a].Data[s*n : (s+1)*n]
				for j, pj := range row {
					if pj != 0 {
						q += beta * pj * v[j]
					}
				}
				qs[a] = q
			}
			bestA := policy[s]
			for a, q := range qs {
				if best := qs[bestA]; q > best+1e-12*(1+math.Abs(q)+math.Abs(best)) {
					bestA = a
				}
			}
			if bestA != policy[s] {
				policy[s] = bestA
				changed = true
			}
		}
		if !changed {
			return v, policy, nil
		}
	}
	return nil, nil, fmt.Errorf("markov: policy iteration did not converge in %d iterations", maxIter)
}
