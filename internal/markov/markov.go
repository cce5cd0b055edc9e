// Package markov provides finite Markov-chain analysis: discounted value
// evaluation and MDP solvers.
//
// The bandit models (Gittins, Whittle) and the Klimov network all reduce to
// computations on small finite chains; this package is their shared engine.
package markov

import (
	"fmt"
	"math"

	"stochsched/internal/linalg"
)

// Chain is a finite discrete-time Markov chain with transition matrix P.
type Chain struct {
	P *linalg.Matrix // row-stochastic, n×n
}

// NewChain validates that p is square and row-stochastic (each row
// nonnegative summing to 1 within tolerance) and returns the chain.
func NewChain(p *linalg.Matrix) (*Chain, error) {
	if p.Rows != p.Cols {
		return nil, fmt.Errorf("markov: transition matrix must be square, got %dx%d", p.Rows, p.Cols)
	}
	for i := 0; i < p.Rows; i++ {
		sum := 0.0
		for j := 0; j < p.Cols; j++ {
			v := p.At(i, j)
			if v < -1e-12 {
				return nil, fmt.Errorf("markov: negative transition P[%d][%d] = %v", i, j, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			return nil, fmt.Errorf("markov: row %d sums to %v, want 1", i, sum)
		}
	}
	return &Chain{P: p.Clone()}, nil
}

// N returns the number of states.
func (c *Chain) N() int { return c.P.Rows }

// DiscountedValue returns v = r + β P v, i.e. v = (I − βP)⁻¹ r, the expected
// total discounted reward from each state when reward r(i) is earned on each
// visit to i. 0 < beta < 1 is required.
func (c *Chain) DiscountedValue(r []float64, beta float64) ([]float64, error) {
	n := c.N()
	if len(r) != n {
		return nil, fmt.Errorf("markov: reward vector length %d, want %d", len(r), n)
	}
	if !(beta > 0 && beta < 1) {
		return nil, fmt.Errorf("markov: discount beta = %v outside (0,1)", beta)
	}
	a := linalg.Identity(n).Sub(c.P.Scale(beta))
	v, err := linalg.Solve(a, r)
	if err != nil {
		return nil, fmt.Errorf("markov: discounted solve failed: %w", err)
	}
	return v, nil
}

// ValueIteration computes the optimal value function of a finite
// discounted MDP by value iteration. transitions[a] is the transition matrix
// under action a, rewards[a][s] the immediate reward for taking action a in
// state s. Actions unavailable in a state can be marked by setting
// available[s][a] = false (nil available means all actions allowed
// everywhere). Returns the value function and a greedy optimal policy.
func ValueIteration(transitions []*linalg.Matrix, rewards [][]float64, available [][]bool, beta, tol float64, maxIter int) ([]float64, []int, error) {
	n, err := mdpStates(transitions, rewards)
	if err != nil {
		return nil, nil, err
	}
	if !(beta > 0 && beta < 1) {
		return nil, nil, fmt.Errorf("markov: discount beta = %v outside (0,1)", beta)
	}
	v := make([]float64, n)
	next := make([]float64, n)
	policy := make([]int, n)
	negZero := math.Copysign(0, -1)
	for iter := 0; iter < maxIter; iter++ {
		for s := range next {
			next[s] = negZero
		}
		if err := greedyBackup(transitions, rewards, available, beta, v, next, policy); err != nil {
			return nil, nil, err
		}
		delta := 0.0
		for s := range v {
			if d := math.Abs(next[s] - v[s]); d > delta {
				delta = d
			}
		}
		v, next = next, v
		if delta < tol*(1-beta)/(2*beta) {
			return v, policy, nil
		}
	}
	return v, policy, fmt.Errorf("markov: value iteration did not converge in %d iterations", maxIter)
}

// mdpStates checks that every action of an MDP has an n×n transition
// matrix and n rewards, n being the first matrix's row count, and returns
// n.
func mdpStates(transitions []*linalg.Matrix, rewards [][]float64) (int, error) {
	if len(transitions) == 0 {
		return 0, fmt.Errorf("markov: no actions")
	}
	n := transitions[0].Rows
	for a, tr := range transitions {
		if tr.Rows != n || tr.Cols != n {
			return 0, fmt.Errorf("markov: action %d transition shape mismatch", a)
		}
		if len(rewards[a]) != n {
			return 0, fmt.Errorf("markov: action %d reward length mismatch", a)
		}
	}
	return n, nil
}

// greedyBackup applies one greedy Bellman backup to x. On entry next[s]
// holds the part of state s's backup that no action changes; the backup
// overwrites it with the largest
//
//	r_a(s) + next[s] + d·Σ_j P_a(s,j)·x(j)
//
// over the actions a available in s, and sets policy[s] to the first
// action attaining it. Relative value iteration enters next[s] =
// (1−τ)·x(s) and d = τ, the aperiodicity transform's self-loop and scaled
// chain. Value iteration enters −0, the one addend that leaves every
// float64 as it is (+0 would turn −0 into +0), and d = β.
func greedyBackup(transitions []*linalg.Matrix, rewards [][]float64, available [][]bool, d float64, x, next []float64, policy []int) error {
	n := len(x)
	for s := range x {
		best := math.Inf(-1)
		bestA := -1
		for a := range transitions {
			if available != nil && !available[s][a] {
				continue
			}
			q := rewards[a][s] + next[s]
			row := transitions[a].Data[s*n : (s+1)*n]
			for j, p := range row {
				if p != 0 {
					q += d * p * x[j]
				}
			}
			if q > best {
				best, bestA = q, a
			}
		}
		if bestA < 0 {
			return fmt.Errorf("markov: state %d has no available action", s)
		}
		next[s] = best
		policy[s] = bestA
	}
	return nil
}
