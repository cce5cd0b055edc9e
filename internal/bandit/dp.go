package bandit

import (
	"fmt"

	"stochsched/internal/linalg"
	"stochsched/internal/markov"
)

// Product-chain dynamic programming: the bandit's full state is the vector
// of all project states. For small instances this MDP is solvable exactly
// and serves as the ground truth that certifies the optimality of the
// Gittins rule (experiment E09) and quantifies its loss under switching
// costs (E10).

// stateSpace handles mixed-radix encoding of product states.
type stateSpace struct {
	dims   []int
	stride []int
	size   int
}

func newStateSpace(b *Bandit) *stateSpace {
	dims := make([]int, len(b.Projects))
	stride := make([]int, len(b.Projects))
	size := 1
	for i, p := range b.Projects {
		dims[i] = p.N()
		stride[i] = size
		size *= p.N()
	}
	return &stateSpace{dims: dims, stride: stride, size: size}
}

// decode fills dst with the component states of code.
func (ss *stateSpace) decode(code int, dst []int) {
	for i := range ss.dims {
		dst[i] = (code / ss.stride[i]) % ss.dims[i]
	}
}

// with returns the code with component i replaced by v.
func (ss *stateSpace) with(code, i, v int) int {
	cur := (code / ss.stride[i]) % ss.dims[i]
	return code + (v-cur)*ss.stride[i]
}

const maxProductStates = 1 << 14

// productSpace validates b and returns its state space, refusing a chain
// of more than maxProductStates states when each product state comes in L
// copies (see chain).
func productSpace(b *Bandit, L int) (*stateSpace, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	ss := newStateSpace(b)
	if n := ss.size * L; n > maxProductStates {
		space := "product"
		if L > 1 {
			space = "extended"
		}
		return nil, fmt.Errorf("bandit: %s space %d exceeds limit %d", space, n, maxProductStates)
	}
	return ss, nil
}

// chain builds the transition matrix and rewards of the product chain
// whose state st = code·L + last also records the last project engaged
// modulo L: L = 1 forgets it, L = len(b.Projects) keeps it. In each
// product state the chain engages project a = act(comp), moves to
// with(code, a, next)·L + a%L with project a's transition probability, and
// earns R_a(s_a), less cost when last ≠ a%L, which never holds at L = 1.
func (ss *stateSpace) chain(b *Bandit, L int, cost float64, act func(comp []int) int) (*linalg.Matrix, []float64) {
	n := ss.size * L
	p := linalg.NewMatrix(n, n)
	r := make([]float64, n)
	comp := make([]int, len(b.Projects))
	for code := 0; code < ss.size; code++ {
		ss.decode(code, comp)
		a := act(comp)
		proj := b.Projects[a]
		sa := comp[a]
		for last := 0; last < L; last++ {
			st := code*L + last
			r[st] = proj.R[sa]
			if last != a%L {
				r[st] -= cost
			}
			for next := 0; next < proj.N(); next++ {
				if pr := proj.P.At(sa, next); pr > 0 {
					tgt := ss.with(code, a, next)*L + a%L
					p.Set(st, tgt, p.At(st, tgt)+pr)
				}
			}
		}
	}
	return p, r
}

// optimalValue solves the chain with L copies of each product state (see
// chain) by value iteration, action a engaging project a everywhere.
func optimalValue(b *Bandit, L int, cost float64) ([]float64, []int, error) {
	ss, err := productSpace(b, L)
	if err != nil {
		return nil, nil, err
	}
	transitions := make([]*linalg.Matrix, len(b.Projects))
	rewards := make([][]float64, len(b.Projects))
	for a := range b.Projects {
		transitions[a], rewards[a] = ss.chain(b, L, cost, func([]int) int { return a })
	}
	return markov.ValueIteration(transitions, rewards, nil, b.Beta, 1e-10, 1_000_000)
}

// policyValue evaluates pol exactly on the chain with L copies of each
// product state: v = (I − βP_π)⁻¹ r_π.
func policyValue(b *Bandit, L int, cost float64, pol Policy) ([]float64, error) {
	ss, err := productSpace(b, L)
	if err != nil {
		return nil, err
	}
	p, r := ss.chain(b, L, cost, pol)
	chain, err := markov.NewChain(p)
	if err != nil {
		return nil, err
	}
	return chain.DiscountedValue(r, b.Beta)
}

// OptimalValue solves the bandit exactly on the product chain and returns
// the optimal value for every product state (indexed by mixed-radix code)
// and the optimal action (project to engage).
func OptimalValue(b *Bandit) ([]float64, []int, error) {
	v, pol, err := optimalValue(b, 1, 0)
	if err != nil {
		return nil, nil, err
	}
	return v, pol, nil
}

// Policy selects which project to engage given the component states.
type Policy func(componentStates []int) int

// IndexPolicy returns a policy that engages the project whose current state
// has the largest index (ties to the lowest project number).
func IndexPolicy(indices [][]float64) Policy {
	return func(comp []int) int {
		best := indices[0][comp[0]]
		bestA := 0
		for a := 1; a < len(indices); a++ {
			if v := indices[a][comp[a]]; v > best {
				best, bestA = v, a
			}
		}
		return bestA
	}
}

// GreedyPolicy engages the project with the largest immediate reward — the
// myopic baseline the Gittins rule improves upon.
func GreedyPolicy(b *Bandit) Policy {
	return func(comp []int) int {
		best := b.Projects[0].R[comp[0]]
		bestA := 0
		for a := 1; a < len(b.Projects); a++ {
			if v := b.Projects[a].R[comp[a]]; v > best {
				best, bestA = v, a
			}
		}
		return bestA
	}
}

// PolicyValue evaluates a stationary policy exactly on the product chain:
// v = (I − βP_π)⁻¹ r_π.
func PolicyValue(b *Bandit, pol Policy) ([]float64, error) {
	return policyValue(b, 1, 0, pol)
}

// ---------------------------------------------------------------------------
// Switching costs (Asawa–Teneketzis 1996)

// SwitchingOptimalValue solves the bandit with a switching penalty: engaging
// a project different from the previously engaged one costs `cost`. The
// state is (product state, last project); the returned slices are indexed by
// code*N + last.
func SwitchingOptimalValue(b *Bandit, cost float64) ([]float64, []int, error) {
	return optimalValue(b, len(b.Projects), cost)
}

// SwitchingPolicyValue evaluates, on the extended chain, a policy that sees
// only the component states (e.g. the Gittins rule, which ignores switching
// costs). Indexing matches SwitchingOptimalValue.
func SwitchingPolicyValue(b *Bandit, cost float64, pol Policy) ([]float64, error) {
	return policyValue(b, len(b.Projects), cost, pol)
}
