package markov

// Finite average-reward MDPs as a simulatable model: a bundle of per-action
// chains and rewards, solvable by relative value iteration (Solve) or the
// occupation-measure LP (AverageRewardLP), and simulatable one trajectory
// at a time (SimulateAverage) under an arbitrary action chooser.

import (
	"fmt"
	"math"

	"stochsched/internal/linalg"
	"stochsched/internal/lp"
	"stochsched/internal/rng"
)

// MDP is a finite average-reward Markov decision process: Transitions[a]
// is the row-stochastic matrix of action a and Rewards[a][s] the immediate
// reward of taking a in s. Every action is available in every state.
type MDP struct {
	Transitions []*linalg.Matrix
	Rewards     [][]float64
}

// N returns the number of states.
func (m *MDP) N() int {
	if len(m.Transitions) == 0 {
		return 0
	}
	return m.Transitions[0].Rows
}

// A returns the number of actions.
func (m *MDP) A() int { return len(m.Transitions) }

// Validate checks shapes and row-stochasticity of every action.
func (m *MDP) Validate() error {
	if len(m.Transitions) == 0 {
		return fmt.Errorf("markov: mdp has no actions")
	}
	if len(m.Rewards) != len(m.Transitions) {
		return fmt.Errorf("markov: %d reward vectors for %d actions", len(m.Rewards), len(m.Transitions))
	}
	n := m.N()
	for a, tr := range m.Transitions {
		if tr.Rows != n {
			return fmt.Errorf("markov: action %d has %d states, want %d", a, tr.Rows, n)
		}
		if _, err := NewChain(tr); err != nil {
			return fmt.Errorf("markov: action %d: %w", a, err)
		}
		if len(m.Rewards[a]) != n {
			return fmt.Errorf("markov: action %d has %d rewards for %d states", a, len(m.Rewards[a]), n)
		}
	}
	return nil
}

// Solve runs relative value iteration and returns the optimal gain, bias
// vector, and a stationary optimal policy.
func (m *MDP) Solve(tol float64, maxIter int) (gain float64, bias []float64, policy []int, err error) {
	return RelativeValueIteration(m.Transitions, m.Rewards, nil, tol, maxIter)
}

// MyopicPolicy returns the stationary policy maximizing the immediate
// reward in each state (lowest action index on ties).
func (m *MDP) MyopicPolicy() []int {
	n := m.N()
	pol := make([]int, n)
	for s := 0; s < n; s++ {
		best := math.Inf(-1)
		for a := range m.Rewards {
			if r := m.Rewards[a][s]; r > best {
				best, pol[s] = r, a
			}
		}
	}
	return pol
}

// ActionChooser selects the action taken in a state; randomized choosers
// must draw only from the supplied stream (the replication's substream) so
// replications stay independent and deterministic.
type ActionChooser func(state int, s *rng.Stream) int

// StationaryChooser adapts a fixed policy vector.
func StationaryChooser(policy []int) ActionChooser {
	return func(state int, _ *rng.Stream) int { return policy[state] }
}

// UniformChooser picks a uniformly random action each epoch.
func UniformChooser(actions int) ActionChooser {
	return func(_ int, s *rng.Stream) int { return s.Intn(actions) }
}

// SimulateAverage runs one trajectory of horizon epochs from start and
// returns the average reward per epoch over [burnin, horizon). m must be
// valid (Validate); the chooser's actions are checked as they are taken.
func (m *MDP) SimulateAverage(choose ActionChooser, start, horizon, burnin int, s *rng.Stream) (float64, error) {
	n := m.N()
	if start < 0 || start >= n {
		return 0, fmt.Errorf("markov: start state %d outside [0,%d)", start, n)
	}
	if burnin < 0 || horizon <= burnin {
		return 0, fmt.Errorf("markov: need 0 <= burnin < horizon, got burnin=%d horizon=%d", burnin, horizon)
	}
	state, total := start, 0.0
	for t := 0; t < horizon; t++ {
		a := choose(state, s)
		if a < 0 || a >= len(m.Transitions) {
			return 0, fmt.Errorf("markov: chooser returned action %d outside [0,%d)", a, len(m.Transitions))
		}
		if t >= burnin {
			total += m.Rewards[a][state]
		}
		tr := m.Transitions[a]
		state = s.Categorical(tr.Data[state*n : (state+1)*n])
	}
	return total / float64(horizon-burnin), nil
}

// AverageRewardLP solves the occupation-measure linear program
// (OccupationLP) and returns the optimal average reward per epoch — the
// same value relative value iteration converges to, via an independent
// method (unichain assumption, as in Solve).
func (m *MDP) AverageRewardLP() (float64, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	res, err := lp.Solve(OccupationLP(m.Transitions, m.Rewards))
	if err != nil {
		return 0, err
	}
	if res.Status != lp.Optimal {
		return 0, fmt.Errorf("markov: occupation-measure LP %v", res.Status)
	}
	return res.Obj, nil
}

// OccupationLP returns the occupation-measure linear program of the MDP
// whose action a has transitions[a] and rewards[a]:
//
//	max Σ_{s,a} r_a(s) x(s,a)
//	s.t. Σ_a x(j,a) = Σ_{s,a} x(s,a) P_a(s,j)  ∀j,  Σ x = 1,  x ≥ 0,
//
// with x(s,a) at s·A + a for A actions, the n balance rows first and the
// normalization row last. A caller may append constraints before solving.
// The shapes must be valid (see MDP.Validate).
func OccupationLP(transitions []*linalg.Matrix, rewards [][]float64) *lp.Problem {
	n, na := transitions[0].Rows, len(transitions)
	nv := n * na
	prob := &lp.Problem{C: make([]float64, nv), Maximize: true}
	for s := 0; s < n; s++ {
		for a := 0; a < na; a++ {
			prob.C[s*na+a] = rewards[a][s]
		}
	}
	for j := 0; j < n; j++ {
		row := make([]float64, nv)
		for a := 0; a < na; a++ {
			row[j*na+a] += 1
			for s := 0; s < n; s++ {
				row[s*na+a] -= transitions[a].At(s, j)
			}
		}
		prob.A = append(prob.A, row)
		prob.Rels = append(prob.Rels, lp.EQ)
		prob.B = append(prob.B, 0)
	}
	norm := make([]float64, nv)
	for k := range norm {
		norm[k] = 1
	}
	prob.A = append(prob.A, norm)
	prob.Rels = append(prob.Rels, lp.EQ)
	prob.B = append(prob.B, 1)
	return prob
}
