package restless

import (
	"fmt"

	"stochsched/internal/rng"
)

// Fleet is N iid copies of one restless project, of which exactly M must be
// activated at every epoch.
type Fleet struct {
	Type *Project
	N, M int
}

// Validate checks the fleet configuration.
func (f *Fleet) Validate() error {
	if err := f.Type.Validate(); err != nil {
		return err
	}
	if f.N <= 0 || f.M < 0 || f.M > f.N {
		return fmt.Errorf("restless: invalid fleet (N=%d, M=%d)", f.N, f.M)
	}
	return nil
}

// SimulateStaticPriority runs the fleet under a static state-priority rule:
// each epoch the M projects whose current states carry the largest scores
// are activated (ties by project number). It returns the average reward per
// epoch measured over [burnin, horizon). Whittle's heuristic is this rule
// with scores = Whittle indices; the myopic rule uses R₁ − R₀; the
// primal–dual heuristic uses the LP reduced-cost index.
func (f *Fleet) SimulateStaticPriority(score []float64, horizon, burnin int, s *rng.Stream) (float64, error) {
	if err := f.Validate(); err != nil {
		return 0, err
	}
	if len(score) != f.Type.N() {
		return 0, fmt.Errorf("restless: score length %d, want %d", len(score), f.Type.N())
	}
	if err := checkWindow(horizon, burnin); err != nil {
		return 0, err
	}
	idx := make([]int, f.N)
	bucket, slot := scoreBuckets(score), make([]int, f.Type.N())
	return f.run(horizon, burnin, s, func(state []int) []int {
		rankProjects(idx, state, bucket, slot)
		return idx
	}), nil
}

// scoreBuckets maps each state to the number of states scoring strictly
// higher than it: buckets in increasing order run from the highest score
// down, and equal scores share one.
func scoreBuckets(score []float64) []int {
	bucket := make([]int, len(score))
	for a := range bucket {
		for b := range score {
			if score[b] > score[a] {
				bucket[a]++
			}
		}
	}
	return bucket
}

// rankProjects fills idx with the projects in decreasing score of their
// current state, ties by project number. It is a counting sort over the
// states' buckets, with slot (one entry per state) as scratch, so ranking
// N projects costs O(N + states) and allocates nothing.
func rankProjects(idx, state, bucket, slot []int) {
	clear(slot)
	for _, st := range state {
		slot[bucket[st]]++
	}
	pos := 0
	for k, size := range slot {
		slot[k] = pos
		pos += size
	}
	for proj, st := range state {
		idx[slot[bucket[st]]] = proj
		slot[bucket[st]]++
	}
}

// SimulateRandomPolicy activates M uniformly random projects each epoch —
// the unprioritized baseline.
func (f *Fleet) SimulateRandomPolicy(horizon, burnin int, s *rng.Stream) (float64, error) {
	if err := f.Validate(); err != nil {
		return 0, err
	}
	if err := checkWindow(horizon, burnin); err != nil {
		return 0, err
	}
	return f.run(horizon, burnin, s, func([]int) []int { return s.Perm(f.N) }), nil
}

// checkWindow rejects a measurement window run cannot average over: the
// reward of horizon epochs would be divided by horizon − burnin.
func checkWindow(horizon, burnin int) error {
	if burnin < 0 || horizon <= burnin {
		return fmt.Errorf("restless: need 0 <= burnin < horizon, got burnin=%d horizon=%d", burnin, horizon)
	}
	return nil
}

// run simulates the fleet from every project in state 0 for horizon
// epochs. Each epoch rank orders the projects given their current states,
// the first M of that order are activated, and every project then moves
// with one categorical draw, in rank order. It returns the average reward
// per epoch over [burnin, horizon).
func (f *Fleet) run(horizon, burnin int, s *rng.Stream, rank func(state []int) []int) float64 {
	n := f.Type.N()
	state := make([]int, f.N)
	total := 0.0
	for t := 0; t < horizon; t++ {
		reward := 0.0
		for i, proj := range rank(state) {
			act := Passive
			if i < f.M {
				act = Active
			}
			st := state[proj]
			reward += f.Type.R[act][st]
			row := f.Type.P[act].Data[st*n : (st+1)*n]
			state[proj] = s.Categorical(row)
		}
		if t >= burnin {
			total += reward
		}
	}
	return total / float64(horizon-burnin)
}

// MyopicScore returns the one-step activation advantage R₁ − R₀ per state.
func MyopicScore(p *Project) []float64 {
	n := p.N()
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = p.R[Active][i] - p.R[Passive][i]
	}
	return out
}
