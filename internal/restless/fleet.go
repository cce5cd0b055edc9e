package restless

import (
	"context"
	"fmt"

	"stochsched/internal/engine"
	"stochsched/internal/rng"
	"stochsched/internal/stats"
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
	if horizon <= burnin {
		return 0, fmt.Errorf("restless: horizon %d must exceed burnin %d", horizon, burnin)
	}
	n := f.Type.N()
	state := make([]int, f.N)
	idx := make([]int, f.N)
	bucket, slot := scoreBuckets(score), make([]int, n)
	total := 0.0
	for t := 0; t < horizon; t++ {
		rankProjects(idx, state, bucket, slot)
		reward := 0.0
		for rank, proj := range idx {
			act := Passive
			if rank < f.M {
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
	return total / float64(horizon-burnin), nil
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
	if horizon <= burnin {
		return 0, fmt.Errorf("restless: horizon %d must exceed burnin %d", horizon, burnin)
	}
	n := f.Type.N()
	state := make([]int, f.N)
	total := 0.0
	for t := 0; t < horizon; t++ {
		perm := s.Perm(f.N)
		reward := 0.0
		for rank, proj := range perm {
			act := Passive
			if rank < f.M {
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
	return total / float64(horizon-burnin), nil
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

// EstimateStaticPriority aggregates replications of SimulateStaticPriority
// on the pool; the aggregate is byte-identical for a given seed at any
// parallelism level.
func (f *Fleet) EstimateStaticPriority(ctx context.Context, p *engine.Pool, score []float64, horizon, burnin, reps int, s *rng.Stream) (*stats.Running, error) {
	var out stats.Running
	if err := f.EstimateStaticPriorityInto(ctx, p, score, horizon, burnin, reps, s, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// EstimateStaticPriorityInto folds reps further replications into out,
// continuing s's substream sequence — the accumulation form the adaptive
// rounds use.
func (f *Fleet) EstimateStaticPriorityInto(ctx context.Context, p *engine.Pool, score []float64, horizon, burnin, reps int, s *rng.Stream, out *stats.Running) error {
	return engine.ReplicateInto(ctx, p, 0, reps, s,
		func(_ context.Context, _ int, sub *rng.Stream) (float64, error) {
			return f.SimulateStaticPriority(score, horizon, burnin, sub)
		}, out)
}

// EstimateRandomPolicy aggregates replications of SimulateRandomPolicy on
// the pool — the unprioritized baseline at fleet scale.
func (f *Fleet) EstimateRandomPolicy(ctx context.Context, p *engine.Pool, horizon, burnin, reps int, s *rng.Stream) (*stats.Running, error) {
	var out stats.Running
	if err := f.EstimateRandomPolicyInto(ctx, p, horizon, burnin, reps, s, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// EstimateRandomPolicyInto folds reps further replications into out,
// continuing s's substream sequence.
func (f *Fleet) EstimateRandomPolicyInto(ctx context.Context, p *engine.Pool, horizon, burnin, reps int, s *rng.Stream, out *stats.Running) error {
	return engine.ReplicateInto(ctx, p, 0, reps, s,
		func(_ context.Context, _ int, sub *rng.Stream) (float64, error) {
			return f.SimulateRandomPolicy(horizon, burnin, sub)
		}, out)
}
