package batch

import (
	"fmt"
	"sort"

	"stochsched/internal/rng"
)

// In-tree precedence: every job has at most one successor ("parent" in the
// in-tree, pointing toward the root), and a job becomes available only when
// all jobs that precede it (its subtree children) are complete. For
// identical exponential jobs on m machines, the Highest-Level-First policy
// is asymptotically optimal for expected makespan (Papadimitriou–Tsitsiklis
// 1987) — experiment E08.

// InTree represents in-tree precedence over n jobs: Parent[i] is the job
// that i points to (the job that cannot finish the batch before i), or -1
// for the root(s). Job i precedes Parent[i]: Parent[i] becomes available
// only after i (and every other child of Parent[i]) completes.
type InTree struct {
	Parent []int
	level  []int
}

// NewInTree validates the parent vector (acyclicity, bounds) and
// precomputes levels (distance to the root; leaves have the highest
// levels).
func NewInTree(parent []int) (*InTree, error) {
	n := len(parent)
	if n == 0 {
		return nil, fmt.Errorf("batch: empty in-tree")
	}
	level := make([]int, n)
	for i := range parent {
		if parent[i] == i || parent[i] >= n || parent[i] < -1 {
			return nil, fmt.Errorf("batch: invalid parent %d for job %d", parent[i], i)
		}
		// Walk to the root counting steps; cycle detection via step cap.
		steps := 0
		j := i
		for parent[j] != -1 {
			j = parent[j]
			steps++
			if steps > n {
				return nil, fmt.Errorf("batch: parent vector contains a cycle through %d", i)
			}
		}
		level[i] = steps
	}
	return &InTree{Parent: parent, level: level}, nil
}

// N returns the number of jobs.
func (t *InTree) N() int { return len(t.Parent) }

// Level returns the level (distance to root) of job i.
func (t *InTree) Level(i int) int { return t.level[i] }

// available returns the jobs that may be processed given the completed set
// (bitmask): uncompleted jobs all of whose children are completed. Bitmask
// form, used by the subset DPs (n ≤ maxDPJobs).
func (t *InTree) available(completed int) []int {
	n := t.N()
	done := make([]bool, n)
	for i := 0; i < n; i++ {
		done[i] = completed&(1<<i) != 0
	}
	return t.availableBool(done)
}

// availableBool is the size-unbounded form used by the simulator.
func (t *InTree) availableBool(done []bool) []int {
	n := t.N()
	childPending := make([]bool, n)
	for i := 0; i < n; i++ {
		if !done[i] && t.Parent[i] >= 0 {
			childPending[t.Parent[i]] = true
		}
	}
	var out []int
	for i := 0; i < n; i++ {
		if !done[i] && !childPending[i] {
			out = append(out, i)
		}
	}
	return out
}

// RandomInTree generates a uniformly random in-tree on n jobs: job i ≥ 1
// points to a uniformly random earlier job, job 0 is the root.
func RandomInTree(n int, s *rng.Stream) *InTree {
	parent := make([]int, n)
	parent[0] = -1
	for i := 1; i < n; i++ {
		parent[i] = s.Intn(i)
	}
	t, err := NewInTree(parent)
	if err != nil {
		panic(err) // construction is valid by design
	}
	return t
}

// TreeSelector picks which available jobs to serve; it returns at most max
// of the supplied available jobs. Randomized selectors must draw only from
// the supplied stream (the replication's own substream), so replications
// stay independent and seed-stable under parallel execution; deterministic
// selectors ignore it and may be called with a nil stream (as the exact DP
// evaluators do).
type TreeSelector func(t *InTree, available []int, max int, s *rng.Stream) []int

// HLF is the Highest-Level-First selector.
func HLF(t *InTree, available []int, max int, _ *rng.Stream) []int {
	picked := append([]int(nil), available...)
	sort.SliceStable(picked, func(a, b int) bool {
		return t.Level(picked[a]) > t.Level(picked[b])
	})
	if len(picked) > max {
		picked = picked[:max]
	}
	return picked
}

// LLF is Lowest-Level-First, the adversarial contrast to HLF.
func LLF(t *InTree, available []int, max int, _ *rng.Stream) []int {
	picked := append([]int(nil), available...)
	sort.SliceStable(picked, func(a, b int) bool {
		return t.Level(picked[a]) < t.Level(picked[b])
	})
	if len(picked) > max {
		picked = picked[:max]
	}
	return picked
}

// RandomSelector picks uniformly at random among available jobs, drawing
// from the replication's stream.
func RandomSelector(_ *InTree, available []int, max int, s *rng.Stream) []int {
	picked := append([]int(nil), available...)
	s.Shuffle(len(picked), func(i, j int) { picked[i], picked[j] = picked[j], picked[i] })
	if len(picked) > max {
		picked = picked[:max]
	}
	return picked
}

// SimulateTreeMakespan runs one replication of the selector policy on m
// machines with iid Exp(rate) jobs under in-tree precedence and returns the
// realized makespan. Decisions are made at completion epochs (memoryless
// service makes this lossless).
func SimulateTreeMakespan(t *InTree, m int, rate float64, sel TreeSelector, s *rng.Stream) float64 {
	n := t.N()
	done := make([]bool, n)
	remaining := n
	clock := 0.0
	for remaining > 0 {
		avail := t.availableBool(done)
		serve := sel(t, avail, m, s)
		k := len(serve)
		if k == 0 {
			panic("batch: no available jobs with incomplete batch (invalid tree)")
		}
		// Time to first completion among k iid Exp(rate) servers.
		clock += s.Exp(float64(k) * rate)
		// The finisher is uniform among served jobs.
		fin := serve[s.Intn(k)]
		done[fin] = true
		remaining--
	}
	return clock
}

// TreeOptimalDP computes the exact minimal expected makespan for identical
// Exp(rate) jobs under in-tree precedence on m machines by DP over completed
// sets. Intended for n ≤ 16.
func TreeOptimalDP(t *InTree, m int, rate float64) (float64, error) {
	n := t.N()
	if n > maxDPJobs {
		return 0, fmt.Errorf("batch: TreeOptimalDP supports up to %d jobs, got %d", maxDPJobs, n)
	}
	return treeDP(t, rate, func(avail []int, try func([]int)) {
		forEachChoice(avail, min(m, len(avail)), try)
	}), nil
}

// TreePolicyDP evaluates a deterministic selector exactly under the same
// Markov dynamics as TreeOptimalDP. The selector is invoked with a nil
// stream: only deterministic selectors (HLF, LLF, …) are supported, and a
// randomized selector such as RandomSelector will panic — its exact "value"
// is not well defined under the memoized DP in the first place.
func TreePolicyDP(t *InTree, m int, rate float64, sel TreeSelector) (float64, error) {
	n := t.N()
	if n > maxDPJobs {
		return 0, fmt.Errorf("batch: TreePolicyDP supports up to %d jobs, got %d", maxDPJobs, n)
	}
	return treeDP(t, rate, func(avail []int, try func([]int)) {
		try(sel(t, avail, m, nil))
	}), nil
}

// treeDP returns the expected makespan of t's jobs, each served at rate,
// by the memoized recursion over completed sets C:
//
//	V(C) = min_A [ 1/(|A|·rate) + Σ_{j∈A} V(C ∪ j)/|A| ],  V(all) = 0,
//
// where choose calls try with each candidate set A of the available jobs
// avail. The first cheapest A is kept.
func treeDP(t *InTree, rate float64, choose func(avail []int, try func(serve []int))) float64 {
	n := t.N()
	full := (1 << n) - 1
	memo := make([]float64, 1<<n)
	seen := make([]bool, 1<<n)
	var solve func(completed int) float64
	solve = func(completed int) float64 {
		if completed == full {
			return 0
		}
		if seen[completed] {
			return memo[completed]
		}
		best, first := 0.0, true
		choose(t.available(completed), func(serve []int) {
			k := float64(len(serve))
			cost := 1 / (k * rate)
			for _, j := range serve {
				cost += solve(completed|1<<j) / k
			}
			if first || cost < best {
				best, first = cost, false
			}
		})
		seen[completed] = true
		memo[completed] = best
		return best
	}
	return solve(0)
}

// forEachChoice invokes fn with every k-subset of items (as a slice reused
// across calls; fn must not retain it).
func forEachChoice(items []int, k int, fn func([]int)) {
	choice := make([]int, k)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == k {
			fn(choice)
			return
		}
		for i := start; i <= len(items)-(k-depth); i++ {
			choice[depth] = items[i]
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
}
