package batch

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// The exponential-case dynamic programs exploit memorylessness: with
// exponential processing times the system state collapses to the set of
// uncompleted jobs, so exact optimal values are computable by subset
// recursion. These DPs are the ground truth against which the SEPT and LEPT
// index policies are verified (Glazebrook 1979; Bruno–Downey–Frederickson
// 1981; Weber 1982).

const maxDPJobs = 16

// Objective selects the criterion for the exponential-case DPs.
type Objective int

const (
	// Flowtime is E[Σ C_i].
	Flowtime Objective = iota
	// Makespan is E[max C_i].
	Makespan
)

// ExpOptimalDP computes, by dynamic programming over subsets of uncompleted
// jobs, the minimal expected objective for jobs with exponential rates on m
// identical machines, over all nonanticipative policies (preemptive or not —
// by memorylessness the classes coincide in value). It returns the optimal
// value from the full set.
//
// The recursion from uncompleted set S, serving a subset A (|A| =
// min(m,|S|)) with total rate µ(A):
//
//	flowtime: V(S) = min_A [ |S|/µ(A) + Σ_{j∈A} µ_j/µ(A) · V(S∖j) ]
//	makespan: V(S) = min_A [   1/µ(A) + Σ_{j∈A} µ_j/µ(A) · V(S∖j) ]
func ExpOptimalDP(rates []float64, m int, obj Objective) (float64, error) {
	n := len(rates)
	if n == 0 || n > maxDPJobs {
		return 0, fmt.Errorf("batch: ExpOptimalDP supports 1..%d jobs, got %d", maxDPJobs, n)
	}
	if m < 1 {
		return 0, fmt.Errorf("batch: need m >= 1")
	}
	for i, r := range rates {
		if r <= 0 {
			return 0, fmt.Errorf("batch: job %d has nonpositive rate", i)
		}
	}
	return expDP(n, holding(obj), everySubset(rates, m)), nil
}

// ExpPolicyValue evaluates, exactly, the list policy induced by order o on
// m identical machines with exponential rates: from every uncompleted set
// the first min(m,|S|) jobs of o still in S are served. By memorylessness
// this Markov evaluation equals the value of the nonpreemptive list policy.
func ExpPolicyValue(rates []float64, m int, o Order, obj Objective) (float64, error) {
	n := len(rates)
	if n == 0 || n > maxDPJobs {
		return 0, fmt.Errorf("batch: ExpPolicyValue supports 1..%d jobs, got %d", maxDPJobs, n)
	}
	if !validOrder(o, n) {
		return 0, fmt.Errorf("batch: invalid order")
	}
	return expDP(n, holding(obj), firstInOrder(o, m, func(_, j int) float64 { return rates[j] })), nil
}

// UniformExpOptimalDP computes the optimal expected objective for
// exponential jobs on uniform machines with the given speed factors: job j
// served on machine i completes at rate speeds[i]*rates[j]. Idling is
// allowed (a machine may be left empty), which is essential: on uniform
// machines it can be optimal not to use a slow machine (Agrawala et al.
// 1984; Coffman–Flatto–Garey–Weber 1987).
func UniformExpOptimalDP(rates, speeds []float64, obj Objective) (float64, error) {
	n := len(rates)
	m := len(speeds)
	if n == 0 || n > maxDPJobs {
		return 0, fmt.Errorf("batch: UniformExpOptimalDP supports 1..%d jobs, got %d", maxDPJobs, n)
	}
	if m < 1 || m > 4 {
		return 0, fmt.Errorf("batch: UniformExpOptimalDP supports 1..4 machines, got %d", m)
	}
	return expDP(n, holding(obj), everyAssignment(rates, speeds)), nil
}

// UniformSEPTFastest evaluates the natural heuristic on uniform machines:
// always serve the shortest-expected jobs, assigning the shortest to the
// fastest machine, using all machines. Returned exactly via the Markov
// recursion, for comparison against UniformExpOptimalDP.
func UniformSEPTFastest(rates, speeds []float64, obj Objective) (float64, error) {
	n := len(rates)
	m := len(speeds)
	if n == 0 || n > maxDPJobs {
		return 0, fmt.Errorf("batch: UniformSEPTFastest supports 1..%d jobs, got %d", maxDPJobs, n)
	}
	// Machines sorted fastest first.
	machOrder := identityOrder(m)
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			if speeds[machOrder[j]] > speeds[machOrder[i]] {
				machOrder[i], machOrder[j] = machOrder[j], machOrder[i]
			}
		}
	}
	// Jobs sorted by SEPT (largest rate = shortest mean first).
	jobOrder := identityOrder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rates[jobOrder[j]] > rates[jobOrder[i]] {
				jobOrder[i], jobOrder[j] = jobOrder[j], jobOrder[i]
			}
		}
	}
	return expDP(n, holding(obj), firstInOrder(jobOrder, m, func(i, j int) float64 {
		return speeds[machOrder[i]] * rates[j]
	})), nil
}

// rated is one job of a service set with the rate it completes at there.
type rated struct {
	job  int
	rate float64
}

// expDP solves the exponential-case recursion bottom-up over the subsets S
// of n jobs (bit j set while job j is uncompleted) and returns V of the full
// set:
//
//	V(S) = min_A [ h(S)/µ(A) + Σ_{j∈A} µ_j/µ(A) · V(S∖j) ],  V(∅) = 0.
//
// hold gives the holding rate h(S); offer calls try once for each candidate
// service set A of S, listing its jobs with their completion rates µ_j.
// µ(A) and the sum run in the order A lists its jobs. A's cost must be
// below the best so far to replace it, so a NaN cost never wins and a set
// whose only candidates cost NaN is worth +Inf.
func expDP(n int, hold func(s int) float64, offer func(s int, try func(a []rated))) float64 {
	v := make([]float64, 1<<n)
	var s int
	var h, best float64
	try := func(a []rated) {
		total := 0.0
		for _, x := range a {
			total += x.rate
		}
		cost := h / total
		for _, x := range a {
			cost += x.rate / total * v[s&^(1<<x.job)]
		}
		if cost < best {
			best = cost
		}
	}
	for s = 1; s < 1<<n; s++ {
		h, best = hold(s), math.Inf(1)
		offer(s, try)
		v[s] = best
	}
	return v[len(v)-1]
}

// holding returns obj's holding rate: h(S) = |S| for flowtime, 1 for
// makespan.
func holding(obj Objective) func(s int) float64 {
	if obj == Flowtime {
		return func(s int) float64 { return float64(bits.OnesCount(uint(s))) }
	}
	return func(int) float64 { return 1 }
}

// everySubset offers every min(m,|S|)-subset of S, its jobs in index
// order at their own rates.
func everySubset(rates []float64, m int) func(int, func([]rated)) {
	var jobs []int
	var a []rated
	return func(s int, try func([]rated)) {
		jobs = jobs[:0]
		for j := range rates {
			if s&(1<<j) != 0 {
				jobs = append(jobs, j)
			}
		}
		forEachChoice(jobs, min(m, len(jobs)), func(c []int) {
			a = a[:0]
			for _, j := range c {
				a = append(a, rated{j, rates[j]})
			}
			try(a)
		})
	}
}

// firstInOrder offers one service set: the first min(m,|S|) jobs of o
// still in S, the i-th of them completing at rate(i, j).
func firstInOrder(o Order, m int, rate func(i, j int) float64) func(int, func([]rated)) {
	var a []rated
	return func(s int, try func([]rated)) {
		a = a[:0]
		for _, j := range o {
			if s&(1<<j) != 0 {
				a = append(a, rated{j, rate(len(a), j)})
				if len(a) == m {
					break
				}
			}
		}
		try(a)
	}
}

// everyAssignment offers every assignment of distinct jobs of S to the
// machines that serves at least one job, a machine possibly idle: job j on
// machine i completes at speeds[i]*rates[j], and A lists its jobs by
// machine.
func everyAssignment(rates, speeds []float64) func(int, func([]rated)) {
	assign := make([]int, len(speeds))
	var a []rated
	var s int
	var try func([]rated)
	var rec func(machine int)
	rec = func(machine int) {
		if machine == len(assign) {
			a = a[:0]
			for i, j := range assign {
				if j >= 0 {
					a = append(a, rated{j, speeds[i] * rates[j]})
				}
			}
			if len(a) > 0 {
				try(a)
			}
			return
		}
		assign[machine] = -1
		rec(machine + 1)
		for j := range rates {
			if s&(1<<j) != 0 && !slices.Contains(assign[:machine], j) {
				assign[machine] = j
				rec(machine + 1)
			}
		}
		assign[machine] = -1
	}
	return func(set int, t func([]rated)) {
		s, try = set, t
		rec(0)
	}
}
