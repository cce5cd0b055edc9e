package batch

import (
	"fmt"
	"math"
	"math/bits"
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
	v := make([]float64, 1<<n)
	for s := 1; s < 1<<n; s++ {
		size := bits.OnesCount(uint(s))
		k := m
		if size < m {
			k = size
		}
		best := math.Inf(1)
		forEachSubsetOfSize(s, k, func(a int) {
			muA := 0.0
			for j := 0; j < n; j++ {
				if a&(1<<j) != 0 {
					muA += rates[j]
				}
			}
			var cost float64
			if obj == Flowtime {
				cost = float64(size) / muA
			} else {
				cost = 1 / muA
			}
			for j := 0; j < n; j++ {
				if a&(1<<j) != 0 {
					cost += rates[j] / muA * v[s&^(1<<j)]
				}
			}
			if cost < best {
				best = cost
			}
		})
		v[s] = best
	}
	return v[(1<<n)-1], nil
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
	v := make([]float64, 1<<n)
	for s := 1; s < 1<<n; s++ {
		size := bits.OnesCount(uint(s))
		k := m
		if size < m {
			k = size
		}
		// Serve the first k jobs of the order that are still in S.
		muA := 0.0
		var served []int
		for _, j := range o {
			if s&(1<<j) != 0 {
				served = append(served, j)
				muA += rates[j]
				if len(served) == k {
					break
				}
			}
		}
		var cost float64
		if obj == Flowtime {
			cost = float64(size) / muA
		} else {
			cost = 1 / muA
		}
		for _, j := range served {
			cost += rates[j] / muA * v[s&^(1<<j)]
		}
		v[s] = cost
	}
	return v[(1<<n)-1], nil
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
	v := make([]float64, 1<<n)
	for s := 1; s < 1<<n; s++ {
		size := bits.OnesCount(uint(s))
		best := math.Inf(1)
		// Enumerate assignments: for each machine, either idle (-1) or a job
		// in S not already assigned.
		assign := make([]int, m)
		var rec func(machine int)
		rec = func(machine int) {
			if machine == m {
				anyServed := false
				for _, a := range assign {
					if a >= 0 {
						anyServed = true
					}
				}
				if !anyServed {
					return
				}
				total := 0.0
				for i, a := range assign {
					if a >= 0 {
						total += speeds[i] * rates[a]
					}
				}
				var cost float64
				if obj == Flowtime {
					cost = float64(size) / total
				} else {
					cost = 1 / total
				}
				for i, a := range assign {
					if a >= 0 {
						cost += speeds[i] * rates[a] / total * v[s&^(1<<a)]
					}
				}
				if cost < best {
					best = cost
				}
				return
			}
			assign[machine] = -1
			rec(machine + 1)
			for j := 0; j < n; j++ {
				if s&(1<<j) == 0 {
					continue
				}
				taken := false
				for i := 0; i < machine; i++ {
					if assign[i] == j {
						taken = true
						break
					}
				}
				if taken {
					continue
				}
				assign[machine] = j
				rec(machine + 1)
			}
			assign[machine] = -1
		}
		rec(0)
		v[s] = best
	}
	return v[(1<<n)-1], nil
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
	v := make([]float64, 1<<n)
	for s := 1; s < 1<<n; s++ {
		size := bits.OnesCount(uint(s))
		k := m
		if size < m {
			k = size
		}
		total := 0.0
		type pair struct{ job, mach int }
		var served []pair
		mi := 0
		for _, j := range jobOrder {
			if s&(1<<j) != 0 {
				served = append(served, pair{j, machOrder[mi]})
				total += speeds[machOrder[mi]] * rates[j]
				mi++
				if len(served) == k {
					break
				}
			}
		}
		var cost float64
		if obj == Flowtime {
			cost = float64(size) / total
		} else {
			cost = 1 / total
		}
		for _, p := range served {
			cost += speeds[p.mach] * rates[p.job] / total * v[s&^(1<<p.job)]
		}
		v[s] = cost
	}
	return v[(1<<n)-1], nil
}

// forEachSubsetOfSize invokes fn for every subset a of mask s with exactly k
// bits set.
func forEachSubsetOfSize(s, k int, fn func(a int)) {
	var positions []int
	for j := 0; j < 32; j++ {
		if s&(1<<j) != 0 {
			positions = append(positions, j)
		}
	}
	n := len(positions)
	if k > n {
		k = n
	}
	var rec func(start, depth int, acc int)
	rec = func(start, depth, acc int) {
		if depth == k {
			fn(acc)
			return
		}
		for i := start; i <= n-(k-depth); i++ {
			rec(i+1, depth+1, acc|1<<positions[i])
		}
	}
	rec(0, 0, 0)
}
