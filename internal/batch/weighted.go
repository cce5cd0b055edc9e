package batch

import (
	"fmt"
	"math/bits"
	"sort"
)

// Weighted-flowtime extensions of the exponential-case DP. For a single
// machine the wµ rule (the exponential instance of Smith's ratio) is
// optimal; on parallel machines it is optimal under agreeability conditions
// (Kämpke) and near-optimal in general — the ablation measured by
// experiment E24.

// ExpOptimalWeightedDP computes the minimal E[Σ w_j C_j] for exponential
// jobs with the given rates and weights on m identical machines, by subset
// DP: from uncompleted set S with holding rate w(S) = Σ_{j∈S} w_j,
//
//	V(S) = min_A [ w(S)/µ(A) + Σ_{j∈A} µ_j/µ(A) · V(S∖j) ].
func ExpOptimalWeightedDP(rates, weights []float64, m int) (float64, error) {
	n := len(rates)
	if n == 0 || n > maxDPJobs {
		return 0, fmt.Errorf("batch: ExpOptimalWeightedDP supports 1..%d jobs, got %d", maxDPJobs, n)
	}
	if len(weights) != n {
		return 0, fmt.Errorf("batch: weights length %d, want %d", len(weights), n)
	}
	if m < 1 {
		return 0, fmt.Errorf("batch: need m >= 1")
	}
	for i := range rates {
		if rates[i] <= 0 || weights[i] < 0 {
			return 0, fmt.Errorf("batch: job %d needs positive rate and nonnegative weight", i)
		}
	}
	// Precompute w(S) incrementally.
	wSum := make([]float64, 1<<n)
	for s := 1; s < 1<<n; s++ {
		low := bits.TrailingZeros(uint(s))
		wSum[s] = wSum[s&(s-1)] + weights[low]
	}
	v := make([]float64, 1<<n)
	for s := 1; s < 1<<n; s++ {
		size := bits.OnesCount(uint(s))
		k := m
		if size < m {
			k = size
		}
		best := -1.0
		forEachSubsetOfSize(s, k, func(a int) {
			muA := 0.0
			for j := 0; j < n; j++ {
				if a&(1<<j) != 0 {
					muA += rates[j]
				}
			}
			cost := wSum[s] / muA
			for j := 0; j < n; j++ {
				if a&(1<<j) != 0 {
					cost += rates[j] / muA * v[s&^(1<<j)]
				}
			}
			if best < 0 || cost < best {
				best = cost
			}
		})
		v[s] = best
	}
	return v[(1<<n)-1], nil
}

// ExpPolicyValueWeighted evaluates a list policy's E[Σ w_j C_j] exactly on
// m identical machines with exponential rates.
func ExpPolicyValueWeighted(rates, weights []float64, m int, o Order) (float64, error) {
	n := len(rates)
	if n == 0 || n > maxDPJobs {
		return 0, fmt.Errorf("batch: ExpPolicyValueWeighted supports 1..%d jobs, got %d", maxDPJobs, n)
	}
	if len(weights) != n {
		return 0, fmt.Errorf("batch: weights length %d, want %d", len(weights), n)
	}
	if !validOrder(o, n) {
		return 0, fmt.Errorf("batch: invalid order")
	}
	wSum := make([]float64, 1<<n)
	for s := 1; s < 1<<n; s++ {
		low := bits.TrailingZeros(uint(s))
		wSum[s] = wSum[s&(s-1)] + weights[low]
	}
	v := make([]float64, 1<<n)
	for s := 1; s < 1<<n; s++ {
		size := bits.OnesCount(uint(s))
		k := m
		if size < m {
			k = size
		}
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
		cost := wSum[s] / muA
		for _, j := range served {
			cost += rates[j] / muA * v[s&^(1<<j)]
		}
		v[s] = cost
	}
	return v[(1<<n)-1], nil
}

// WMuOrder returns jobs sorted by nonincreasing w_j·µ_j, the exponential
// Smith ratio (identical to WSEPT for exponential laws, expressed in rates).
func WMuOrder(rates, weights []float64) Order {
	o := identityOrder(len(rates))
	sort.SliceStable(o, func(a, b int) bool {
		return weights[o[a]]*rates[o[a]] > weights[o[b]]*rates[o[b]]
	})
	return o
}
