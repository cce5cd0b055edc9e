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
	return expDP(n, weightHolding(weights), everySubset(rates, m)), nil
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
	return expDP(n, weightHolding(weights), firstInOrder(o, m, func(_, j int) float64 { return rates[j] })), nil
}

// weightHolding returns the holding rate w(S) = Σ_{j∈S} w_j, tabulated for
// every subset by adding each set's lowest job to the rest.
func weightHolding(weights []float64) func(s int) float64 {
	wSum := make([]float64, 1<<len(weights))
	for s := 1; s < len(wSum); s++ {
		wSum[s] = wSum[s&(s-1)] + weights[bits.TrailingZeros(uint(s))]
	}
	return func(s int) float64 { return wSum[s] }
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
