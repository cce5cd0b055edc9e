package batch

import (
	"sort"

	"stochsched/internal/dist"
	"stochsched/internal/rng"
)

// Stochastic flow shops (Wie–Pinedo 1986): each job passes through machines
// 1..m in series; a permutation order fixes the sequence on every machine.
// For two machines with exponential processing times, Talwar's rule —
// sequence by nonincreasing µ₁(j) − µ₂(j) — minimizes expected makespan.

// FlowShopJob holds the per-stage processing-time laws of one job.
type FlowShopJob struct {
	ID     int
	Stages []dist.Distribution // law on machine k
}

// FlowShopMakespan computes the realized makespan of a permutation schedule
// given sampled processing times p[job][stage], using the standard critical
// path recurrence (no buffers constraints; infinite intermediate storage).
func FlowShopMakespan(p [][]float64, o Order) float64 {
	if len(p) == 0 {
		return 0
	}
	stages := len(p[0])
	// done[k] = completion time of the previous job on machine k.
	done := make([]float64, stages)
	for _, j := range o {
		t := 0.0
		for k := 0; k < stages; k++ {
			if done[k] > t {
				t = done[k]
			}
			t += p[j][k]
			done[k] = t
		}
	}
	return done[stages-1]
}

// FlowShopBlockingMakespan computes the realized makespan of a permutation
// schedule when there is no intermediate buffer (blocking): a job finished
// on machine k cannot leave until machine k+1 is free, holding machine k
// meanwhile. This is the Wie–Pinedo (1986) model. The recurrence tracks
// departure times d[k]: job j departs machine k at
//
//	d_j(k) = max( d_j(k−1) + p[j][k], d_{j−1}(k+1) ),
//
// with d_j(m−1) = d_j(m−2) + p[j][m−1] at the last machine (never blocked).
func FlowShopBlockingMakespan(p [][]float64, o Order) float64 {
	if len(p) == 0 {
		return 0
	}
	stages := len(p[0])
	prev := make([]float64, stages) // departure times of the previous job
	cur := make([]float64, stages)
	for _, j := range o {
		for k := 0; k < stages; k++ {
			// Start when both the job has arrived from the previous stage
			// and the previous job has departed this machine.
			start := prev[k]
			if k > 0 && cur[k-1] > start {
				start = cur[k-1]
			}
			done := start + p[j][k]
			if k+1 < stages && prev[k+1] > done {
				done = prev[k+1] // blocked until the next machine frees
			}
			cur[k] = done
		}
		prev, cur = cur, prev
	}
	return prev[stages-1]
}

// SampleFlowShop draws one realization of all stage processing times.
func SampleFlowShop(jobs []FlowShopJob, s *rng.Stream) [][]float64 {
	p := make([][]float64, len(jobs))
	for i, j := range jobs {
		p[i] = make([]float64, len(j.Stages))
		for k, d := range j.Stages {
			p[i][k] = d.Sample(s)
		}
	}
	return p
}

// TalwarOrder returns Talwar's sequence for a two-machine exponential flow
// shop: jobs sorted by nonincreasing µ₁ − µ₂. The rates are read from the
// jobs' stage distributions, which must be dist.Exponential.
func TalwarOrder(jobs []FlowShopJob) Order {
	o := identityOrder(len(jobs))
	key := func(j int) float64 {
		m1 := jobs[j].Stages[0].(dist.Exponential).Rate
		m2 := jobs[j].Stages[1].(dist.Exponential).Rate
		return m1 - m2
	}
	sort.SliceStable(o, func(a, b int) bool { return key(o[a]) > key(o[b]) })
	return o
}

// BestFlowShopOrderCRN estimates the best permutation for expected makespan
// by evaluating every order on the same set of sampled processing-time
// matrices (common random numbers), returning the winner and its estimate.
// Exhaustive: use only for small n.
func BestFlowShopOrderCRN(jobs []FlowShopJob, reps int, s *rng.Stream) (Order, float64) {
	n := len(jobs)
	samples := make([][][]float64, reps)
	for r := range samples {
		samples[r] = SampleFlowShop(jobs, s.Split())
	}
	var bestOrder Order
	bestVal := 0.0
	first := true
	Permutations(n, func(o Order) {
		sum := 0.0
		for _, p := range samples {
			sum += FlowShopMakespan(p, o)
		}
		mean := sum / float64(reps)
		if first || mean < bestVal {
			bestVal = mean
			bestOrder = append(Order(nil), o...)
			first = false
		}
	})
	return bestOrder, bestVal
}

// FlowShopSEPT orders jobs by nondecreasing total expected processing time
// across all stages — the natural SEPT analogue for flow shops.
func FlowShopSEPT(jobs []FlowShopJob) Order {
	o := identityOrder(len(jobs))
	key := totalMeanKey(jobs)
	sort.SliceStable(o, func(a, b int) bool { return key(o[a]) < key(o[b]) })
	return o
}

// FlowShopLEPT orders jobs by nonincreasing total expected processing time.
func FlowShopLEPT(jobs []FlowShopJob) Order {
	o := identityOrder(len(jobs))
	key := totalMeanKey(jobs)
	sort.SliceStable(o, func(a, b int) bool { return key(o[a]) > key(o[b]) })
	return o
}

func totalMeanKey(jobs []FlowShopJob) func(int) float64 {
	return func(j int) float64 {
		t := 0.0
		for _, d := range jobs[j].Stages {
			t += d.Mean()
		}
		return t
	}
}
