package batch

import (
	"container/heap"
	"fmt"
	"sync"

	"stochsched/internal/dist"
	"stochsched/internal/rng"
	"stochsched/internal/stats"
)

// ParallelResult carries the realized objectives of one replication on
// identical parallel machines.
type ParallelResult struct {
	Flowtime         float64 // Σ C_i
	WeightedFlowtime float64 // Σ w_i C_i
	Makespan         float64 // max C_i
}

// machineHeap is a min-heap of machine free times.
type machineHeap []float64

func (h machineHeap) Len() int           { return len(h) }
func (h machineHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h machineHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *machineHeap) Push(x any)        { *h = append(*h, x.(float64)) }
func (h *machineHeap) Pop() any          { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }

// heapScratch recycles machine-heap buffers across replications: a
// replication loop runs the list mechanism thousands of times with the same
// machine count, so the per-replication heap is scratch, not state. The
// zeroed heap (all machines free at time 0) is already heap-ordered, so a
// recycled buffer is indistinguishable from a fresh allocation.
var heapScratch = sync.Pool{New: func() any { return new(machineHeap) }}

func getMachineHeap(m int) *machineHeap {
	h := heapScratch.Get().(*machineHeap)
	if cap(*h) < m {
		*h = make(machineHeap, m)
		return h
	}
	*h = (*h)[:m]
	for i := range *h {
		(*h)[i] = 0
	}
	return h
}

// SimulateList runs one replication of a list policy on in.Machines
// identical machines: whenever a machine frees, the next unstarted job in
// order o begins there. Returns the realized objectives. The order must be
// valid (MustOrder); callers check it once per estimate rather than once
// per replication.
//
// For nonpreemptive scheduling of a fixed batch this list mechanism is the
// standard dynamic implementation of SEPT/LEPT/WSEPT: the order is computed
// from the distributions up front, and jobs are dispatched as capacity
// becomes available.
func SimulateList(in *Instance, o Order, s *rng.Stream) ParallelResult {
	hp := getMachineHeap(in.Machines)
	defer heapScratch.Put(hp)
	free := *hp // shares hp's backing array; Fix below never changes len
	var res ParallelResult
	for _, idx := range o {
		start := free[0]
		dur := in.Jobs[idx].Dist.Sample(s)
		done := start + dur
		free[0] = done
		heap.Fix(hp, 0)
		res.Flowtime += done
		res.WeightedFlowtime += in.Jobs[idx].Weight * done
		if done > res.Makespan {
			res.Makespan = done
		}
	}
	return res
}

// ParallelEstimate aggregates replications of a list policy.
type ParallelEstimate struct {
	Flowtime         stats.Running
	WeightedFlowtime stats.Running
	Makespan         stats.Running
}

// Add folds one replication's objectives into the estimate.
func (e *ParallelEstimate) Add(r ParallelResult) {
	e.Flowtime.Add(r.Flowtime)
	e.WeightedFlowtime.Add(r.WeightedFlowtime)
	e.Makespan.Add(r.Makespan)
}

// supportOf extracts the finite support of a distribution, when it has one.
func supportOf(d dist.Distribution) (values, probs []float64, ok bool) {
	switch v := d.(type) {
	case dist.Deterministic:
		return []float64{v.Value}, []float64{1}, true
	case dist.TwoPoint:
		return []float64{v.A, v.B}, []float64{v.PA, 1 - v.PA}, true
	case dist.Discrete:
		return v.Values, v.Probs, true
	default:
		return nil, nil, false
	}
}

// ExactParallelDiscrete computes the exact expected objectives of a list
// policy on identical machines when every job has a finite discrete
// processing-time law, by enumerating the product of supports. Exponential
// in the number of jobs; intended for the small counterexample instances of
// Coffman–Hofri–Weiss (experiment E06), where Monte-Carlo noise would mask
// the reversal.
func ExactParallelDiscrete(in *Instance, o Order) (ParallelResult, error) {
	n := len(in.Jobs)
	if !validOrder(o, n) {
		return ParallelResult{}, fmt.Errorf("batch: invalid order")
	}
	values := make([][]float64, n)
	probs := make([][]float64, n)
	total := 1
	for i, j := range in.Jobs {
		v, p, ok := supportOf(j.Dist)
		if !ok {
			return ParallelResult{}, fmt.Errorf("batch: job %d has non-discrete law %v", i, j.Dist)
		}
		values[i], probs[i] = v, p
		total *= len(v)
		if total > 1<<20 {
			return ParallelResult{}, fmt.Errorf("batch: support product too large")
		}
	}
	var res ParallelResult
	p := make([]float64, n)
	var rec func(job int, prob float64)
	rec = func(job int, prob float64) {
		if job == n {
			r := evalListDeterministic(in, o, p)
			res.Flowtime += prob * r.Flowtime
			res.WeightedFlowtime += prob * r.WeightedFlowtime
			res.Makespan += prob * r.Makespan
			return
		}
		for k := range values[job] {
			if probs[job][k] == 0 {
				continue
			}
			p[job] = values[job][k]
			rec(job+1, prob*probs[job][k])
		}
	}
	rec(0, 1)
	return res, nil
}

// evalListDeterministic runs the list policy on given realized times.
func evalListDeterministic(in *Instance, o Order, p []float64) ParallelResult {
	hp := getMachineHeap(in.Machines)
	defer heapScratch.Put(hp)
	free := *hp // shares hp's backing array; Fix below never changes len
	var res ParallelResult
	for _, idx := range o {
		start := free[0]
		done := start + p[idx]
		free[0] = done
		heap.Fix(hp, 0)
		res.Flowtime += done
		res.WeightedFlowtime += in.Jobs[idx].Weight * done
		if done > res.Makespan {
			res.Makespan = done
		}
	}
	return res
}
