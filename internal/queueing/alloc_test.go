package queueing

import (
	"math"
	"sync"
	"testing"

	"stochsched/internal/dist"
	"stochsched/internal/rng"
)

// TestReplicationAllocations pins the allocation-free event path: one
// replication at the benchmark's body sizes allocates only its set-up,
// never per event. Every replication takes its queues, slots, class draws
// and tallies from the recycled loops. A station-loop replication (mg1,
// mmm, jackson) allocates its rule's ranks, its served counts and its
// result: 6 in all, against 33–35 when it bound des closures per
// replication and 1,267–3,465 when every event carried its own closure.
// Polling allocates its served counts and result, 4, and the preemptive
// M/M/1 its ranks besides, 5, against 30 and 25 when they bound des
// closures (polling's switchover stream lives in the recycled loop).
// Under the race detector sync.Pool drops a quarter of the state put back,
// so a race build is held to the ceilings the test had before recycling, a
// tenth of the per-event closures' counts; preemptive takes mg1's, whose
// model and window it runs.
func TestReplicationAllocations(t *testing.T) {
	exp := func(mean float64) dist.Distribution { return dist.Exponential{Rate: 1 / mean} }
	mg1 := &MG1{Classes: []Class{
		{ArrivalRate: 0.3, Service: exp(0.5), HoldCost: 4},
		{ArrivalRate: 0.2, Service: exp(1), HoldCost: 1},
	}}
	cmu := Priority{Orders: [][]int{mg1.CMuOrder()}}
	mmm := &MMm{Servers: 2, Classes: []Class{
		{ArrivalRate: 0.8, Service: exp(1), HoldCost: 3},
		{ArrivalRate: 0.6, Service: exp(0.5), HoldCost: 1},
	}}
	mmmOrder := mmm.CMuOrder()
	nw := &Network{Stations: 2, Classes: []NetClass{
		{Station: 0, ArrivalRate: 0.8, Service: exp(0.5), HoldCost: 2, Next: 1},
		{Station: 1, Service: exp(0.4), HoldCost: 1, Next: -1},
	}}
	fcfs := &NetworkPolicy{StationOrder: [][]int{{0}, {1}}}
	poll := &Polling{Regime: Exhaustive, Switch: dist.Deterministic{Value: 0.1}, Queues: []Class{
		{ArrivalRate: 0.4, Service: exp(0.6), HoldCost: 2},
		{ArrivalRate: 0.3, Service: exp(1), HoldCost: 1},
	}}
	for _, tc := range []struct {
		name      string
		max, race float64
		run       func(s *rng.Stream) error
	}{
		{"mg1", 6, 126, func(s *rng.Stream) error {
			_, err := mg1.Simulate(cmu, 400, 50, s)
			return err
		}},
		{"mmm", 6, 346, func(s *rng.Stream) error {
			_, err := mmm.Simulate(mmmOrder, 400, 50, s)
			return err
		}},
		{"jackson", 6, 225, func(s *rng.Stream) error {
			_, err := nw.Simulate(fcfs, 300, 50, 0, s)
			return err
		}},
		{"polling", 4, 564, func(s *rng.Stream) error {
			_, err := poll.Simulate(300, 50, s)
			return err
		}},
		{"preemptive", 5, 126, func(s *rng.Stream) error {
			_, err := mg1.SimulatePreemptive(cmu.Orders[0], 400, 50, s)
			return err
		}},
	} {
		const runs = 20
		streams := make([]rng.Stream, runs+1)
		rng.New(7).SplitInto(streams)
		i := 0
		var err error
		allocs := testing.AllocsPerRun(runs, func() {
			if e := tc.run(&streams[i]); e != nil {
				err = e
			}
			i++
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		t.Logf("%s: %v allocations per replication", tc.name, allocs)
		max := tc.max
		if raceDetector {
			max = tc.race
		}
		if allocs > max {
			t.Errorf("%s: %v allocations per replication, want ≤ %v", tc.name, allocs, max)
		}
	}
}

// TestConcurrentReplicationsMatchSequential: replications running at once
// take and return recycled state from the same pool, across models of
// different sizes and all three loops on the agenda (the station loop,
// polling and the preemptive M/M/1), and each still returns exactly what it
// returns when run alone.
func TestConcurrentReplicationsMatchSequential(t *testing.T) {
	exp := func(mean float64) dist.Distribution { return dist.Exponential{Rate: 1 / mean} }
	mg1 := &MG1{Classes: []Class{
		{ArrivalRate: 0.3, Service: exp(0.5), HoldCost: 4},
		{ArrivalRate: 0.2, Service: dist.Uniform{Lo: 0.5, Hi: 1.5}, HoldCost: 1},
	}}
	mmm := &MMm{Servers: 40, Classes: []Class{
		{ArrivalRate: 20, Service: exp(1), HoldCost: 3},
		{ArrivalRate: 30, Service: exp(0.5), HoldCost: 1},
		{ArrivalRate: 3, Service: exp(1), HoldCost: 2},
	}}
	nw := LuKumar(1, 0.1, 0.6, 0.1, 0.6)
	poll := &Polling{Regime: Gated, Switch: dist.Deterministic{Value: 0.1}, Queues: mg1.Classes}
	k := NoFeedback(mg1)
	pre := &MG1{Classes: []Class{{ArrivalRate: 0.3, Service: exp(0.5), HoldCost: 4}, {ArrivalRate: 0.2, Service: exp(1), HoldCost: 1}}}
	runs := []func(s *rng.Stream) ([]float64, error){
		func(s *rng.Stream) ([]float64, error) {
			r, err := mg1.Simulate(Priority{Orders: [][]int{{1, 0}, {0, 1}}, Weights: []float64{1, 2}}, 200, 20, s)
			if err != nil {
				return nil, err
			}
			return append(append(r.L, r.Wq...), r.CostRate), nil
		},
		func(s *rng.Stream) ([]float64, error) {
			r, err := mmm.Simulate(nil, 20, 2, s)
			if err != nil {
				return nil, err
			}
			return append(r.L, r.CostRate), nil
		},
		func(s *rng.Stream) ([]float64, error) {
			r, err := nw.Simulate(LuKumarBadPolicy(), 100, 10, 25, s)
			if err != nil {
				return nil, err
			}
			return append(append(r.L, r.Trajectory...), r.CostRate), nil
		},
		func(s *rng.Stream) ([]float64, error) {
			r, err := poll.Simulate(200, 20, s)
			if err != nil {
				return nil, err
			}
			return append(r.Wq, r.CostRate), nil
		},
		func(s *rng.Stream) ([]float64, error) {
			r, err := pre.SimulatePreemptive([]int{0, 1}, 200, 20, s)
			if err != nil {
				return nil, err
			}
			return r.L, nil
		},
		func(s *rng.Stream) ([]float64, error) {
			v, err := k.SimulateDiscounted([]int{0, 1}, 0.05, 200, s)
			return []float64{v}, err
		},
	}
	const seeds = 8
	want := make([][]float64, len(runs)*seeds)
	for i := range want {
		var err error
		if want[i], err = runs[i%len(runs)](rng.New(uint64(i / len(runs)))); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	got := make([][]float64, len(want))
	errs := make([]error, len(want))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(got); i += 4 {
				got[i], errs[i] = runs[i%len(runs)](rng.New(uint64(i / len(runs))))
			}
		}(w)
	}
	wg.Wait()
	for i := range want {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if len(got[i]) != len(want[i]) {
			t.Fatalf("run %d: %d values, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("run %d value %d: %v concurrently, %v alone", i, j, got[i][j], want[i][j])
			}
		}
	}
}
