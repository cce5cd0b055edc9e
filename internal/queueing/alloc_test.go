package queueing

import (
	"testing"

	"stochsched/internal/dist"
	"stochsched/internal/rng"
)

// TestReplicationAllocations pins the allocation-free event path: one
// replication at the benchmark's body sizes allocates only its set-up
// (streams, closures, tallies, the result), never per event. The ceilings
// are a tenth of what the loops allocated when every event carried its own
// closure: mg1 1,267, mmm 3,465, jackson 2,255, polling 5,644.
func TestReplicationAllocations(t *testing.T) {
	exp := func(mean float64) dist.Distribution { return dist.Exponential{Rate: 1 / mean} }
	mg1 := &MG1{Classes: []Class{
		{ArrivalRate: 0.3, Service: exp(0.5), HoldCost: 4},
		{ArrivalRate: 0.2, Service: exp(1), HoldCost: 1},
	}}
	cmu := Discipline(StaticPriority{Order: mg1.CMuOrder()})
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
		name string
		max  float64
		run  func(s *rng.Stream) error
	}{
		{"mg1", 126, func(s *rng.Stream) error {
			_, err := mg1.Simulate(cmu, 400, 50, s)
			return err
		}},
		{"mmm", 346, func(s *rng.Stream) error {
			_, err := mmm.Simulate(mmmOrder, 400, 50, s)
			return err
		}},
		{"jackson", 225, func(s *rng.Stream) error {
			_, err := nw.Simulate(fcfs, 300, 50, 0, s)
			return err
		}},
		{"polling", 564, func(s *rng.Stream) error {
			_, err := poll.Simulate(300, 50, s)
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
		if allocs > tc.max {
			t.Errorf("%s: %v allocations per replication, want ≤ %v", tc.name, allocs, tc.max)
		}
	}
}
