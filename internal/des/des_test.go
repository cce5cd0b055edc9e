package des

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"stochsched/internal/rng"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	var order []float64
	times := []float64{5, 1, 3, 2, 4}
	for _, tt := range times {
		tt := tt
		s.At(tt, func() { order = append(order, tt) })
	}
	s.Run()
	if !sort.Float64sAreSorted(order) {
		t.Fatalf("events fired out of order: %v", order)
	}
	if len(order) != len(times) {
		t.Fatalf("fired %d events, want %d", len(order), len(times))
	}
}

func TestFIFOTieBreak(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(1.0, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", order)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	s := New()
	s.At(2, func() {
		if s.Now() != 2 {
			t.Errorf("Now() = %v inside event at 2", s.Now())
		}
		s.Schedule(3, func() {
			if s.Now() != 5 {
				t.Errorf("Now() = %v inside chained event", s.Now())
			}
		})
	})
	s.Run()
	if s.Now() != 5 {
		t.Fatalf("final clock %v, want 5", s.Now())
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	h := s.At(1, func() { fired = true })
	s.At(2, func() {})
	h.Cancel()
	h.Cancel() // double-cancel is a no-op
	if s.Pending() != 1 {
		t.Fatalf("pending %d after cancelling one of two events, want 1", s.Pending())
	}
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if s.Fired() != 1 {
		t.Fatalf("fired count = %d, want 1", s.Fired())
	}
}

func TestCancelFromEvent(t *testing.T) {
	s := New()
	fired := false
	var h Handle
	s.At(1, func() { h.Cancel() })
	h = s.At(2, func() { fired = true })
	s.Run()
	if fired {
		t.Fatal("event cancelled at t=1 still fired at t=2")
	}
}

func TestCancelFiredIsNoOp(t *testing.T) {
	s := New()
	count := 0
	first := s.At(1, func() { count++ })
	s.At(2, func() { count++ })
	s.RunUntil(1.5)
	first.Cancel() // already fired: must not disturb the queue
	Handle{}.Cancel()
	if s.Pending() != 1 {
		t.Fatalf("pending %d after cancelling a fired event, want 1", s.Pending())
	}
	s.Run()
	if count != 2 {
		t.Fatalf("fired %d events, want 2", count)
	}
}

// TestCancelKeepsSimultaneousFIFO: removing events from the middle of the
// heap must leave the survivors of one instant in scheduling order.
func TestCancelKeepsSimultaneousFIFO(t *testing.T) {
	stream := rng.New(5)
	for trial := 0; trial < 20; trial++ {
		s := New()
		var order, want []int
		handles := make([]Handle, 40)
		for i := range handles {
			i := i
			// Interleave two instants so the heap holds more than one key.
			handles[i] = s.At(float64(1+i%2), func() { order = append(order, i) })
		}
		cancelled := make([]bool, len(handles))
		for i := range handles {
			if stream.Bernoulli(0.4) {
				handles[i].Cancel()
				cancelled[i] = true
			}
		}
		for _, odd := range []int{0, 1} {
			for i := odd; i < len(handles); i += 2 {
				if !cancelled[i] {
					want = append(want, i)
				}
			}
		}
		if s.Pending() != len(want) {
			t.Fatalf("trial %d: pending %d, want %d live events", trial, s.Pending(), len(want))
		}
		s.Run()
		if len(order) != len(want) {
			t.Fatalf("trial %d: fired %v, want %v", trial, order, want)
		}
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("trial %d: fired %v, want %v", trial, order, want)
			}
		}
	}
}

// TestEventPathAllocationFree: once the queue has grown to its working
// depth, firing an event that reschedules a bound closure allocates nothing.
func TestEventPathAllocationFree(t *testing.T) {
	s := New()
	k := 0
	var tick func()
	tick = func() {
		k++
		s.Schedule(1+float64(k%7)*0.125, tick)
	}
	for i := 0; i < 64; i++ {
		s.Schedule(float64(i)/64, tick)
	}
	s.RunUntil(20)
	if allocs := testing.AllocsPerRun(10000, func() { s.Step() }); allocs != 0 {
		t.Fatalf("%v allocations per event, want 0", allocs)
	}
	if s.Pending() != 64 {
		t.Fatalf("chain depth %d, want 64", s.Pending())
	}
}

// TestNext: the peek reads the earliest pending time, +Inf on an empty
// queue, follows a cancelled root, and neither fires nor moves the clock.
func TestNext(t *testing.T) {
	s := New()
	if got := s.Next(); !math.IsInf(got, 1) {
		t.Fatalf("Next on an empty queue = %v, want +Inf", got)
	}
	s.At(3, func() {})
	root := s.At(1, func() {})
	s.At(2, func() {})
	if got := s.Next(); got != 1 {
		t.Fatalf("Next = %v, want 1", got)
	}
	root.Cancel()
	if got := s.Next(); got != 2 {
		t.Fatalf("Next after cancelling the root = %v, want 2", got)
	}
	if s.Now() != 0 || s.Fired() != 0 || s.Pending() != 2 {
		t.Fatalf("Next moved the simulator: now %v, fired %d, pending %d", s.Now(), s.Fired(), s.Pending())
	}
	s.Step()
	if got := s.Next(); got != 3 {
		t.Fatalf("Next after one step = %v, want 3", got)
	}
	s.Step()
	if got := s.Next(); !math.IsInf(got, 1) {
		t.Fatalf("Next once drained = %v, want +Inf", got)
	}
}

// TestStepPopsLikeRemove: Step's root-only pop must leave every event in
// the heap slot remove(0) — a sift-down and a no-op sift-up — leaves it in,
// so the heap's layout, not only its firing order, is unchanged. Two
// simulators take the same random schedule and cancel calls; one pops with
// Step, the other with remove(0).
func TestStepPopsLikeRemove(t *testing.T) {
	stream := rng.New(77)
	a, b := New(), New()
	var ha, hb []Handle
	for op := 0; op < 5000; op++ {
		switch u := stream.Float64(); {
		case u < 0.5:
			tm := a.Now() + float64(stream.Intn(8)) // coarse times make ties
			ha = append(ha, a.At(tm, func() {}))
			hb = append(hb, b.At(tm, func() {}))
		case u < 0.6 && len(ha) > 0:
			i := stream.Intn(len(ha))
			ha[i].Cancel()
			hb[i].Cancel()
		case len(a.queue) > 0:
			a.Step()
			ev := b.queue[0]
			b.remove(0)
			b.now = ev.time
		}
		if len(a.queue) != len(b.queue) {
			t.Fatalf("op %d: %d pending after Step, %d after remove(0)", op, len(a.queue), len(b.queue))
		}
		for i := range a.queue {
			if a.queue[i].time != b.queue[i].time || a.queue[i].seq != b.queue[i].seq {
				t.Fatalf("op %d: heap slot %d holds (%v, %d) after Step, (%v, %d) after remove(0)",
					op, i, a.queue[i].time, a.queue[i].seq, b.queue[i].time, b.queue[i].seq)
			}
		}
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(float64(i), func() { count++ })
	}
	s.RunUntil(5.5)
	if count != 5 {
		t.Fatalf("fired %d events by t=5.5, want 5", count)
	}
	if s.Now() != 5.5 {
		t.Fatalf("clock %v, want horizon 5.5", s.Now())
	}
	s.RunUntil(100)
	if count != 10 {
		t.Fatalf("fired %d events total, want 10", count)
	}
}

func TestSchedulingPastPanics(t *testing.T) {
	s := New()
	s.At(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling into the past did not panic")
			}
		}()
		s.At(1, func() {})
	})
	s.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	New().Schedule(-1, func() {})
}

// TestRandomScheduleOrdering drives the kernel with random event sets and
// checks the firing order matches a sorted reference.
func TestRandomScheduleOrdering(t *testing.T) {
	stream := rng.New(99)
	err := quick.Check(func(nRaw uint8) bool {
		n := int(nRaw%100) + 1
		s := New()
		times := make([]float64, n)
		var fired []float64
		for i := 0; i < n; i++ {
			times[i] = stream.Float64() * 100
			tt := times[i]
			s.At(tt, func() { fired = append(fired, tt) })
		}
		s.Run()
		sort.Float64s(times)
		if len(fired) != n {
			return false
		}
		for i := range times {
			if fired[i] != times[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []float64 {
		s := New()
		stream := rng.New(7)
		var log []float64
		var arrive func()
		arrive = func() {
			log = append(log, s.Now())
			if s.Now() < 50 {
				s.Schedule(stream.Exp(1), arrive)
			}
		}
		s.Schedule(stream.Exp(1), arrive)
		s.Run()
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Stress: random interleavings of scheduling and cancellation must fire
// exactly the non-cancelled events, in time order.
func TestRandomCancellationStress(t *testing.T) {
	stream := rng.New(123)
	for trial := 0; trial < 30; trial++ {
		s := New()
		type rec struct {
			time      float64
			cancelled bool
		}
		var recs []*rec
		var fired []float64
		var handles []Handle
		n := 50 + stream.Intn(200)
		for i := 0; i < n; i++ {
			r := &rec{time: stream.Float64() * 100}
			recs = append(recs, r)
			h := s.At(r.time, func() { fired = append(fired, r.time) })
			handles = append(handles, h)
		}
		// Cancel a random third.
		for i := range handles {
			if stream.Bernoulli(0.33) {
				handles[i].Cancel()
				recs[i].cancelled = true
			}
		}
		s.Run()
		var want []float64
		for _, r := range recs {
			if !r.cancelled {
				want = append(want, r.time)
			}
		}
		sort.Float64s(want)
		if len(fired) != len(want) {
			t.Fatalf("trial %d: fired %d events, want %d", trial, len(fired), len(want))
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("trial %d: event %d fired at %v, want %v", trial, i, fired[i], want[i])
			}
		}
	}
}

func BenchmarkScheduleAndFire(b *testing.B) {
	s := New()
	stream := rng.New(1)
	// Keep a rolling queue of 1000 events.
	for i := 0; i < 1000; i++ {
		s.Schedule(stream.Float64(), func() {})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(s.Now()+stream.Float64(), func() {})
		s.Step()
	}
}
