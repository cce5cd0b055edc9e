// Package des is a deterministic discrete-event simulation kernel.
//
// A Simulator owns a virtual clock and a pending-event queue: a binary
// min-heap of event values ordered by (time, seq), where seq is the
// scheduling order. Simultaneous events therefore fire first-in,
// first-out, and a run is bit-for-bit reproducible: the firing order is a
// pure function of the sequence of Schedule/At calls, however the heap
// shuffles its slots.
//
// Events are plain closures. Schedule and At store the func value they are
// given and allocate nothing once the queue has grown to its working
// depth, so a model that binds its closures once per replication — one
// arrival closure per class, one completion closure, each rescheduling
// itself — runs its whole event loop without allocating. A func literal
// written inside an event allocates anew every time it is evaluated;
// hoist it out of the loop.
//
// Schedule and At return a Handle, a plain value naming the event by its
// sequence number. Cancel removes the event from the queue (a preemptive
// discipline can revoke a tentative completion this way); once the event
// has fired or been cancelled, Cancel does nothing. Pending counts only
// events that will still fire, and Next peeks at the earliest one's time,
// so a model can advance through a stretch of its own events that nothing
// pending can interrupt without queueing each one.
//
// No program in this repository runs on a Simulator. The queueing
// package's loops keep plain event slots of their own in this package's
// (time, seq) order, and its tests hold them to reference loops written on
// a Simulator; the benchmark module's layer measurements time its events.
package des

import "math"

// Handle names a scheduled event so it can be cancelled. The zero Handle
// names no event.
type Handle struct {
	sim *Simulator
	seq uint64
}

// Cancel removes the event from the queue. Cancelling an event that has
// already fired or been cancelled is a no-op. It costs a scan of the
// pending events.
func (h Handle) Cancel() {
	if h.sim == nil {
		return
	}
	q := h.sim.queue
	for i := range q {
		if q[i].seq == h.seq {
			h.sim.remove(i)
			return
		}
	}
}

type event struct {
	time   float64
	seq    uint64
	action func()
}

func (e *event) before(o *event) bool {
	return e.time < o.time || (e.time == o.time && e.seq < o.seq)
}

// Simulator is a discrete-event simulation clock and event queue. The zero
// value is ready to use.
type Simulator struct {
	now   float64
	queue []event // binary min-heap on (time, seq)
	seq   uint64
	fired uint64
}

// New returns a fresh simulator at time 0.
func New() *Simulator { return &Simulator{} }

// Now returns the current simulation time.
func (s *Simulator) Now() float64 { return s.now }

// Fired returns the number of events executed so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// Pending returns the number of events still queued to fire.
func (s *Simulator) Pending() int { return len(s.queue) }

// Next returns the time of the earliest pending event, or +Inf when none is
// pending. It only reads the queue.
func (s *Simulator) Next() float64 {
	if len(s.queue) == 0 {
		return math.Inf(1)
	}
	return s.queue[0].time
}

// Schedule queues action to run after the given nonnegative delay and
// returns a cancellation handle.
func (s *Simulator) Schedule(delay float64, action func()) Handle {
	if delay < 0 || math.IsNaN(delay) {
		panic("des: negative or NaN delay")
	}
	return s.At(s.now+delay, action)
}

// At queues action at absolute time t ≥ Now().
func (s *Simulator) At(t float64, action func()) Handle {
	if t < s.now {
		panic("des: scheduling into the past")
	}
	h := Handle{sim: s, seq: s.seq}
	s.seq++
	s.queue = append(s.queue, event{time: t, seq: h.seq, action: action})
	s.up(len(s.queue) - 1)
	return h
}

// Step executes the next pending event, if any, and reports whether one
// fired.
func (s *Simulator) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	ev := s.queue[0]
	last := len(s.queue) - 1
	s.queue[0] = s.queue[last]
	s.queue[last] = event{} // drop the closure for the collector
	s.queue = s.queue[:last]
	if last > 0 {
		s.down(0) // the root has no parent: one sift-down restores the heap
	}
	s.now = ev.time
	s.fired++
	ev.action()
	return true
}

// RunUntil executes events in order until the queue is exhausted or the
// next event lies beyond horizon. The clock is left at the horizon if it
// was reached, else at the last event time.
func (s *Simulator) RunUntil(horizon float64) {
	for len(s.queue) > 0 && s.queue[0].time <= horizon {
		s.Step()
	}
	if s.now < horizon {
		s.now = horizon
	}
}

// Run executes all pending events until the queue drains.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// remove deletes the event in heap slot i, restoring the heap order.
// Handle.Cancel uses it; Step pops the root on its own, which needs no
// sift-up.
func (s *Simulator) remove(i int) {
	last := len(s.queue) - 1
	s.queue[i] = s.queue[last]
	s.queue[last] = event{} // drop the closure for the collector
	s.queue = s.queue[:last]
	if i < last {
		s.down(i)
		s.up(i)
	}
}

func (s *Simulator) up(i int) {
	q := s.queue
	e := q[i]
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
}

func (s *Simulator) down(i int) {
	q := s.queue
	e := q[i]
	for {
		c := 2*i + 1
		if c >= len(q) {
			break
		}
		if r := c + 1; r < len(q) && q[r].before(&q[c]) {
			c = r
		}
		if !q[c].before(&e) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = e
}
