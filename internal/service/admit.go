package service

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"time"
)

// ErrShed is returned by Admission.Acquire when the waiting queue is full;
// the server maps it to HTTP 429.
var ErrShed = errors.New("service: admission queue full")

// Admission bounds both the number of requests executing concurrently and
// the number allowed to wait for a slot. Beyond that the server sheds load
// with an immediate error instead of queueing unboundedly — goroutine count
// and queueing delay stay bounded no matter the offered load.
type Admission struct {
	slots chan struct{}
	// waiting counts interactive requests queued by Acquire; it is what
	// the maxWait shed bound is enforced against. waitingBg counts
	// background (AcquireBlocking) waiters separately, so a large sweep
	// parked for slots is visible in stats without eating the interactive
	// queue budget.
	waiting   atomic.Int64
	waitingBg atomic.Int64
	maxWait   int64
	// waitNs accumulates the wall-clock time admitted computations spent
	// parked in the queue (interactive and background together) — the
	// "queue-wait" stage of a request, exposed via EngineStats and the
	// admission span.
	waitNs atomic.Int64
}

// NewAdmission returns an admission gate running at most inflight requests
// with at most queue more waiting. Values < 1 are rounded up to 1 (inflight)
// and 0 (queue).
func NewAdmission(inflight, queue int) *Admission {
	if inflight < 1 {
		inflight = 1
	}
	if queue < 0 {
		queue = 0
	}
	return &Admission{slots: make(chan struct{}, inflight), maxWait: int64(queue)}
}

// Acquire claims an execution slot, waiting in the bounded queue if none is
// free. It returns ErrShed immediately when the queue is full, or the
// context's error if it is done first. A nil error must be paired with
// exactly one Release.
func (a *Admission) Acquire(ctx context.Context) error {
	return a.acquire(ctx, &a.waiting, a.maxWait)
}

// AcquireBlocking claims an execution slot, waiting as long as it takes
// (or until ctx is done) without ever shedding. The bounded queue exists
// to keep interactive latency honest for clients that can retry; sweep
// cells are background work already admitted at submission, bounded by
// their job's parallelism, and shedding one would fail the whole job —
// they wait instead. The inflight bound still applies.
func (a *Admission) AcquireBlocking(ctx context.Context) error {
	return a.acquire(ctx, &a.waitingBg, math.MaxInt64)
}

// acquire claims a slot at once if one is free. Otherwise the caller
// joins waiters and waits for one, unless that would make more than bound
// waiters (ErrShed), until a slot frees or ctx is done; the wait adds to
// waitNs.
func (a *Admission) acquire(ctx context.Context, waiters *atomic.Int64, bound int64) error {
	select {
	case a.slots <- struct{}{}:
		return nil
	default:
	}
	if waiters.Add(1) > bound {
		waiters.Add(-1)
		return ErrShed
	}
	defer waiters.Add(-1)
	begin := time.Now()
	defer func() { a.waitNs.Add(time.Since(begin).Nanoseconds()) }()
	select {
	case a.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release frees a slot claimed by a successful Acquire.
func (a *Admission) Release() { <-a.slots }

// Waiting returns the current queue depth — interactive and background
// waiters together (for stats).
func (a *Admission) Waiting() int64 { return a.waiting.Load() + a.waitingBg.Load() }

// InFlight returns the number of requests currently executing.
func (a *Admission) InFlight() int { return len(a.slots) }

// WaitNs returns the cumulative time admitted computations spent waiting
// for an execution slot.
func (a *Admission) WaitNs() int64 { return a.waitNs.Load() }

// Saturated reports whether a new interactive Acquire would shed right
// now: every execution slot busy and the interactive queue at its bound.
// GET /readyz answers 503 while this holds, so a load balancer can drain
// the node before clients see 429s.
func (a *Admission) Saturated() bool {
	return len(a.slots) == cap(a.slots) && a.waiting.Load() >= a.maxWait
}
