package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"stochsched/internal/dist"
	"stochsched/internal/rng"
	"stochsched/internal/stats"
)

// simWork is a stand-in replication: consume a few variates, return a
// nonlinear function of them so accumulation-order differences would show.
func simWork(_ context.Context, _ int, s *rng.Stream) (float64, error) {
	total := 0.0
	for k := 0; k < 50; k++ {
		total += math.Log1p(s.Exp(1.3)) * s.Float64()
	}
	return total, nil
}

func runningBits(r *stats.Running) [2]uint64 {
	return [2]uint64{math.Float64bits(r.Mean()), math.Float64bits(r.Var())}
}

func TestReplicateDeterministicAcrossParallelism(t *testing.T) {
	const reps = 500
	var want [2]uint64
	for i, par := range []int{1, 2, 8} {
		r, err := Replicate(context.Background(), NewPool(par), reps, rng.New(42), simWork)
		if err != nil {
			t.Fatalf("parallel %d: %v", par, err)
		}
		if r.N() != reps {
			t.Fatalf("parallel %d: N = %d, want %d", par, r.N(), reps)
		}
		got := runningBits(r)
		if i == 0 {
			want = got
		} else if got != want {
			t.Errorf("parallel %d: aggregate bits %v differ from sequential %v", par, got, want)
		}
	}
}

// TestReplicateDiscreteAliasAcrossParallelism pushes the alias-table
// sampling fast path (dist.NewDiscrete) and the linear-CDF fallback
// (literal dist.Discrete) through the chunked scratch-reuse dispatch and
// requires bit-identical aggregates at parallel 1 vs 8 for each path. The
// two paths draw the same law but map a given uniform to different atoms,
// so identity is asserted per path, never across them.
func TestReplicateDiscreteAliasAcrossParallelism(t *testing.T) {
	values := []float64{0.5, 1, 2, 4, 8, 16, 32}
	probs := []float64{0.05, 0.1, 0.2, 0.3, 0.2, 0.1, 0.05}
	aliased, err := dist.NewDiscrete(values, probs)
	if err != nil {
		t.Fatal(err)
	}
	linear := dist.Discrete{Values: values, Probs: probs} // no alias table
	for name, law := range map[string]dist.Discrete{"alias": aliased, "linear": linear} {
		work := func(_ context.Context, _ int, s *rng.Stream) (float64, error) {
			total := 0.0
			for k := 0; k < 40; k++ {
				total += math.Log1p(law.Sample(s)) * s.Float64()
			}
			return total, nil
		}
		var want [2]uint64
		for i, par := range []int{1, 8} {
			r, err := Replicate(context.Background(), NewPool(par), 400, rng.New(99), work)
			if err != nil {
				t.Fatalf("%s parallel %d: %v", name, par, err)
			}
			got := runningBits(r)
			if i == 0 {
				want = got
			} else if got != want {
				t.Errorf("%s: parallel %d aggregate bits %v differ from sequential %v", name, par, got, want)
			}
		}
	}
}

func TestReplicateMatchesNilPool(t *testing.T) {
	a, err := Replicate(context.Background(), nil, 200, rng.New(7), simWork)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Replicate(context.Background(), NewPool(0), 200, rng.New(7), simWork)
	if err != nil {
		t.Fatal(err)
	}
	if runningBits(a) != runningBits(b) {
		t.Errorf("nil pool and GOMAXPROCS pool disagree: %v vs %v", runningBits(a), runningBits(b))
	}
}

// TestReplicateReduceMatchesReplicate: both replication loops hand
// replication i the i-th substream and fold in replication order, so a
// Running folded by ReplicateReduce has Replicate's bits at every width.
func TestReplicateReduceMatchesReplicate(t *testing.T) {
	want, err := Replicate(context.Background(), nil, 300, rng.New(11), simWork)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2, 8} {
		var r stats.Running
		if err := ReplicateReduce(context.Background(), NewPool(par), 300, rng.New(11), func(s *rng.Stream) (float64, error) {
			return simWork(context.Background(), 0, s)
		}, r.Add); err != nil {
			t.Fatal(err)
		}
		if r.N() != want.N() || runningBits(&r) != runningBits(want) {
			t.Errorf("parallel %d: ReplicateReduce bits %v (n %d), Replicate %v (n %d)", par, runningBits(&r), r.N(), runningBits(want), want.N())
		}
	}
}

func TestMapOrderAndValues(t *testing.T) {
	out, err := Map(context.Background(), NewPool(4), 64, func(_ context.Context, i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestReduceStrictOrder(t *testing.T) {
	var seen []int
	err := Reduce(context.Background(), NewPool(8), 100,
		func(_ context.Context, i int) (int, error) { return i, nil },
		func(i int, v int) error {
			if i != v {
				return fmt.Errorf("index %d carried value %d", i, v)
			}
			seen = append(seen, i)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range seen {
		if i != v {
			t.Fatalf("reduce order violated at position %d: got index %d", i, v)
		}
	}
	if len(seen) != 100 {
		t.Fatalf("reduced %d items, want 100", len(seen))
	}
}

func TestReduceErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	err := Reduce(context.Background(), NewPool(4), 200,
		func(_ context.Context, i int) (int, error) {
			if i == 17 {
				return 0, boom
			}
			return i, nil
		},
		func(int, int) error { return nil })
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want %v", err, boom)
	}
}

func TestReduceErrorStopsReduce(t *testing.T) {
	boom := errors.New("boom")
	last := -1
	err := Reduce(context.Background(), nil, 50,
		func(_ context.Context, i int) (int, error) { return i, nil },
		func(i int, _ int) error {
			if i == 10 {
				return boom
			}
			last = i
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want %v", err, boom)
	}
	if last != 9 {
		t.Fatalf("reduce continued past the failing index: last = %d", last)
	}
}

func TestCancellationMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1)
	done := make(chan error, 1)
	go func() {
		_, err := Replicate(ctx, NewPool(4), 1000, rng.New(1),
			func(ctx context.Context, rep int, s *rng.Stream) (float64, error) {
				select {
				case started <- struct{}{}:
				default:
				}
				select {
				case <-ctx.Done():
					return 0, ctx.Err()
				case <-time.After(5 * time.Millisecond):
					return s.Float64(), nil
				}
			})
		done <- err
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Replicate did not return after cancellation")
	}
}

func TestTimeout(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := Replicate(ctx, NewPool(2), 100000, rng.New(1),
		func(ctx context.Context, rep int, s *rng.Stream) (float64, error) {
			time.Sleep(time.Millisecond)
			return s.Float64(), nil
		})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
}

func TestNestedPoolSharedAcrossLevels(t *testing.T) {
	// One pool drives an outer fan-out whose tasks each run an inner
	// replication loop on the same pool. Saturated slots fall back to
	// inline execution, so this must complete and stay deterministic.
	p := NewPool(4)
	run := func() [6][2]uint64 {
		outer, err := Map(context.Background(), p, 6, func(ctx context.Context, i int) (*stats.Running, error) {
			return Replicate(ctx, p, 100, rng.New(uint64(i)+1), simWork)
		})
		if err != nil {
			t.Fatal(err)
		}
		var bits [6][2]uint64
		for i, r := range outer {
			bits[i] = runningBits(r)
		}
		return bits
	}
	if a, b := run(), run(); a != b {
		t.Errorf("nested runs disagree: %v vs %v", a, b)
	}
}

func TestPoolSize(t *testing.T) {
	if got := (*Pool)(nil).Size(); got != 1 {
		t.Errorf("nil pool size = %d, want 1", got)
	}
	if got := NewPool(7).Size(); got != 7 {
		t.Errorf("pool size = %d, want 7", got)
	}
	if NewPool(0).Size() < 1 {
		t.Error("default pool size must be >= 1")
	}
}

func TestReduceZeroItems(t *testing.T) {
	if err := Reduce(context.Background(), nil, 0, func(context.Context, int) (int, error) { return 0, nil },
		func(int, int) error { t.Fatal("reduce called"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestReduceProgress(t *testing.T) {
	const n = 50
	var seen []int
	err := ReduceProgress(context.Background(), NewPool(8), n,
		func(_ context.Context, i int) (int, error) { return i, nil },
		func(int, int) error { return nil },
		func(done, total int) {
			if total != n {
				t.Errorf("total = %d, want %d", total, n)
			}
			seen = append(seen, done)
		})
	if err != nil {
		t.Fatal(err)
	}
	// The callback runs on the collector goroutine: done counts ascend 1..n
	// regardless of task completion order.
	if len(seen) != n {
		t.Fatalf("progress called %d times, want %d", len(seen), n)
	}
	for i, d := range seen {
		if d != i+1 {
			t.Fatalf("progress sequence %v not 1..%d", seen[:i+1], n)
		}
	}
}

// TestPoolLimitIdentity: limits at or above the parent's capacity (and on
// the nil pool) are the parent itself, not a new layer of slots.
func TestPoolLimitIdentity(t *testing.T) {
	parent := NewPool(2)
	if parent.Limit(0) != parent || parent.Limit(2) != parent || parent.Limit(5) != parent {
		t.Fatal("Limit at or above capacity must return the parent itself")
	}
	var nilPool *Pool
	if nilPool.Limit(1) != nil {
		t.Fatal("nil pool Limit must stay nil")
	}
}

// TestPoolLimitAcquireDrawsParentSlot pins the slot accounting: a capped
// view's acquire consumes a parent slot, starving siblings; release
// returns it.
func TestPoolLimitAcquireDrawsParentSlot(t *testing.T) {
	parent := NewPool(3) // two worker slots
	a := parent.Limit(2) // one worker slot of its own
	b := parent.Limit(2)
	if a.Size() != 2 || b.Size() != 2 {
		t.Fatalf("sizes %d/%d", a.Size(), b.Size())
	}
	if !a.tryAcquire() {
		t.Fatal("first acquire on a failed")
	}
	if a.tryAcquire() {
		t.Fatal("a exceeded its own cap of one extra worker")
	}
	if !b.tryAcquire() {
		t.Fatal("b should win the parent's second slot")
	}
	// Both parent slots are now held through the views: nothing else can
	// acquire, directly or via another view.
	if parent.tryAcquire() {
		t.Fatal("parent slot acquired beyond capacity")
	}
	if c := parent.Limit(2); c.tryAcquire() {
		t.Fatal("third view acquired beyond parent capacity")
	}
	a.release()
	if !parent.tryAcquire() {
		t.Fatal("released slot did not return to the parent")
	}
	parent.release()
	b.release()
}

// TestPoolLimitDeterminism: limiting never changes results, only
// throughput — the engine contract extended to capped views.
func TestPoolLimitDeterminism(t *testing.T) {
	run := func(p *Pool) []float64 {
		out, err := Map(context.Background(), p, 64, func(_ context.Context, i int) (float64, error) {
			s := rng.New(uint64(i))
			return s.Float64(), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	parent := NewPool(8)
	a, b := run(parent), run(parent.Limit(3))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("index %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}
