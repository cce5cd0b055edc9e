package engine

import (
	"context"
	"math"
	"slices"
	"testing"

	"stochsched/internal/rng"
	"stochsched/internal/stats"
)

// noisyMean is a scalar replication with known mean 1 and moderate noise:
// mean 1, sd ~0.29.
func noisyMean(s *rng.Stream) (float64, error) {
	return 0.5 + s.Float64(), nil
}

// adaptive runs sim in adaptive rounds until pr is met (or its budget
// spent), composing AdaptiveRounds and ReplicateReduce the way
// scenario.replicate does: each round folds further replications into one
// accumulator, continuing src's substream sequence.
func adaptive(ctx context.Context, p *Pool, pr Precision, src *rng.Stream, sim func(s *rng.Stream) (float64, error)) (*stats.Running, int, error) {
	var r stats.Running
	used, err := AdaptiveRounds(ctx, pr,
		func(ctx context.Context, n int) error { return ReplicateReduce(ctx, p, n, src, sim, r.Add) },
		func() bool { return pr.Met(&r) })
	return &r, used, err
}

// TestAdaptiveMatchesFixedBitwise: an adaptive run that stops at N must be
// byte-identical to a fixed run of N replications — same mean, same m2,
// same every digit — because rounds continue the substream sequence and
// the fold.
func TestAdaptiveMatchesFixedBitwise(t *testing.T) {
	ctx := context.Background()
	pr := Precision{TargetRelCI: 0.01, MaxReplications: 100000}
	r, used, err := adaptive(ctx, NewPool(4), pr, rng.New(5), noisyMean)
	if err != nil {
		t.Fatal(err)
	}
	if used <= 0 || used > pr.MaxReplications {
		t.Fatalf("used = %d outside (0, %d]", used, pr.MaxReplications)
	}
	var fixed stats.Running
	if err := ReplicateReduce(ctx, NewPool(4), used, rng.New(5), noisyMean, fixed.Add); err != nil {
		t.Fatal(err)
	}
	if r.Mean() != fixed.Mean() || r.Var() != fixed.Var() || r.N() != fixed.N() {
		t.Fatalf("adaptive(%d) != fixed(%d): mean %v vs %v, var %v vs %v",
			used, used, r.Mean(), fixed.Mean(), r.Var(), fixed.Var())
	}
}

// TestAdaptiveParallelismInvariant: the replication count used and every
// digit of the estimate must match across pool widths.
func TestAdaptiveParallelismInvariant(t *testing.T) {
	ctx := context.Background()
	pr := Precision{TargetRelCI: 0.005, MaxReplications: 200000}
	r1, used1, err := adaptive(ctx, NewPool(1), pr, rng.New(17), noisyMean)
	if err != nil {
		t.Fatal(err)
	}
	r8, used8, err := adaptive(ctx, NewPool(8), pr, rng.New(17), noisyMean)
	if err != nil {
		t.Fatal(err)
	}
	if used1 != used8 {
		t.Fatalf("used: %d at parallel=1 vs %d at parallel=8", used1, used8)
	}
	if r1.Mean() != r8.Mean() || r1.Var() != r8.Var() {
		t.Fatalf("estimates differ across parallelism: %v/%v vs %v/%v",
			r1.Mean(), r1.Var(), r8.Mean(), r8.Var())
	}
}

// TestAdaptiveSchedule pins the geometric round schedule: with a rule that
// never triggers, the cumulative total visits 32, 64, 128, … and stops at
// the ceiling.
func TestAdaptiveSchedule(t *testing.T) {
	var sizes []int
	used, err := AdaptiveRounds(context.Background(),
		Precision{TargetRelCI: 1e-12, MaxReplications: 300},
		func(_ context.Context, n int) error {
			sizes = append(sizes, n)
			return nil
		},
		func() bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if used != 300 {
		t.Fatalf("used = %d, want the 300 ceiling", used)
	}
	if want := []int{32, 32, 64, 128, 44}; !slices.Equal(sizes, want) {
		t.Fatalf("round sizes %v, want %v", sizes, want)
	}
}

// TestAdaptiveStopsEarlyOnEasySpec: a deterministic observable must stop
// at the first round, far below the ceiling.
func TestAdaptiveStopsEarlyOnEasySpec(t *testing.T) {
	_, used, err := adaptive(context.Background(), nil,
		Precision{TargetRelCI: 0.01, MaxReplications: 100000}, rng.New(1),
		func(*rng.Stream) (float64, error) { return 3.5, nil })
	if err != nil {
		t.Fatal(err)
	}
	if used != DefaultFirstRound {
		t.Fatalf("used = %d, want the first round %d", used, DefaultFirstRound)
	}
}

// TestSequentialCICoverage measures the coverage of the sequential rule's
// final interval over a grid of fixed seeds: the nominal level is 95%, and
// sequential stopping is allowed to under-cover by a few points (optional
// stopping bias), but not collapse. The observable is uniform with true
// mean 1, so coverage counts |mean−1| ≤ z·SE at the stopping time.
func TestSequentialCICoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("coverage grid is slow")
	}
	ctx := context.Background()
	pr := Precision{TargetRelCI: 0.02, MaxReplications: 100000}
	const seeds = 400
	covered := 0
	for seed := uint64(0); seed < seeds; seed++ {
		r, _, err := adaptive(ctx, nil, pr, rng.New(seed), noisyMean)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r.Mean()-1) <= pr.Z()*r.SE() {
			covered++
		}
	}
	cov := float64(covered) / seeds
	// ~5% under-coverage tolerance on top of the nominal 5% miss rate.
	if cov < 0.90 {
		t.Fatalf("sequential CI coverage %.3f below 0.90 (%d/%d)", cov, covered, seeds)
	}
}

// TestPrecisionMetZeroMean: a mean-zero noisy observable has no relative
// target to reach; Met must hold only when the SE is zero as well.
func TestPrecisionMetZeroMean(t *testing.T) {
	pr := Precision{TargetRelCI: 0.01, MaxReplications: 100}
	var r stats.Running
	r.Add(1)
	r.Add(-1)
	if pr.Met(&r) {
		t.Fatal("Met on a noisy mean-zero accumulator")
	}
	var d stats.Running
	d.Add(0)
	d.Add(0)
	if !pr.Met(&d) {
		t.Fatal("not Met on a deterministic zero accumulator")
	}
}

// TestPrecisionValidate rejects the malformed corners.
func TestPrecisionValidate(t *testing.T) {
	bad := []Precision{
		{TargetRelCI: 0, MaxReplications: 10},
		{TargetRelCI: -1, MaxReplications: 10},
		{TargetRelCI: math.Inf(1), MaxReplications: 10},
		{TargetRelCI: 0.01, MaxReplications: 0},
		{TargetRelCI: 0.01, MaxReplications: 10, Confidence: 1},
		{TargetRelCI: 0.01, MaxReplications: 10, Confidence: -0.5},
	}
	for i, pr := range bad {
		if err := pr.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, pr)
		}
	}
	if err := (Precision{TargetRelCI: 0.01, MaxReplications: 10}).Validate(); err != nil {
		t.Errorf("Validate rejected a well-formed rule: %v", err)
	}
}
