package engine

// Target-precision replication: instead of a fixed budget, the caller
// names a relative CI half-width and a hard ceiling, and the engine runs
// batched replication rounds until the estimate is tight enough or the
// budget is spent. The determinism contract survives because every
// scheduling decision is made at round boundaries from parallelism-
// invariant state: the round sizes are a fixed geometric schedule, the
// stopping statistic is a replication-order fold, and the substreams of
// round k+1 continue the source stream exactly where round k left it —
// so an adaptive run that stops at N replications is byte-identical to a
// fixed run of N, and identical at every parallelism level.

import (
	"context"
	"fmt"
	"math"

	"stochsched/internal/stats"
)

// DefaultFirstRound is the first-round replication count: large enough
// for the variance estimate driving the stopping rule to be meaningful,
// small enough that easy specs stop almost immediately.
const DefaultFirstRound = 32

// Precision is a sequential stopping rule: run replications until the
// confidence interval for the mean is within TargetRelCI of the mean
// (relative half-width — 0.01 means ±1%), giving up at MaxReplications.
type Precision struct {
	// TargetRelCI is the target CI half-width as a fraction of |mean|.
	TargetRelCI float64
	// Confidence selects the critical value of the stopping CI (0 selects
	// 0.95). Only the stopping decision uses it: reported ci95 fields stay
	// 95% intervals whatever the knob, so response bytes for a given
	// replication count never depend on it.
	Confidence float64
	// MaxReplications is the hard work-budget ceiling.
	MaxReplications int
}

// Validate reports whether the rule is well-formed.
func (pr Precision) Validate() error {
	if !(pr.TargetRelCI > 0) || math.IsInf(pr.TargetRelCI, 0) {
		return fmt.Errorf("engine: precision target %v must be positive and finite", pr.TargetRelCI)
	}
	if pr.Confidence != 0 && !(pr.Confidence > 0 && pr.Confidence < 1) {
		return fmt.Errorf("engine: precision confidence %v outside (0, 1)", pr.Confidence)
	}
	if pr.MaxReplications < 1 {
		return fmt.Errorf("engine: precision max_replications %d must be at least 1", pr.MaxReplications)
	}
	return nil
}

// Z returns the critical value of the stopping CI.
func (pr Precision) Z() float64 {
	c := pr.Confidence
	if c == 0 {
		c = 0.95
	}
	return stats.ZScore(c)
}

// Met reports whether the accumulated estimate satisfies the rule:
// z·SE ≤ TargetRelCI·|mean|. A zero mean is only met by a zero SE (a
// deterministic observable stops at the first round; a noisy mean-zero
// one runs to the budget — there is no relative precision to reach).
func (pr Precision) Met(r *stats.Running) bool {
	if r.N() < 2 {
		return false
	}
	return pr.Z()*r.SE() <= pr.TargetRelCI*math.Abs(r.Mean())
}

// AdaptiveRounds drives the deterministic round schedule: round sizes
// grow the cumulative total geometrically (first DefaultFirstRound, then
// doubling, capped at MaxReplications), round(n) executes the next n
// replications, continuing where the previous round stopped, and met() is
// consulted only at round boundaries — so whether the run stops after N
// replications is a function of the fold over those N replications alone,
// never of scheduling. Returns the total replication count executed.
func AdaptiveRounds(ctx context.Context, pr Precision, round func(ctx context.Context, n int) error, met func() bool) (int, error) {
	if err := pr.Validate(); err != nil {
		return 0, err
	}
	done := 0
	target := min(DefaultFirstRound, pr.MaxReplications)
	for {
		if err := round(ctx, target-done); err != nil {
			return done, err
		}
		done = target
		if done >= pr.MaxReplications || met() {
			return done, nil
		}
		target = min(2*done, pr.MaxReplications)
	}
}
