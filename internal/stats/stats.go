// Package stats provides the streaming estimators used to report simulation
// results: running moments (Welford), confidence intervals over independent
// replications, and time-weighted averages for queue-length processes.
//
// Every estimator is order-sensitive in its last floating-point digits,
// which is why the engine folds observations into them in replication
// order (see docs/determinism.md): the CI half-widths reported by
// /v1/simulate responses and sweep comparison rows are Running.CI95 over
// replication streams fed in index order.
package stats

import (
	"fmt"
	"math"
)

// Running accumulates count, mean and variance of a stream of observations
// using Welford's numerically stable recurrence. The zero value is ready to
// use.
type Running struct {
	n    int64
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (r *Running) Add(x float64) {
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the number of observations.
func (r *Running) N() int64 { return r.n }

// Mean returns the sample mean (0 with no observations).
func (r *Running) Mean() float64 { return r.mean }

// Var returns the unbiased sample variance (0 with fewer than 2 points).
func (r *Running) Var() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// Std returns the sample standard deviation.
func (r *Running) Std() float64 { return math.Sqrt(r.Var()) }

// SE returns the standard error of the mean.
func (r *Running) SE() float64 {
	if r.n < 2 {
		return math.Inf(1)
	}
	return r.Std() / math.Sqrt(float64(r.n))
}

// CI95 returns the half-width of a 95% confidence interval for the mean
// using a normal critical value (replication counts here are ≥ 20, where the
// t correction is negligible for reporting purposes).
func (r *Running) CI95() float64 {
	return 1.96 * r.SE()
}

// ZScore returns the two-sided normal critical value for the given
// confidence level in (0, 1): the z with Φ(z) = (1+confidence)/2, so
// mean ± z·SE covers the true mean with the requested probability under
// the CLT. Sequential stopping rules use it to honor a confidence knob;
// the reported CI95 stays the literal 1.96 so response bytes are
// independent of how the stopping rule was configured. It panics on a
// confidence outside (0, 1).
func ZScore(confidence float64) float64 {
	if !(confidence > 0 && confidence < 1) {
		panic(fmt.Sprintf("stats: ZScore confidence %v outside (0, 1)", confidence))
	}
	return normInv((1 + confidence) / 2)
}

// normInv is the inverse standard normal CDF (Acklam's rational
// approximation, |relative error| < 1.15e-9 — far below the Monte Carlo
// noise any stopping rule operates in).
func normInv(p float64) float64 {
	const (
		a1 = -3.969683028665376e+01
		a2 = 2.209460984245205e+02
		a3 = -2.759285104469687e+02
		a4 = 1.383577518672690e+02
		a5 = -3.066479806614716e+01
		a6 = 2.506628277459239e+00

		b1 = -5.447609879822406e+01
		b2 = 1.615858368580409e+02
		b3 = -1.556989798598866e+02
		b4 = 6.680131188771972e+01
		b5 = -1.328068155288572e+01

		c1 = -7.784894002430293e-03
		c2 = -3.223964580411365e-01
		c3 = -2.400758277161838e+00
		c4 = -2.549732539343734e+00
		c5 = 4.374664141464968e+00
		c6 = 2.938163982698783e+00

		d1 = 7.784695709041462e-03
		d2 = 3.224671290700398e-01
		d3 = 2.445134137142996e+00
		d4 = 3.754408661907416e+00

		pLow = 0.02425
	)
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c1*q+c2)*q+c3)*q+c4)*q+c5)*q + c6) /
			((((d1*q+d2)*q+d3)*q+d4)*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		return (((((a1*r+a2)*r+a3)*r+a4)*r+a5)*r + a6) * q /
			(((((b1*r+b2)*r+b3)*r+b4)*r+b5)*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c1*q+c2)*q+c3)*q+c4)*q+c5)*q + c6) /
			((((d1*q+d2)*q+d3)*q+d4)*q + 1)
	}
}

// String formats mean ± CI95.
func (r *Running) String() string {
	return fmt.Sprintf("%.6g ± %.2g (n=%d)", r.Mean(), r.CI95(), r.n)
}

// ---------------------------------------------------------------------------
// Time-weighted average

// TimeWeighted integrates a piecewise-constant process (such as a queue
// length) over time, yielding the time-average value. Observations are
// (time, newValue) pairs; the process holds newValue from that time until
// the next observation.
type TimeWeighted struct {
	started  bool
	lastT    float64
	lastV    float64
	startT   float64
	integral float64
}

// Observe records that the process changed to value v at time t. Times must
// be nondecreasing.
func (tw *TimeWeighted) Observe(t, v float64) {
	if !tw.started {
		tw.started = true
		tw.startT, tw.lastT, tw.lastV = t, t, v
		return
	}
	if t < tw.lastT {
		panic("stats: TimeWeighted times must be nondecreasing")
	}
	tw.integral += tw.lastV * (t - tw.lastT)
	tw.lastT, tw.lastV = t, v
}

// Average returns the time-average over [start, t], extending the last value
// to t.
func (tw *TimeWeighted) Average(t float64) float64 {
	if !tw.started || t <= tw.startT {
		return 0
	}
	total := tw.integral + tw.lastV*(t-tw.lastT)
	return total / (t - tw.startT)
}

// ---------------------------------------------------------------------------
// Comparison helpers

// RelGap returns (value - reference) / |reference|, the signed relative
// suboptimality of value against reference; 0 when reference is 0.
func RelGap(value, reference float64) float64 {
	if reference == 0 {
		return 0
	}
	return (value - reference) / math.Abs(reference)
}
