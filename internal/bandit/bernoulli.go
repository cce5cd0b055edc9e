package bandit

import "fmt"

// Beta–Bernoulli Gittins indices, the workhorse of the sequential
// clinical-trial application that motivated Gittins–Jones (1974). An arm in
// state (a, b) — a successes and b failures observed, Beta(a, b) posterior —
// succeeds with posterior mean a/(a+b). The Gittins index ν(a, b) is the
// unique retirement reward rate λ making the decision maker indifferent
// between the arm and a standard arm paying λ forever.

// BernoulliIndex computes the Gittins index of posterior state (a, b) with
// discount beta by calibration: bisection on λ over the value of the
// optimal-stopping problem, evaluated by finite-depth dynamic programming on
// the (successes, failures) lattice. depth is the DP truncation (total
// further pulls considered); 150+ gives ~1e-4 accuracy at beta ≤ 0.95.
func BernoulliIndex(a, b int, beta float64, depth int) (float64, error) {
	if a < 1 || b < 1 {
		return 0, fmt.Errorf("bandit: BernoulliIndex needs a, b >= 1, got (%d,%d)", a, b)
	}
	if !(beta > 0 && beta < 1) {
		return 0, fmt.Errorf("bandit: discount %v outside (0,1)", beta)
	}
	if depth < 1 {
		return 0, fmt.Errorf("bandit: depth must be >= 1")
	}
	mean := float64(a) / float64(a+b)
	lo, hi := mean, 1.0 // the index always dominates the myopic mean
	for iter := 0; iter < 60 && hi-lo > 1e-10; iter++ {
		lambda := (lo + hi) / 2
		if bernoulliPrefersArm(a, b, beta, lambda, depth) {
			lo = lambda
		} else {
			hi = lambda
		}
	}
	return (lo + hi) / 2, nil
}

// bernoulliPrefersArm reports whether pulling the arm at least once is
// strictly better than retiring on the standard arm λ, using a depth-limited
// DP over posterior states reachable from (a, b).
func bernoulliPrefersArm(a, b int, beta, lambda float64, depth int) bool {
	// v[k][i]: value with k further pulls allowed, i successes added so far
	// out of (depth-k) total pulls... We index layer by number of pulls
	// made: layer t has t+1 states (i successes, t-i failures).
	retire := lambda / (1 - beta)
	// Terminal layer: retire (conservative truncation keeps the bisection
	// monotone: truncation only underestimates the arm).
	prev := make([]float64, depth+1)
	for i := range prev {
		prev[i] = retire
	}
	for t := depth - 1; t >= 0; t-- {
		cur := make([]float64, t+1)
		for i := 0; i <= t; i++ {
			sa := a + i
			sb := b + (t - i)
			p := float64(sa) / float64(sa+sb)
			pull := p*(1+beta*prev[i+1]) + (1-p)*beta*prev[i]
			if pull > retire {
				cur[i] = pull
			} else {
				cur[i] = retire
			}
		}
		prev = cur
	}
	// Prefer the arm iff continuing beats retiring at the root by more than
	// numerical slack.
	return prev[0] > retire+1e-13
}

// BernoulliMean returns the posterior mean a/(a+b), the myopic (greedy)
// index for comparison.
func BernoulliMean(a, b int) float64 {
	return float64(a) / float64(a+b)
}
