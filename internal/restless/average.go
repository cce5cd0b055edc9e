package restless

// Average-criterion Whittle indices — the formulation of Whittle's original
// paper (1988). The subsidy problem becomes a two-action average-reward
// MDP, solved on the discounted criterion's workspace at β = 1 (see
// subsidyMDP.solve); the activation advantage is read from the bias, and
// the index is again the critical subsidy.

// WhittleIndexAverage computes the time-average Whittle index of every
// state by bisection on the activation advantage, as WhittleIndex does
// under the discounted criterion. It validates the project once and solves
// every subsidy exactly by policy iteration on one workspace, each solve
// starting from the last one's policy. Every policy it evaluates must be
// unichain: a multichain one makes the evaluation singular, and the call
// returns that error.
func WhittleIndexAverage(p *Project) ([]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	w := workspace(p, 1)
	_, span := SubsidyBracket(p, 0) // the reward span, maxR − minR + 1
	span *= 2
	idx := make([]float64, p.N())
	for i := range idx {
		// Unlike the discounted case, the average index is not bounded by
		// the reward span (many passive periods can amortize one activation),
		// so the bracket grows geometrically until it straddles the root.
		b, err := w.widen(i, span, false)
		if err != nil {
			return nil, err
		}
		a, err := w.widen(i, -span, true)
		if err != nil {
			return nil, err
		}
		if idx[i], err = w.bisect(i, a, b, 1e-8, 60); err != nil {
			return nil, err
		}
	}
	return idx, nil
}

// widen doubles the subsidy x, at most 40 times, until state i is active
// there (active) or passive there (!active), and returns it.
func (w *subsidyMDP) widen(i int, x float64, active bool) (float64, error) {
	for iter := 0; iter < 40; iter++ {
		adv, err := w.solve(x)
		if err != nil {
			return 0, err
		}
		if (adv[i] > 0) == active {
			break
		}
		x *= 2
	}
	return x, nil
}
