package restless

import (
	"fmt"
	"math"

	"stochsched/internal/linalg"
)

// The subsidy formulation (Whittle 1988): give reward λ for each passive
// epoch and solve the single-project two-action MDP. A project is indexable
// if the set of states where passivity is optimal grows monotonically from ∅
// to everything as λ sweeps −∞ → +∞; the Whittle index of state i is the
// critical subsidy at which i becomes passive. Whittle's heuristic activates
// the m projects of largest current index; Weber–Weiss (1990) proved it
// asymptotically optimal under an ergodicity condition as N → ∞ with m/N
// fixed.

// subsidyMDP is the workspace on which one WhittleIndex, CheckIndexability
// or WhittleIndexAverage call solves each of its subsidies: the project,
// validated once, its discount (1 for the time-average criterion), and the
// passive/active policy the last solve ended with, from which the next
// solve starts. The evaluation system depends on the policy alone, so its
// factorization is kept until the policy changes; only r_π moves with the
// subsidy.
type subsidyMDP struct {
	p      *Project
	beta   float64
	active []bool
	sys    *linalg.Matrix // I − βP_π of the current policy π; at β = 1, column 0 is ones
	lu     *linalg.LU     // sys factorized; nil once π has changed
	r, adv []float64      // r_π, and the activation advantage under π
	gain   float64        // at β = 1, the gain of the last solve's policy
}

// maxPolicySteps caps the evaluations of one subsidy solve. A warm-started
// solve usually settles after one or two.
const maxPolicySteps = 1000

// newSubsidyMDP validates p and the discount and returns their workspace.
func newSubsidyMDP(p *Project, beta float64) (*subsidyMDP, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if !(beta > 0 && beta < 1) {
		return nil, fmt.Errorf("restless: discount %v outside (0,1)", beta)
	}
	return workspace(p, beta), nil
}

// workspace returns the workspace of the validated project p at discount
// beta, or at β = 1 for the time-average criterion, whose first solve
// starts from the all-passive policy.
func workspace(p *Project, beta float64) *subsidyMDP {
	n := p.N()
	return &subsidyMDP{p: p, beta: beta, active: make([]bool, n), sys: linalg.NewMatrix(n, n),
		r: make([]float64, n), adv: make([]float64, n)}
}

// solve solves the single-project MDP with passive subsidy lambda by
// Howard's policy iteration and returns the activation advantage
//
//	adv(i) = [R₁(i) + β P₁(i)·V] − [R₀(i) + λ + β P₀(i)·V],
//
// positive where being active is strictly optimal. Each step evaluates the
// current policy exactly on the kept factorization, refactorizing only
// after the policy changed. At a discount β < 1 it solves
// (I − βP_π)V = r_π. At β = 1, the time-average criterion, it solves
// g·1 + (I − P_π)h = r_π with h(0) = 0 for the gain g and the bias V = h:
// I − P_π with the gain's ones in h(0)'s column. That assumes every
// evaluated policy is unichain; a multichain one makes the system singular
// and the solve returns an error. A step switches a state only when its
// other action is better by more than 1e-12·(1 + |Q₁| + |Q₀|), so rounding
// ties cannot make the policy cycle. It returns once no state switches;
// the slice is the workspace's and the next solve overwrites it.
func (w *subsidyMDP) solve(lambda float64) ([]float64, error) {
	p, beta, n := w.p, w.beta, w.p.N()
	for step := 0; step < maxPolicySteps; step++ {
		for i := 0; i < n; i++ {
			a, r := Passive, p.R[Passive][i]+lambda
			if w.active[i] {
				a, r = Active, p.R[Active][i]
			}
			w.r[i] = r
			if w.lu == nil {
				sys := w.sys.Data[i*n : (i+1)*n]
				for k, pk := range p.P[a].Data[i*n : (i+1)*n] {
					sys[k] = -beta * pk
				}
				sys[i]++
				if beta == 1 {
					sys[0] = 1 // the gain's column
				}
			}
		}
		if w.lu == nil {
			lu, err := linalg.Factorize(w.sys)
			if err != nil {
				return nil, fmt.Errorf("restless: subsidy policy evaluation: %w", err)
			}
			w.lu = lu
		}
		v := w.lu.Solve(w.r)
		if beta == 1 {
			w.gain, v[0] = v[0], 0
		}
		settled := true
		for i := 0; i < n; i++ {
			qa := p.R[Active][i]
			for k, pk := range p.P[Active].Data[i*n : (i+1)*n] {
				qa += beta * pk * v[k]
			}
			qp := p.R[Passive][i] + lambda
			for k, pk := range p.P[Passive].Data[i*n : (i+1)*n] {
				qp += beta * pk * v[k]
			}
			w.adv[i] = qa - qp
			gain := w.adv[i] // what switching state i to its other action earns
			if w.active[i] {
				gain = -gain
			}
			if gain > 1e-12*(1+math.Abs(qa)+math.Abs(qp)) {
				w.active[i] = !w.active[i]
				w.lu = nil
				settled = false
			}
		}
		if settled {
			return w.adv, nil
		}
	}
	return nil, fmt.Errorf("restless: subsidy policy iteration did not settle in %d steps", maxPolicySteps)
}

// bisect returns the subsidy at which state i turns passive, bisecting
// [a, b], with i active at a and passive at b, for at most steps halvings
// or until the interval is narrower than tol·(1 + |a|).
func (w *subsidyMDP) bisect(i int, a, b, tol float64, steps int) (float64, error) {
	for iter := 0; iter < steps && b-a > tol*(1+math.Abs(a)); iter++ {
		mid := (a + b) / 2
		adv, err := w.solve(mid)
		if err != nil {
			return 0, err
		}
		if adv[i] > 0 {
			a = mid // still active: index is above mid
		} else {
			b = mid
		}
	}
	return (a + b) / 2, nil
}

// IndexabilityReport is the result of an indexability scan.
type IndexabilityReport struct {
	Indexable bool
	// Violations lists (state, λ₁, λ₂) with λ₁ < λ₂ where the state was
	// passive at λ₁ but active again at λ₂ — a non-monotone passive set.
	Violations []string
}

// CheckIndexability sweeps subsidies over [lo, hi] in `steps` increments and
// verifies the passive set grows monotonically. It validates the project
// and discount once and solves its steps+1 subsidies on one workspace, each
// solve starting from the last one's policy.
func CheckIndexability(p *Project, beta, lo, hi float64, steps int) (*IndexabilityReport, error) {
	if steps < 2 {
		return nil, fmt.Errorf("restless: need at least 2 steps")
	}
	w, err := newSubsidyMDP(p, beta)
	if err != nil {
		return nil, err
	}
	n := p.N()
	passiveSince := make([]float64, n)
	wasPassive := make([]bool, n)
	for i := range passiveSince {
		passiveSince[i] = math.NaN()
	}
	rep := &IndexabilityReport{Indexable: true}
	for k := 0; k <= steps; k++ {
		lambda := lo + (hi-lo)*float64(k)/float64(steps)
		adv, err := w.solve(lambda)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			passive := adv[i] <= 0
			if wasPassive[i] && !passive {
				rep.Indexable = false
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("state %d passive at λ=%.4g but active at λ=%.4g", i, passiveSince[i], lambda))
			}
			if passive && !wasPassive[i] {
				passiveSince[i] = lambda
			}
			wasPassive[i] = passive
		}
	}
	return rep, nil
}

// SubsidyBracket returns a subsidy range [lo, hi] guaranteed to contain
// every Whittle index of the project: the subsidy that matters never
// exceeds the extreme one-step reward differences scaled by the discounted
// horizon. WhittleIndex bisects within it; pass the same bracket to
// CheckIndexability so the sweep covers the range the indices came from.
func SubsidyBracket(p *Project, beta float64) (lo, hi float64) {
	maxR, minR := math.Inf(-1), math.Inf(1)
	for a := 0; a < 2; a++ {
		for _, r := range p.R[a] {
			maxR = math.Max(maxR, r)
			minR = math.Min(minR, r)
		}
	}
	span := (maxR - minR + 1) / (1 - beta)
	return -span, span
}

// WhittleIndex computes the Whittle index of every state by bisection on
// the activation advantage within SubsidyBracket. For an indexable project
// adv(i) is nonincreasing in λ, so the root is unique. It validates the
// project and discount once, before any bisection, and solves every
// bisection step's subsidy exactly on one workspace, each solve starting
// from the last one's policy.
func WhittleIndex(p *Project, beta float64) ([]float64, error) {
	w, err := newSubsidyMDP(p, beta)
	if err != nil {
		return nil, err
	}
	lo, hi := SubsidyBracket(p, beta)
	idx := make([]float64, p.N())
	for i := range idx {
		if idx[i], err = w.bisect(i, lo, hi, 1e-10, 80); err != nil {
			return nil, err
		}
	}
	return idx, nil
}
