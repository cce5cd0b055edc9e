package dist

import (
	"fmt"
	"math"

	"stochsched/internal/linalg"
	"stochsched/internal/rng"
)

// PhaseType is a continuous phase-type law: the time to absorption of a
// finite-state CTMC started from Alpha with transient sub-generator T.
// Phase-type laws are dense in all laws on [0, ∞), so they connect the
// exponential-only simulators to the general-distribution formulas
// (experiment E27). Construct with NewPhaseType, ErlangPH, or HyperExpPH.
type PhaseType struct {
	Alpha []float64   // initial distribution over transient phases
	T     [][]float64 // sub-generator: T[i][i] < 0, T[i][j] ≥ 0, row sums ≤ 0

	mean, second float64     // moments, precomputed at construction
	jumps        [][]float64 // per phase: weights of the n transient targets, then absorption
}

// NewPhaseType validates the representation and precomputes moments
//
//	E[X] = α·(−T)⁻¹·1,   E[X²] = 2·α·(−T)⁻²·1,
//
// by factorizing −T once and solving with it twice.
func NewPhaseType(alpha []float64, t [][]float64) (PhaseType, error) {
	n := len(alpha)
	if n == 0 || len(t) != n {
		return PhaseType{}, fmt.Errorf("dist: NewPhaseType needs matching nonempty alpha/T, got %d/%d", n, len(t))
	}
	sum := 0.0
	for i, a := range alpha {
		if a < 0 || math.IsNaN(a) {
			return PhaseType{}, fmt.Errorf("dist: NewPhaseType negative or NaN alpha[%d]", i)
		}
		sum += a
		if len(t[i]) != n {
			return PhaseType{}, fmt.Errorf("dist: NewPhaseType row %d has %d entries, want %d", i, len(t[i]), n)
		}
		if t[i][i] >= 0 {
			return PhaseType{}, fmt.Errorf("dist: NewPhaseType diagonal T[%d][%d] must be negative", i, i)
		}
		row := 0.0
		for j, v := range t[i] {
			if j != i && v < 0 {
				return PhaseType{}, fmt.Errorf("dist: NewPhaseType off-diagonal T[%d][%d] negative", i, j)
			}
			row += v
		}
		if row > 1e-9 {
			return PhaseType{}, fmt.Errorf("dist: NewPhaseType row %d sums to %v > 0", i, row)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		return PhaseType{}, fmt.Errorf("dist: NewPhaseType alpha sums to %v, want 1", sum)
	}
	d := PhaseType{Alpha: append([]float64(nil), alpha...), T: make([][]float64, n), jumps: make([][]float64, n)}
	negT := linalg.NewMatrix(n, n)
	ones := make([]float64, n)
	weights := make([]float64, n*(n+1))
	for i := range t {
		d.T[i] = append([]float64(nil), t[i]...)
		for j, v := range t[i] {
			negT.Set(i, j, -v)
		}
		ones[i] = 1
		d.jumps[i] = jumpWeights(d.T, i, weights[i*(n+1):(i+1)*(n+1)])
	}
	lu, err := linalg.Factorize(negT)
	if err != nil {
		return PhaseType{}, fmt.Errorf("dist: singular phase-type generator: %w", err)
	}
	x := lu.Solve(ones) // x = (−T)⁻¹·1
	y := lu.Solve(x)    // y = (−T)⁻²·1
	for i, a := range d.Alpha {
		d.mean += a * x[i]
		d.second += 2 * a * y[i]
	}
	return d, nil
}

// Mean implements Distribution.
func (d PhaseType) Mean() float64 { return d.mean }

// Var implements Distribution.
func (d PhaseType) Var() float64 { return d.second - d.mean*d.mean }

// jumpWeights writes into w the weights of a jump out of phase i: the n
// transient targets, itself at 0, then absorption, the exit rate less the
// other targets' rates, taken off in target order and clamped at 0.
func jumpWeights(t [][]float64, i int, w []float64) []float64 {
	n := len(t)
	absorb := -t[i][i]
	for j := 0; j < n; j++ {
		if j == i {
			w[j] = 0
			continue
		}
		w[j] = t[i][j]
		absorb -= w[j]
	}
	if absorb < 0 {
		absorb = 0
	}
	w[n] = absorb
	return w
}

// Sample implements Distribution by simulating the CTMC to absorption. The
// jump weights of each phase are built once, by NewPhaseType.
func (d PhaseType) Sample(s *rng.Stream) float64 {
	n := len(d.Alpha)
	phase := s.Categorical(d.Alpha)
	total := 0.0
	for {
		total += s.Exp(-d.T[phase][phase])
		next := s.Categorical(d.jumps[phase])
		if next == n {
			return total
		}
		phase = next
	}
}

func (d PhaseType) String() string { return fmt.Sprintf("PH(%d phases)", len(d.Alpha)) }

// ErlangPH returns the Erlang-k law with the given per-phase rate in
// phase-type representation: k sequential phases.
func ErlangPH(k int, rate float64) (PhaseType, error) {
	if k < 1 || rate <= 0 {
		return PhaseType{}, fmt.Errorf("dist: ErlangPH needs k >= 1 and rate > 0, got k=%d rate=%v", k, rate)
	}
	alpha := make([]float64, k)
	alpha[0] = 1
	t := make([][]float64, k)
	for i := range t {
		t[i] = make([]float64, k)
		t[i][i] = -rate
		if i+1 < k {
			t[i][i+1] = rate
		}
	}
	return NewPhaseType(alpha, t)
}

// HyperExpPH returns the hyperexponential mixture of the given branches in
// phase-type representation: parallel phases entered according to ps.
func HyperExpPH(ps, rates []float64) (PhaseType, error) {
	if len(ps) == 0 || len(ps) != len(rates) {
		return PhaseType{}, fmt.Errorf("dist: HyperExpPH needs matching nonempty ps/rates, got %d/%d",
			len(ps), len(rates))
	}
	n := len(ps)
	t := make([][]float64, n)
	for i := range t {
		if rates[i] <= 0 {
			return PhaseType{}, fmt.Errorf("dist: HyperExpPH branch %d has nonpositive rate %v", i, rates[i])
		}
		t[i] = make([]float64, n)
		t[i][i] = -rates[i]
	}
	return NewPhaseType(ps, t)
}
