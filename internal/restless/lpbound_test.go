package restless

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"stochsched/internal/linalg"
	"stochsched/internal/lp"
	"stochsched/internal/rng"
)

// The relaxation LP, its perturbation and RandomProject as they were
// written before they shared markov.OccupationLP and
// markov.RandomStochastic: the bit-for-bit references the tests below hold
// them to.

func refPerturb(p *Project, eps float64) *Project {
	n := p.N()
	out := &Project{}
	for a := 0; a < 2; a++ {
		m := p.P[a].Clone()
		for k := range m.Data {
			m.Data[k] *= 1 - eps
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m.Set(i, j, m.At(i, j)+eps/float64(n))
			}
		}
		out.P[a] = m
		out.R[a] = append([]float64(nil), p.R[a]...)
	}
	return out
}

func refSolveRelaxationLP(p *Project, alpha float64) (*RelaxationSolution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if alpha < 0 || alpha > 1 {
		return nil, fmt.Errorf("restless: activation fraction %v outside [0,1]", alpha)
	}
	n := p.N()
	nv := 2 * n
	c := make([]float64, nv)
	for i := 0; i < n; i++ {
		c[2*i] = p.R[Passive][i]
		c[2*i+1] = p.R[Active][i]
	}
	var a [][]float64
	var rels []lp.Rel
	var b []float64
	for j := 0; j < n; j++ {
		row := make([]float64, nv)
		row[2*j] += 1
		row[2*j+1] += 1
		for i := 0; i < n; i++ {
			row[2*i] -= p.P[Passive].At(i, j)
			row[2*i+1] -= p.P[Active].At(i, j)
		}
		a = append(a, row)
		rels = append(rels, lp.EQ)
		b = append(b, 0)
	}
	norm := make([]float64, nv)
	for k := range norm {
		norm[k] = 1
	}
	a = append(a, norm)
	rels = append(rels, lp.EQ)
	b = append(b, 1)
	act := make([]float64, nv)
	for i := 0; i < n; i++ {
		act[2*i+1] = 1
	}
	a = append(a, act)
	rels = append(rels, lp.EQ)
	b = append(b, alpha)

	res, err := lp.Solve(&lp.Problem{C: c, A: a, Rels: rels, B: b, Maximize: true})
	if err != nil {
		return nil, err
	}
	if res.Status != lp.Optimal {
		return nil, fmt.Errorf("restless: relaxation LP %v", res.Status)
	}
	sol := &RelaxationSolution{ValuePerProject: res.Obj}
	sol.X = make([][2]float64, n)
	for i := 0; i < n; i++ {
		sol.X[i][Passive] = res.X[2*i]
		sol.X[i][Active] = res.X[2*i+1]
	}
	sol.PDIndex = make([]float64, n)
	for i := 0; i < n; i++ {
		rbarA := c[2*i+1]
		rbarP := c[2*i]
		for r := range a {
			rbarA -= res.Duals[r] * a[r][2*i+1]
			rbarP -= res.Duals[r] * a[r][2*i]
		}
		sol.PDIndex[i] = rbarA - rbarP
	}
	return sol, nil
}

func refRandomProject(n int, s *rng.Stream) *Project {
	mk := func() *linalg.Matrix {
		m := linalg.NewMatrix(n, n)
		for i := 0; i < n; i++ {
			sum := 0.0
			row := make([]float64, n)
			for j := range row {
				row[j] = s.Float64Open()
				sum += row[j]
			}
			for j := range row {
				m.Set(i, j, row[j]/sum)
			}
		}
		return m
	}
	r0 := make([]float64, n)
	r1 := make([]float64, n)
	for i := 0; i < n; i++ {
		r0[i] = 0.5 * s.Float64()
		r1[i] = s.Float64()
	}
	return &Project{P: [2]*linalg.Matrix{mk(), mk()}, R: [2][]float64{r0, r1}}
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

func sameProject(t *testing.T, what string, got, want *Project) {
	t.Helper()
	for a := 0; a < 2; a++ {
		sameBits(t, fmt.Sprintf("%s P[%d]", what, a), got.P[a].Data, want.P[a].Data)
		sameBits(t, fmt.Sprintf("%s R[%d]", what, a), got.R[a], want.R[a])
	}
}

// TestRelaxationLPMatchesReference holds the relaxation LP built on
// markov.OccupationLP, and the one-pass perturbation, to the reference bit
// for bit: value, occupation measure and primal–dual index of 400 random
// projects of 2–6 states at five activation fractions, on the exact and
// the perturbed dynamics.
func TestRelaxationLPMatchesReference(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Go may fuse perturb's p·(1−ε) + ε/n into one FMA there; the
		// reference rounds the product first.
		t.Skipf("perturbation may be fused on %s", runtime.GOARCH)
	}
	s := rng.New(930)
	for trial := 0; trial < 400; trial++ {
		p := RandomProject(2+s.Intn(5), s.Split())
		pert, refPert := perturb(p, 1e-3), refPerturb(p, 1e-3)
		sameProject(t, fmt.Sprintf("trial %d perturb", trial), pert, refPert)
		for _, alpha := range []float64{0, 0.2, 0.5, 0.9, 1} {
			for _, dyn := range []struct {
				name     string
				got, ref *Project
			}{{"exact", p, p}, {"perturbed", pert, refPert}} {
				what := fmt.Sprintf("trial %d α=%v %s", trial, alpha, dyn.name)
				got, err := solveRelaxationLP(dyn.got, alpha)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				want, err := refSolveRelaxationLP(dyn.ref, alpha)
				if err != nil {
					t.Fatalf("%s: reference: %v", what, err)
				}
				sameBits(t, what+" value", []float64{got.ValuePerProject}, []float64{want.ValuePerProject})
				for i := range want.X {
					sameBits(t, fmt.Sprintf("%s X[%d]", what, i), got.X[i][:], want.X[i][:])
				}
				sameBits(t, what+" PDIndex", got.PDIndex, want.PDIndex)
			}
		}
	}
}

// TestRandomProjectMatchesReference: drawn through markov.RandomStochastic,
// a random project keeps its draw order (rewards, then P₀, then P₁) and
// every bit, and leaves the stream where the reference left it.
func TestRandomProjectMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		for n := 1; n <= 6; n++ {
			s, rs := rng.New(seed), rng.New(seed)
			what := fmt.Sprintf("seed %d n=%d", seed, n)
			sameProject(t, what, RandomProject(n, s), refRandomProject(n, rs))
			if s.Uint64() != rs.Uint64() {
				t.Fatalf("%s: stream diverged after the draw", what)
			}
		}
	}
}
