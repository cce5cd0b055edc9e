package markov

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"stochsched/internal/linalg"
	"stochsched/internal/lp"
	"stochsched/internal/rng"
)

// The solvers' linear systems and LP as they were built before they shared
// discountedSystem and OccupationLP: the bit-for-bit references the tests
// below hold the shared builders to.

// refDiscountedSystem builds I − βP through temporaries, the way
// linalg.Identity(n).Sub(p.Scale(beta)) did: the product p·β is rounded
// and stored before the subtraction reads it.
func refDiscountedSystem(p *linalg.Matrix, beta float64) *linalg.Matrix {
	n := p.Rows
	id := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		id.Set(i, i, 1)
	}
	scaled := p.Clone()
	for i := range scaled.Data {
		scaled.Data[i] *= beta
	}
	out := id.Clone()
	for i := range out.Data {
		out.Data[i] -= scaled.Data[i]
	}
	return out
}

func refDiscountedValue(c *Chain, r []float64, beta float64) ([]float64, error) {
	n := c.N()
	if len(r) != n {
		return nil, fmt.Errorf("markov: reward vector length %d, want %d", len(r), n)
	}
	if !(beta > 0 && beta < 1) {
		return nil, fmt.Errorf("markov: discount beta = %v outside (0,1)", beta)
	}
	v, err := linalg.Solve(refDiscountedSystem(c.P, beta), r)
	if err != nil {
		return nil, fmt.Errorf("markov: discounted solve failed: %w", err)
	}
	return v, nil
}

func refPolicyIteration(transitions []*linalg.Matrix, rewards [][]float64, beta float64, maxIter int) ([]float64, []int, error) {
	n := transitions[0].Rows
	policy := make([]int, n)
	qs := make([]float64, len(transitions))
	for iter := 0; iter < maxIter; iter++ {
		p := linalg.NewMatrix(n, n)
		r := make([]float64, n)
		for s := 0; s < n; s++ {
			a := policy[s]
			for j := 0; j < n; j++ {
				p.Set(s, j, transitions[a].At(s, j))
			}
			r[s] = rewards[a][s]
		}
		v, err := linalg.Solve(refDiscountedSystem(p, beta), r)
		if err != nil {
			return nil, nil, fmt.Errorf("markov: policy evaluation: %w", err)
		}
		changed := false
		for s := 0; s < n; s++ {
			for a := range transitions {
				q := rewards[a][s]
				row := transitions[a].Data[s*n : (s+1)*n]
				for j, pj := range row {
					if pj != 0 {
						q += beta * pj * v[j]
					}
				}
				qs[a] = q
			}
			bestA := policy[s]
			for a, q := range qs {
				if best := qs[bestA]; q > best+1e-12*(1+math.Abs(q)+math.Abs(best)) {
					bestA = a
				}
			}
			if bestA != policy[s] {
				policy[s] = bestA
				changed = true
			}
		}
		if !changed {
			return v, policy, nil
		}
	}
	return nil, nil, fmt.Errorf("markov: policy iteration did not converge in %d iterations", maxIter)
}

func refAverageRewardLP(m *MDP) (float64, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	n, na := m.N(), m.A()
	nv := n * na
	c := make([]float64, nv)
	for s := 0; s < n; s++ {
		for a := 0; a < na; a++ {
			c[s*na+a] = m.Rewards[a][s]
		}
	}
	var rows [][]float64
	var rels []lp.Rel
	var b []float64
	for j := 0; j < n; j++ {
		row := make([]float64, nv)
		for a := 0; a < na; a++ {
			row[j*na+a] += 1
			for s := 0; s < n; s++ {
				row[s*na+a] -= m.Transitions[a].At(s, j)
			}
		}
		rows = append(rows, row)
		rels = append(rels, lp.EQ)
		b = append(b, 0)
	}
	norm := make([]float64, nv)
	for k := range norm {
		norm[k] = 1
	}
	rows = append(rows, norm)
	rels = append(rels, lp.EQ)
	b = append(b, 1)

	res, err := lp.Solve(&lp.Problem{C: c, A: rows, Rels: rels, B: b, Maximize: true})
	if err != nil {
		return 0, err
	}
	if res.Status != lp.Optimal {
		return 0, fmt.Errorf("markov: occupation-measure LP %v", res.Status)
	}
	return res.Obj, nil
}

// randomMDP draws an MDP of n states and na actions: random stochastic
// rows and rewards in [−1, 1). Some entries are zeroed and their rows
// renormalized, so the builders also see exact zeros.
func randomMDP(n, na int, s *rng.Stream) *MDP {
	m := &MDP{}
	for a := 0; a < na; a++ {
		p := RandomStochastic(n, s)
		for i := 0; i < n; i++ {
			row := p.Data[i*n : (i+1)*n]
			if k := s.Intn(n); n > 1 && s.Float64() < 0.5 {
				row[(k+1)%n] += row[k]
				row[k] = 0
			}
		}
		r := make([]float64, n)
		for i := range r {
			r[i] = 2*s.Float64() - 1
		}
		m.Transitions = append(m.Transitions, p)
		m.Rewards = append(m.Rewards, r)
	}
	return m
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

// skipUnlessAMD64 skips a test comparing id − p·β with the reference's
// stored product: Go may fuse the two into one FMA on other
// architectures, and amd64 never does.
func skipUnlessAMD64(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("p·β may be fused into the subtraction on %s", runtime.GOARCH)
	}
}

func TestDiscountedValueMatchesReference(t *testing.T) {
	skipUnlessAMD64(t)
	s := rng.New(61)
	for trial := 0; trial < 300; trial++ {
		m := randomMDP(1+s.Intn(8), 1, s)
		c, err := NewChain(m.Transitions[0])
		if err != nil {
			t.Fatal(err)
		}
		beta := 0.5 + 0.499*s.Float64()
		got, err := c.DiscountedValue(m.Rewards[0], beta)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refDiscountedValue(c, m.Rewards[0], beta)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, fmt.Sprintf("trial %d", trial), got, want)
	}
}

func TestPolicyIterationMatchesReference(t *testing.T) {
	skipUnlessAMD64(t)
	s := rng.New(62)
	for trial := 0; trial < 300; trial++ {
		m := randomMDP(1+s.Intn(8), 1+s.Intn(3), s)
		beta := 0.5 + 0.499*s.Float64()
		v, pol, err := PolicyIteration(m.Transitions, m.Rewards, beta, 1000)
		if err != nil {
			t.Fatal(err)
		}
		rv, rpol, err := refPolicyIteration(m.Transitions, m.Rewards, beta, 1000)
		if err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("trial %d", trial)
		sameBits(t, what, v, rv)
		if fmt.Sprint(pol) != fmt.Sprint(rpol) {
			t.Fatalf("%s: policy %v, want %v", what, pol, rpol)
		}
	}
}

func TestAverageRewardLPMatchesReference(t *testing.T) {
	s := rng.New(63)
	for trial := 0; trial < 300; trial++ {
		m := randomMDP(1+s.Intn(6), 1+s.Intn(3), s)
		got, err := m.AverageRewardLP()
		if err != nil {
			t.Fatal(err)
		}
		want, err := refAverageRewardLP(m)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, fmt.Sprintf("trial %d", trial), []float64{got}, []float64{want})
	}
}
