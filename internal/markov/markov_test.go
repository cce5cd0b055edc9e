package markov

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"stochsched/internal/linalg"
	"stochsched/internal/rng"
)

func twoState(p, q float64) *Chain {
	m := linalg.FromRows([][]float64{
		{1 - p, p},
		{q, 1 - q},
	})
	c, err := NewChain(m)
	if err != nil {
		panic(err)
	}
	return c
}

// stationary returns the stationary distribution π with π P = π, Σπ = 1,
// computed by solving the linear system (replacing one balance equation with
// the normalization). averageGainOfPolicy weighs a policy's rewards by it.
// The chain must be irreducible for the result to be the unique stationary
// law; reducible chains yield an error from the singular solve or a
// distribution over one closed class.
func stationary(c *Chain) ([]float64, error) {
	n := c.N()
	// Build (Pᵀ - I) with last row replaced by ones; rhs = e_n.
	a := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, c.P.At(j, i))
		}
		a.Set(i, i, a.At(i, i)-1)
	}
	for j := 0; j < n; j++ {
		a.Set(n-1, j, 1)
	}
	b := make([]float64, n)
	b[n-1] = 1
	pi, err := linalg.Solve(a, b)
	if err != nil {
		return nil, fmt.Errorf("markov: stationary solve failed: %w", err)
	}
	for i, v := range pi {
		if v < -1e-9 {
			return nil, fmt.Errorf("markov: stationary solution has negative mass π[%d] = %v (chain reducible?)", i, v)
		}
		if v < 0 {
			pi[i] = 0
		}
	}
	return pi, nil
}

func TestNewChainValidation(t *testing.T) {
	if _, err := NewChain(linalg.FromRows([][]float64{{0.5, 0.4}, {0.5, 0.5}})); err == nil {
		t.Error("non-stochastic row accepted")
	}
	if _, err := NewChain(linalg.FromRows([][]float64{{1.5, -0.5}, {0.5, 0.5}})); err == nil {
		t.Error("negative entry accepted")
	}
	if _, err := NewChain(linalg.NewMatrix(2, 3)); err == nil {
		t.Error("non-square accepted")
	}
}

func TestStationaryTwoState(t *testing.T) {
	// π = (q, p)/(p+q)
	c := twoState(0.3, 0.1)
	pi, err := stationary(c)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pi[0]-0.25) > 1e-10 || math.Abs(pi[1]-0.75) > 1e-10 {
		t.Fatalf("π = %v, want [0.25 0.75]", pi)
	}
}

func TestStationaryIsFixedPoint(t *testing.T) {
	s := rng.New(8)
	err := quick.Check(func(seed uint64) bool {
		// Random irreducible 4-state chain: strictly positive rows.
		st := s.Split()
		_ = seed
		n := 4
		m := linalg.NewMatrix(n, n)
		for i := 0; i < n; i++ {
			sum := 0.0
			row := make([]float64, n)
			for j := 0; j < n; j++ {
				row[j] = st.Float64Open()
				sum += row[j]
			}
			for j := 0; j < n; j++ {
				m.Set(i, j, row[j]/sum)
			}
		}
		c, err := NewChain(m)
		if err != nil {
			return false
		}
		pi, err := stationary(c)
		if err != nil {
			return false
		}
		// Check πP = π and Σπ = 1.
		total := 0.0
		for _, v := range pi {
			total += v
		}
		if math.Abs(total-1) > 1e-9 {
			return false
		}
		for j := 0; j < n; j++ {
			s := 0.0
			for i := 0; i < n; i++ {
				s += pi[i] * m.At(i, j)
			}
			if math.Abs(s-pi[j]) > 1e-9 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDiscountedValueConstantReward(t *testing.T) {
	// With r ≡ 1, v = 1/(1-β) from every state.
	c := twoState(0.4, 0.2)
	beta := 0.9
	v, err := c.DiscountedValue([]float64{1, 1}, beta)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / (1 - beta)
	for i, vi := range v {
		if math.Abs(vi-want) > 1e-9 {
			t.Fatalf("v[%d] = %v, want %v", i, vi, want)
		}
	}
}

func TestDiscountedValueBellman(t *testing.T) {
	c := twoState(0.35, 0.15)
	r := []float64{2, -1}
	beta := 0.87
	v, err := c.DiscountedValue(r, beta)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		rhs := r[i]
		for j := 0; j < 2; j++ {
			rhs += beta * c.P.At(i, j) * v[j]
		}
		if math.Abs(v[i]-rhs) > 1e-10 {
			t.Fatalf("Bellman residual at %d: %v vs %v", i, v[i], rhs)
		}
	}
}

func TestDiscountedValidation(t *testing.T) {
	c := twoState(0.3, 0.3)
	if _, err := c.DiscountedValue([]float64{1}, 0.9); err == nil {
		t.Error("wrong reward length accepted")
	}
	if _, err := c.DiscountedValue([]float64{1, 1}, 1.0); err == nil {
		t.Error("beta = 1 accepted")
	}
}

func TestValueIterationMatchesPolicyEvaluation(t *testing.T) {
	// Two actions on a 2-state chain; action 1 strictly dominates.
	p0 := linalg.FromRows([][]float64{{0.9, 0.1}, {0.1, 0.9}})
	p1 := linalg.FromRows([][]float64{{0.5, 0.5}, {0.5, 0.5}})
	r0 := []float64{0, 0}
	r1 := []float64{1, 1}
	v, pol, err := ValueIteration([]*linalg.Matrix{p0, p1}, [][]float64{r0, r1}, nil, 0.9, 1e-10, 10000)
	if err != nil {
		t.Fatal(err)
	}
	for s, a := range pol {
		if a != 1 {
			t.Fatalf("policy[%d] = %d, want 1", s, a)
		}
	}
	want := 1 / (1 - 0.9)
	for i, vi := range v {
		if math.Abs(vi-want) > 1e-6 {
			t.Fatalf("v[%d] = %v, want %v", i, vi, want)
		}
	}
}

func TestValueIterationAvailability(t *testing.T) {
	// State 0 may only use action 0 (reward 0); state 1 only action 1 (reward 1).
	p := linalg.FromRows([][]float64{{1, 0}, {0, 1}})
	avail := [][]bool{{true, false}, {false, true}}
	v, pol, err := ValueIteration([]*linalg.Matrix{p, p}, [][]float64{{0, 0}, {1, 1}}, avail, 0.5, 1e-10, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if pol[0] != 0 || pol[1] != 1 {
		t.Fatalf("policy = %v", pol)
	}
	if math.Abs(v[0]) > 1e-9 || math.Abs(v[1]-2) > 1e-6 {
		t.Fatalf("v = %v, want [0 2]", v)
	}
}
