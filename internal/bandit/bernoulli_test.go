package bandit

import (
	"math"
	"testing"
)

func TestBernoulliIndexExceedsMean(t *testing.T) {
	// Exploration value: γ(a,b) > a/(a+b) strictly for β > 0.
	for _, c := range []struct{ a, b int }{{1, 1}, {1, 3}, {2, 2}, {5, 1}} {
		g, err := BernoulliIndex(c.a, c.b, 0.9, 120)
		if err != nil {
			t.Fatal(err)
		}
		mean := BernoulliMean(c.a, c.b)
		if g <= mean {
			t.Errorf("γ(%d,%d) = %v not above mean %v", c.a, c.b, g, mean)
		}
		if g >= 1 {
			t.Errorf("γ(%d,%d) = %v not below 1", c.a, c.b, g)
		}
	}
}

func TestBernoulliIndexMonotone(t *testing.T) {
	beta := 0.9
	// Increasing in a (more successes), decreasing in b (more failures).
	g21, err := BernoulliIndex(2, 1, beta, 120)
	if err != nil {
		t.Fatal(err)
	}
	g11, err := BernoulliIndex(1, 1, beta, 120)
	if err != nil {
		t.Fatal(err)
	}
	g12, err := BernoulliIndex(1, 2, beta, 120)
	if err != nil {
		t.Fatal(err)
	}
	if !(g21 > g11 && g11 > g12) {
		t.Fatalf("monotonicity violated: γ(2,1)=%v γ(1,1)=%v γ(1,2)=%v", g21, g11, g12)
	}
}

func TestBernoulliKnownValue(t *testing.T) {
	// Published value (Gittins 1989 tables): γ(1,1) ≈ 0.7029 at β = 0.9.
	g, err := BernoulliIndex(1, 1, 0.9, 400)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g-0.7029) > 0.003 {
		t.Fatalf("γ(1,1; β=0.9) = %v, want ≈0.7029", g)
	}
}

func TestBernoulliExplorationShrinksWithEvidence(t *testing.T) {
	// With mounting evidence at the same mean, the index approaches the mean.
	beta := 0.9
	small, err := BernoulliIndex(1, 1, beta, 150)
	if err != nil {
		t.Fatal(err)
	}
	large, err := BernoulliIndex(30, 30, beta, 150)
	if err != nil {
		t.Fatal(err)
	}
	if !(small-0.5 > large-0.5 && large > 0.5) {
		t.Fatalf("exploration bonus did not shrink: γ(1,1)=%v γ(30,30)=%v", small, large)
	}
}

func TestBernoulliValidation(t *testing.T) {
	if _, err := BernoulliIndex(0, 1, 0.9, 100); err == nil {
		t.Error("a=0 accepted")
	}
	if _, err := BernoulliIndex(1, 1, 1.0, 100); err == nil {
		t.Error("beta=1 accepted")
	}
	if _, err := BernoulliIndex(1, 1, 0.9, 0); err == nil {
		t.Error("depth=0 accepted")
	}
}
