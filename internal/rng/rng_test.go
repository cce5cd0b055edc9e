package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different seeds produced %d identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			t.Fatalf("split streams coincide at draw %d", i)
		}
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := New(99).Split()
	b := New(99).Split()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 100000; i++ {
		u := s.Float64()
		if u < 0 || u >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", u)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(4)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestUint64nBounds(t *testing.T) {
	s := New(5)
	err := quick.Check(func(nRaw uint64) bool {
		n := nRaw%1000 + 1
		v := s.Uint64n(n)
		return v < n
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestUint64nUniform(t *testing.T) {
	s := New(6)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Uint64n(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d deviates from %v", i, c, want)
		}
	}
}

func TestExpMean(t *testing.T) {
	s := New(8)
	const rate, n = 2.0, 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Exp(rate)
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.01 {
		t.Fatalf("exp mean = %v, want %v", mean, 1/rate)
	}
}

func TestNormMoments(t *testing.T) {
	s := New(9)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := s.Norm()
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	varr := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(varr-1) > 0.03 {
		t.Fatalf("normal var = %v, want ~1", varr)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(14)
	err := quick.Check(func(nRaw uint8) bool {
		n := int(nRaw%20) + 1
		p := s.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestCategorical(t *testing.T) {
	s := New(15)
	w := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[s.Categorical(w)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight category drawn %d times", counts[1])
	}
	frac0 := float64(counts[0]) / n
	if math.Abs(frac0-0.25) > 0.01 {
		t.Fatalf("category 0 frequency = %v, want 0.25", frac0)
	}
}

func TestBernoulliFrequency(t *testing.T) {
	s := New(16)
	const p, n = 0.3, 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bernoulli(p) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-p) > 0.01 {
		t.Fatalf("bernoulli frequency = %v, want %v", frac, p)
	}
}

func TestPanics(t *testing.T) {
	s := New(17)
	cases := []struct {
		name string
		f    func()
	}{
		{"Uint64n zero", func() { s.Uint64n(0) }},
		{"Intn zero", func() { s.Intn(0) }},
		{"Exp nonpositive", func() { s.Exp(0) }},
		{"Categorical all zero", func() { s.Categorical([]float64{0, 0}) }},
		{"Categorical negative", func() { s.Categorical([]float64{1, -1}) }},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", c.name)
				}
			}()
			c.f()
		}()
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = s.Uint64()
	}
	_ = sink
}

func BenchmarkExp(b *testing.B) {
	s := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = s.Exp(1)
	}
	_ = sink
}

// SplitInto must be draw-for-draw identical to repeated Split: the i-th
// substream it fills, and the parent's state afterward, may not depend on
// whether substreams were split one at a time or in a block.
func TestSplitIntoMatchesSplit(t *testing.T) {
	for _, n := range []int{1, 3, 17, 64} {
		a := New(42)
		b := New(42)
		block := make([]Stream, n)
		a.SplitInto(block)
		for i := 0; i < n; i++ {
			one := b.Split()
			for k := 0; k < 8; k++ {
				if got, want := block[i].Uint64(), one.Uint64(); got != want {
					t.Fatalf("n=%d substream %d draw %d: SplitInto %d != Split %d", n, i, k, got, want)
				}
			}
		}
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("n=%d: parent state diverged after block split: %d != %d", n, got, want)
		}
	}
}
