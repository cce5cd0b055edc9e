package rng

import (
	"math"
	"math/bits"
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
		{"Categorical NaN", func() { s.Categorical([]float64{1, math.NaN()}) }},
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

// Known answers, recorded from the limb-wise generator the package shipped
// before step, unstep and Uint64n moved to bits.Mul64. Every simulation
// golden depends on these bits; a change here moves all of them.

func TestKnownUint64Sequences(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		want [8]uint64
	}{
		{0, [8]uint64{0xcd268da3c17fff7e, 0xaad533cdc8d35b81, 0xc3e2b9887d90edc7, 0x19c1b62fff1511ce, 0xd823611bc6f2dfdb, 0xde85bc8eecca7dd, 0x744bd07f346fc752, 0x9f6a34e552d5accc}},
		{1, [8]uint64{0x438396d6d43f1871, 0xb6e4506f218a86e2, 0x6eb6d49bd6a578bc, 0xef0a34f2184c2a87, 0x9d5fff7cb3e06602, 0x722a516e01872b74, 0x2a4654a9a7d55e33, 0x61dfd9f4cd54c127}},
		{1<<63 + 5, [8]uint64{0x54c7a333dba99319, 0x57cd709e1be8d167, 0xce344870ef027d45, 0xd6faa08a0711ae16, 0x7e55910678674297, 0xe127fa4e7d91eecd, 0x40abc7f1f9893813, 0x7439ee351b853c01}},
	} {
		s := New(tc.seed)
		for i, w := range tc.want {
			if got := s.Uint64(); got != w {
				t.Fatalf("New(%d) draw %d = %#x, want %#x", tc.seed, i, got, w)
			}
		}
	}
}

func TestKnownDerivedDraws(t *testing.T) {
	s := New(7)
	for _, tc := range []struct {
		name string
		got  float64
		want uint64
	}{
		{"Float64", s.Float64(), 0x3fead3aa4e5339f1},
		{"Exp(1.5)", s.Exp(1.5), 0x3fee8182a000d129},
	} {
		if got := math.Float64bits(tc.got); got != tc.want {
			t.Errorf("%s bits = %#x, want %#x", tc.name, got, tc.want)
		}
	}

	s = New(11)
	wantCat := []int{0, 3, 2, 2, 2, 2, 2, 2, 2, 0, 3, 2, 2, 2, 3, 0}
	for i, w := range wantCat {
		if got := s.Categorical([]float64{0.2, 0, 1.3, 0.5}); got != w {
			t.Fatalf("Categorical draw %d = %d, want %d", i, got, w)
		}
	}

	s = New(13)
	for i, w := range []uint64{386889920, 21849889, 249132144, 119199448, 919965099, 881409139} {
		if got := s.Uint64n(1_000_000_007); got != w {
			t.Fatalf("Uint64n draw %d = %d, want %d", i, got, w)
		}
	}
	if got := s.Uint64n(1<<63 + 1); got != 0x4d10aa854797679d {
		t.Fatalf("Uint64n(2⁶³+1) = %#x, want 0x4d10aa854797679d", got)
	}
}

func TestKnownSplits(t *testing.T) {
	p := New(5)
	p.Split()
	p.Split()
	c := p.Split()
	for i, w := range []uint64{0x821e73e39adad7b, 0x35ad61ec4be66c47, 0x8c03236e3e007ed0, 0x7d2b742f04f74f99} {
		if got := c.Uint64(); got != w {
			t.Fatalf("third Split child draw %d = %#x, want %#x", i, got, w)
		}
	}

	a := New(9)
	a.Antithetic()
	pair := make([]Stream, 2)
	a.SplitInto(pair)
	for _, tc := range []struct {
		name      string
		got, want uint64
	}{
		{"even twin Uint64", pair[0].Uint64(), 0x8d3fa04cd5711194},
		{"even twin Float64 bits", math.Float64bits(pair[0].Float64()), 0x3fc44a50f98fcf5c},
		{"odd twin Uint64", pair[1].Uint64(), 0x8d3fa04cd5711194},
		{"odd twin Float64 bits", math.Float64bits(pair[1].Float64()), 0x3feaed6bc19c0c29},
	} {
		if tc.got != tc.want {
			t.Errorf("Antithetic SplitInto %s = %#x, want %#x", tc.name, tc.got, tc.want)
		}
	}
}

func TestUnstepUndoesStep(t *testing.T) {
	for _, seed := range []uint64{0, 1, 1<<63 + 5, math.MaxUint64} {
		s := New(seed)
		s.Uint64()
		before := *s
		for i := 0; i < 5; i++ {
			s.step()
		}
		for i := 0; i < 5; i++ {
			s.unstep()
		}
		if *s != before {
			t.Fatalf("seed %d: five unsteps after five steps left %+v, want %+v", seed, *s, before)
		}
	}
}

// mul128 is the four-limb 64×64→128 product the generator used before
// bits.Mul64, kept as the reference bits.Mul64 must agree with.
func mul128(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	c := t >> 32
	t = aHi*bLo + c
	mid := t & mask
	c = t >> 32
	t = aLo*bHi + mid
	lo |= (t & mask) << 32
	hi = aHi*bHi + c + (t >> 32)
	return hi, lo
}

func TestMul64MatchesLimbProduct(t *testing.T) {
	edges := []uint64{0, 1, 1<<32 - 1, 1 << 32, math.MaxUint64, mulLo, mulHi, invLo, invHi}
	check := func(a, b uint64) {
		wh, wl := mul128(a, b)
		if gh, gl := bits.Mul64(a, b); gh != wh || gl != wl {
			t.Fatalf("Mul64(%#x, %#x) = (%#x, %#x), limbs give (%#x, %#x)", a, b, gh, gl, wh, wl)
		}
	}
	for _, a := range edges {
		for _, b := range edges {
			check(a, b)
		}
	}
	s := New(2024)
	for i := 0; i < 1_000_000; i++ {
		check(s.Uint64(), s.Uint64())
	}
}
