package dist

import (
	"math"
	"strings"
	"testing"

	"stochsched/internal/rng"
)

// checkMoments draws samples and compares the empirical mean/variance with
// the law's exact moments within a generous Monte Carlo tolerance.
func checkMoments(t *testing.T, name string, d Distribution, seed uint64) {
	t.Helper()
	s := rng.New(seed)
	const n = 200000
	sum, sum2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := d.Sample(s)
		if x < 0 {
			t.Fatalf("%s: negative sample %v", name, x)
		}
		sum += x
		sum2 += x * x
	}
	mean := sum / n
	varr := sum2/n - mean*mean
	wantM, wantV := d.Mean(), d.Var()
	scaleM := math.Max(1, math.Abs(wantM))
	if math.Abs(mean-wantM) > 0.02*scaleM {
		t.Errorf("%s: empirical mean %v, exact %v", name, mean, wantM)
	}
	// Variance tolerance is loose: heavy-tailed laws (Weibull k < 1) have
	// large fourth moments, so the empirical variance converges slowly.
	scaleV := math.Max(1, wantV)
	if math.Abs(varr-wantV) > 0.1*scaleV {
		t.Errorf("%s: empirical var %v, exact %v", name, varr, wantV)
	}
}

func TestMomentsMatchSampling(t *testing.T) {
	disc, err := NewDiscrete([]float64{1, 5, 20}, []float64{0.5, 0.3, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	he, err := NewHyperExp([]float64{0.9, 0.1}, []float64{3, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	eph, err := ErlangPH(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	hph, err := HyperExpPH([]float64{0.9, 0.1}, []float64{3, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		d    Distribution
	}{
		{"exponential", Exponential{Rate: 1.7}},
		{"deterministic", Deterministic{Value: 2.5}},
		{"uniform", Uniform{Lo: 0.5, Hi: 3}},
		{"erlang", Erlang{K: 3, Rate: 6}},
		{"weibull-dhr", Weibull{K: 0.5, Lambda: 1.2}},
		{"weibull-ihr", Weibull{K: 2.5, Lambda: 1.2}},
		{"twopoint", TwoPoint{A: 1, B: 20, PA: 0.8}},
		{"discrete", disc},
		{"hyperexp", he},
		{"erlang-ph", eph},
		{"hyperexp-ph", hph},
	}
	for i, c := range cases {
		checkMoments(t, c.name, c.d, uint64(1000+i))
	}
}

// The phase-type representations must carry exactly the moments of the
// closed-form laws they encode — that is what lets E27 validate the
// two-moment queueing formulas with PH services.
func TestPhaseTypeMomentsExact(t *testing.T) {
	eph, err := ErlangPH(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	er := Erlang{K: 3, Rate: 6}
	if math.Abs(eph.Mean()-er.Mean()) > 1e-12 || math.Abs(eph.Var()-er.Var()) > 1e-12 {
		t.Errorf("ErlangPH moments (%v, %v) != Erlang (%v, %v)", eph.Mean(), eph.Var(), er.Mean(), er.Var())
	}
	hph, err := HyperExpPH([]float64{0.9, 0.1}, []float64{3, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	he, err := NewHyperExp([]float64{0.9, 0.1}, []float64{3, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(hph.Mean()-he.Mean()) > 1e-12 || math.Abs(hph.Var()-he.Var()) > 1e-12 {
		t.Errorf("HyperExpPH moments (%v, %v) != HyperExp (%v, %v)", hph.Mean(), hph.Var(), he.Mean(), he.Var())
	}
	if SCV(hph) < 1 {
		t.Errorf("hyperexponential SCV %v < 1", SCV(hph))
	}
	if SCV(eph) > 1 {
		t.Errorf("Erlang SCV %v > 1", SCV(eph))
	}
}

// The moments' bits are pinned. −T is bidiagonal for ErlangPH and
// diagonal for HyperExpPH, so the LU runs no elimination step and E27's
// moments cannot move; the general law pins a full factorization's
// rounding.
func TestPhaseTypeMomentBits(t *testing.T) {
	eph, err := ErlangPH(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	hph, err := HyperExpPH([]float64{0.9, 0.1}, []float64{3, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	gph, err := NewPhaseType([]float64{0.5, 0.3, 0.2}, [][]float64{{-2, 1, 0.5}, {0.5, -3, 1.5}, {0, 1, -4}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name           string
		d              PhaseType
		mean, variance uint64
	}{
		{"ErlangPH(3, 6)", eph, 0x3fe0000000000000, 0x3fb5555555555554},
		{"HyperExpPH", hph, 0x3fe6666666666666, 0x400747ae147ae149},
		{"general 3-phase", gph, 0x3fe8dfea27983c13, 0x3fe18c6f3e64602b},
	} {
		if got := math.Float64bits(tc.d.Mean()); got != tc.mean {
			t.Errorf("%s mean bits %#x, want %#x", tc.name, got, tc.mean)
		}
		if got := math.Float64bits(tc.d.Var()); got != tc.variance {
			t.Errorf("%s variance bits %#x, want %#x", tc.name, got, tc.variance)
		}
	}
}

func TestMonotoneHazardRegimes(t *testing.T) {
	cases := []struct {
		d    Distribution
		want string
	}{
		{Weibull{K: 0.5, Lambda: 1}, "DHR"},
		{Weibull{K: 0.75, Lambda: 1}, "DHR"},
		{Weibull{K: 1, Lambda: 1}, "constant"},
		{Weibull{K: 1.5, Lambda: 1}, "IHR"},
		{Weibull{K: 2.5, Lambda: 1}, "IHR"},
		{Exponential{Rate: 2}, "constant"},
		{Uniform{Lo: 0, Hi: 1}, "IHR"},
	}
	for _, c := range cases {
		if got := MonotoneHazard(c.d, 10, 0.01); got != c.want {
			t.Errorf("MonotoneHazard(%v) = %q, want %q", c.d, got, c.want)
		}
	}
	type opaque struct{ Distribution }
	if got := MonotoneHazard(opaque{Exponential{Rate: 1}}, 10, 0.01); got != "unknown" {
		t.Errorf("law without CDF classified as %q, want unknown", got)
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := NewDiscrete([]float64{1}, []float64{0.5}); err == nil {
		t.Error("NewDiscrete accepted probabilities summing to 0.5")
	}
	if _, err := NewDiscrete([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("NewDiscrete accepted mismatched lengths")
	}
	if _, err := NewHyperExp([]float64{1}, []float64{-2}); err == nil {
		t.Error("NewHyperExp accepted negative rate")
	}
	if _, err := ErlangPH(0, 1); err == nil {
		t.Error("ErlangPH accepted k = 0")
	}
	if _, err := NewPhaseType([]float64{1}, [][]float64{{1}}); err == nil {
		t.Error("NewPhaseType accepted positive diagonal")
	}
	if _, err := NewPhaseType([]float64{0.5}, [][]float64{{-1}}); err == nil {
		t.Error("NewPhaseType accepted alpha not summing to 1")
	}
	// Two phases that pass work back and forth and never absorb: −T is
	// singular.
	if _, err := NewPhaseType([]float64{1, 0}, [][]float64{{-1, 1}, {1, -1}}); err == nil ||
		!strings.Contains(err.Error(), "singular phase-type generator") {
		t.Errorf("NewPhaseType with a singular generator: error %v", err)
	}
}

func TestCDFBasics(t *testing.T) {
	laws := []cdfer{
		Exponential{Rate: 2},
		Uniform{Lo: 1, Hi: 3},
		Erlang{K: 3, Rate: 2},
		Weibull{K: 1.5, Lambda: 2},
		TwoPoint{A: 1, B: 4, PA: 0.3},
		Deterministic{Value: 2},
	}
	for _, c := range laws {
		if got := c.CDF(-1); got != 0 {
			t.Errorf("%v: CDF(-1) = %v, want 0", c, got)
		}
		if got := c.CDF(1e9); math.Abs(got-1) > 1e-9 {
			t.Errorf("%v: CDF(1e9) = %v, want 1", c, got)
		}
		prev := 0.0
		for x := 0.0; x <= 10; x += 0.25 {
			f := c.CDF(x)
			if f < prev-1e-12 {
				t.Errorf("%v: CDF decreasing at %v", c, x)
			}
			prev = f
		}
	}
}

// The alias table must encode exactly the law it was built from: summing
// each bucket's stay mass and the alias mass redirected into every index
// must reproduce the input probabilities up to float rounding.
func TestAliasTableExactMass(t *testing.T) {
	cases := [][]float64{
		{1},
		{0.5, 0.5},
		{0.8, 0.2},
		{0.5, 0.3, 0.2},
		{0.05, 0.05, 0.4, 0.25, 0.25},
		{0, 0.25, 0, 0.75},
	}
	for _, probs := range cases {
		vals := make([]float64, len(probs))
		for i := range vals {
			vals[i] = float64(i)
		}
		d, err := NewDiscrete(vals, probs)
		if err != nil {
			t.Fatal(err)
		}
		n := len(probs)
		induced := make([]float64, n)
		for i := 0; i < n; i++ {
			induced[i] += d.stay[i] / float64(n)
			if d.stay[i] < 1 {
				induced[int(d.alias[i])] += (1 - d.stay[i]) / float64(n)
			}
		}
		for i, p := range probs {
			if math.Abs(induced[i]-p) > 1e-12 {
				t.Fatalf("probs %v: alias table gives P(%d)=%v, want %v", probs, i, induced[i], p)
			}
		}
	}
}

// The alias fast path and the linear CDF walk must consume the same
// randomness (exactly one Float64 per sample) and draw from the same law.
// Consumption is pinned by comparing the parent stream's state after
// sampling; the law by comparing empirical frequencies on a shared stream.
func TestDiscreteAliasVsLinearEquivalence(t *testing.T) {
	values := []float64{1, 5, 20, 7}
	probs := []float64{0.5, 0.3, 0.15, 0.05}
	aliased, err := NewDiscrete(values, probs)
	if err != nil {
		t.Fatal(err)
	}
	// A literal-built copy has no table and samples via the linear walk.
	linear := Discrete{Values: values, Probs: probs}

	// RNG consumption: both paths must advance an identical stream
	// identically, so downstream draws cannot shift when a law gains a
	// table.
	sa, sl := rng.New(99), rng.New(99)
	for i := 0; i < 1000; i++ {
		aliased.Sample(sa)
		linear.Sample(sl)
		if got, want := sa.Uint64(), sl.Uint64(); got != want {
			t.Fatalf("sample %d: stream state diverged after alias sample (%d != %d)", i, got, want)
		}
	}

	// Distributional equivalence: frequencies from both paths agree with
	// each other and with the law within Monte Carlo tolerance.
	count := func(d Discrete, seed uint64) map[float64]float64 {
		s := rng.New(seed)
		const n = 200000
		freq := map[float64]float64{}
		for i := 0; i < n; i++ {
			freq[d.Sample(s)] += 1.0 / n
		}
		return freq
	}
	fa, fl := count(aliased, 7), count(linear, 11)
	for i, v := range values {
		if math.Abs(fa[v]-probs[i]) > 0.01 {
			t.Errorf("alias path: P(%v) = %v, want %v", v, fa[v], probs[i])
		}
		if math.Abs(fl[v]-probs[i]) > 0.01 {
			t.Errorf("linear path: P(%v) = %v, want %v", v, fl[v], probs[i])
		}
	}
}
