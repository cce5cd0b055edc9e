package stats

import (
	"math"
	"testing"
	"testing/quick"

	"stochsched/internal/rng"
)

func TestRunningKnown(t *testing.T) {
	var r Running
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if r.N() != 8 {
		t.Fatalf("n = %d", r.N())
	}
	if math.Abs(r.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %v, want 5", r.Mean())
	}
	// Sample variance (n-1): Σ(x-5)² = 32 → 32/7.
	if math.Abs(r.Var()-32.0/7) > 1e-12 {
		t.Fatalf("var = %v, want %v", r.Var(), 32.0/7)
	}
}

func TestRunningMatchesBatch(t *testing.T) {
	s := rng.New(44)
	err := quick.Check(func(nRaw uint8) bool {
		n := int(nRaw%50) + 2
		xs := make([]float64, n)
		var r Running
		for i := range xs {
			xs[i] = 3*(2*s.Float64()-1) + 1
			r.Add(xs[i])
		}
		mean := 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(n)
		varr := 0.0
		for _, x := range xs {
			varr += (x - mean) * (x - mean)
		}
		varr /= float64(n - 1)
		return math.Abs(r.Mean()-mean) < 1e-9 && math.Abs(r.Var()-varr) < 1e-9
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCI95Coverage(t *testing.T) {
	// The CI over replications of a known-mean process should cover the
	// truth about 95% of the time.
	norm := normals(rng.New(46))
	covered := 0
	const trials = 400
	for trial := 0; trial < trials; trial++ {
		var r Running
		for i := 0; i < 50; i++ {
			r.Add(norm())
		}
		if math.Abs(r.Mean()) <= r.CI95() {
			covered++
		}
	}
	frac := float64(covered) / trials
	if frac < 0.90 || frac > 0.99 {
		t.Fatalf("CI coverage = %v, want ≈0.95", frac)
	}
}

// normals returns a source of standard normal variates drawn from s by the
// Marsaglia polar method, each pair's second variate served by the next
// call.
func normals(s *rng.Stream) func() float64 {
	twin, haveTwin := 0.0, false
	return func() float64 {
		if haveTwin {
			haveTwin = false
			return twin
		}
		for {
			u := 2*s.Float64() - 1
			v := 2*s.Float64() - 1
			q := u*u + v*v
			if q == 0 || q >= 1 {
				continue
			}
			f := math.Sqrt(-2 * math.Log(q) / q)
			twin, haveTwin = v*f, true
			return u * f
		}
	}
}

func TestTimeWeighted(t *testing.T) {
	var tw TimeWeighted
	tw.Observe(0, 0) // value 0 on [0,1)
	tw.Observe(1, 2) // value 2 on [1,3)
	tw.Observe(3, 1) // value 1 on [3,4]
	got := tw.Average(4)
	want := (0*1 + 2*2 + 1*1) / 4.0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("time average = %v, want %v", got, want)
	}
}

func TestTimeWeightedMonotonicPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on decreasing time")
		}
	}()
	var tw TimeWeighted
	tw.Observe(1, 1)
	tw.Observe(0, 2)
}

func TestRelGap(t *testing.T) {
	if RelGap(11, 10) != 0.1 {
		t.Fatal("RelGap wrong")
	}
	if RelGap(9, -10) != 1.9 {
		t.Fatalf("RelGap sign handling wrong: %v", RelGap(9, -10))
	}
	if RelGap(5, 0) != 0 {
		t.Fatal("RelGap zero reference")
	}
}

// TestZScore pins the inverse-normal critical values against reference
// figures (Abramowitz–Stegun tables, 4+ decimals).
func TestZScore(t *testing.T) {
	cases := []struct{ conf, want float64 }{
		{0.80, 1.2815515655},
		{0.90, 1.6448536270},
		{0.95, 1.9599639845},
		{0.99, 2.5758293035},
		{0.999, 3.2905267315},
	}
	for _, c := range cases {
		if got := ZScore(c.conf); math.Abs(got-c.want) > 1e-8 {
			t.Errorf("ZScore(%v) = %.10f, want %.10f", c.conf, got, c.want)
		}
	}
	for _, bad := range []float64{0, 1, -0.5, 1.5} {
		func() {
			defer func() { recover() }()
			ZScore(bad)
			t.Errorf("ZScore(%v) did not panic", bad)
		}()
	}
}
