package restless

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"stochsched/internal/linalg"
	"stochsched/internal/markov"
	"stochsched/internal/rng"
)

func TestAverageWhittleMonotoneOnRepair(t *testing.T) {
	p := testRepairProject(t)
	idx, err := WhittleIndexAverage(p)
	if err != nil {
		t.Fatal(err)
	}
	if !sort.Float64sAreSorted(idx) {
		t.Fatalf("average Whittle indices not monotone: %v", idx)
	}
}

// The average-criterion index ordering should match the discounted ordering
// at β close to 1 (vanishing-discount connection).
func TestAverageMatchesVanishingDiscountOrdering(t *testing.T) {
	p := testRepairProject(t)
	avg, err := WhittleIndexAverage(p)
	if err != nil {
		t.Fatal(err)
	}
	disc, err := WhittleIndex(p, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	rank := func(v []float64) []int {
		o := make([]int, len(v))
		for i := range o {
			o[i] = i
		}
		sort.SliceStable(o, func(a, b int) bool { return v[o[a]] < v[o[b]] })
		return o
	}
	ra, rd := rank(avg), rank(disc)
	for i := range ra {
		if ra[i] != rd[i] {
			t.Fatalf("orderings differ: average %v vs discounted %v (indices %v / %v)", ra, rd, avg, disc)
		}
	}
	// And the values themselves should be close (β→1 limit).
	for i := range avg {
		if math.Abs(avg[i]-disc[i]) > 0.25*(1+math.Abs(avg[i])) {
			t.Fatalf("state %d: average index %v far from discounted %v", i, avg[i], disc[i])
		}
	}
}

func TestAverageSubsidyGainMonotone(t *testing.T) {
	// The optimal gain is nondecreasing in the subsidy (more passive pay
	// can only help).
	p := testRepairProject(t)
	w := workspace(p, 1)
	prev := math.Inf(-1)
	for _, lam := range []float64{-3, -1, 0, 1, 3} {
		if _, err := w.solve(lam); err != nil {
			t.Fatal(err)
		}
		if w.gain < prev-1e-8 {
			t.Fatalf("gain decreased with subsidy: %v → %v at λ=%v", prev, w.gain, lam)
		}
		prev = w.gain
	}
}

func TestAverageDegenerateEqualActions(t *testing.T) {
	s := rng.New(901)
	base := RandomProject(3, s)
	dp := &Project{}
	dp.P[Passive] = base.P[Active].Clone()
	dp.P[Active] = base.P[Active].Clone()
	rr := append([]float64(nil), base.R[Active]...)
	dp.R[Passive] = rr
	dp.R[Active] = append([]float64(nil), rr...)
	idx, err := WhittleIndexAverage(dp)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range idx {
		if math.Abs(v) > 1e-5 {
			t.Fatalf("degenerate project state %d has average index %v, want 0", i, v)
		}
	}
}

// referenceAverageAdvantage solves the time-average subsidy problem by
// relative value iteration from zero (tolerance 1e-10, at most 500,000
// sweeps) and reads the activation advantage off the bias h:
//
//	adv(i) = [R₁(i) + P₁(i)·h] − [R₀(i) + λ + P₀(i)·h].
func referenceAverageAdvantage(p *Project, lambda float64) ([]float64, error) {
	n := p.N()
	transitions := []*linalg.Matrix{p.P[Passive], p.P[Active]}
	rewards := [][]float64{make([]float64, n), make([]float64, n)}
	for i := 0; i < n; i++ {
		rewards[0][i] = p.R[Passive][i] + lambda
		rewards[1][i] = p.R[Active][i]
	}
	_, h, _, err := markov.RelativeValueIteration(transitions, rewards, nil, 1e-10, 500000)
	if err != nil {
		return nil, err
	}
	adv := make([]float64, n)
	for i := 0; i < n; i++ {
		qa := p.R[Active][i]
		for k, pk := range p.P[Active].Data[i*n : (i+1)*n] {
			qa += pk * h[k]
		}
		qp := p.R[Passive][i] + lambda
		for k, pk := range p.P[Passive].Data[i*n : (i+1)*n] {
			qp += pk * h[k]
		}
		adv[i] = qa - qp
	}
	return adv, nil
}

// referenceAverageIndex is WhittleIndexAverage's bracket growth and
// bisection over referenceAverageAdvantage.
func referenceAverageIndex(p *Project) ([]float64, error) {
	maxR, minR := math.Inf(-1), math.Inf(1)
	for a := 0; a < 2; a++ {
		for _, r := range p.R[a] {
			maxR = math.Max(maxR, r)
			minR = math.Min(minR, r)
		}
	}
	span := 2 * (maxR - minR + 1)
	idx := make([]float64, p.N())
	for i := range idx {
		a, b := -span, span
		for iter := 0; iter < 40; iter++ {
			adv, err := referenceAverageAdvantage(p, b)
			if err != nil {
				return nil, err
			}
			if adv[i] <= 0 {
				break
			}
			b *= 2
		}
		for iter := 0; iter < 40; iter++ {
			adv, err := referenceAverageAdvantage(p, a)
			if err != nil {
				return nil, err
			}
			if adv[i] > 0 {
				break
			}
			a *= 2
		}
		for iter := 0; iter < 60 && b-a > 1e-8*(1+math.Abs(a)); iter++ {
			mid := (a + b) / 2
			adv, err := referenceAverageAdvantage(p, mid)
			if err != nil {
				return nil, err
			}
			if adv[i] > 0 {
				a = mid
			} else {
				b = mid
			}
		}
		idx[i] = (a + b) / 2
	}
	return idx, nil
}

// Policy iteration solves each average subsidy exactly where relative
// value iteration stopped within 1e-10, and the bisection only reads the
// advantage's sign: the indices must keep every bit on E25's project, a
// 5-state repair project and 20 random projects at each of 2 to 6 states.
func TestWhittleIndexAverageMatchesRelativeValueIteration(t *testing.T) {
	type tc struct {
		name string
		p    *Project
	}
	repair4, err := MachineRepair(4, 0.3, 0.5, []float64{1, 0.8, 0.4, 0})
	if err != nil {
		t.Fatal(err)
	}
	repair5, err := MachineRepair(5, 0.3, 0.6, []float64{1, 0.85, 0.55, 0.25, 0})
	if err != nil {
		t.Fatal(err)
	}
	cases := []tc{{"repair4", repair4}, {"repair5", repair5}}
	s := rng.New(2024)
	for n := 2; n <= 6; n++ {
		for d := 0; d < 20; d++ {
			cases = append(cases, tc{fmt.Sprintf("random n=%d #%d", n, d), RandomProject(n, s.Split())})
		}
	}
	for _, c := range cases {
		got, err := WhittleIndexAverage(c.p)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want, err := referenceAverageIndex(c.p)
		if err != nil {
			t.Fatalf("%s: reference: %v", c.name, err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Errorf("%s state %d: index %v, relative value iteration %v", c.name, i, got[i], want[i])
			}
		}
	}
}

// TestWhittleIndexAverageAllocations: the average index solves its
// subsidies on one workspace with a kept factorization. Relative value
// iteration from zero at every step made 1,507 allocations on E25's
// project.
func TestWhittleIndexAverageAllocations(t *testing.T) {
	p := testRepairProject(t)
	var err error
	allocs := testing.AllocsPerRun(20, func() { _, err = WhittleIndexAverage(p) })
	if err != nil {
		t.Fatal(err)
	}
	if allocs > 600 {
		t.Fatalf("WhittleIndexAverage made %v allocations, want ≤ 600", allocs)
	}
}

// A policy with two recurrent classes leaves the average evaluation
// singular: passive is the identity, so the all-passive start is
// multichain, and the index reports the error instead of an index.
func TestWhittleIndexAverageMultichain(t *testing.T) {
	p, err := MachineRepair(3, 0, 0.5, []float64{1, 0.5, 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WhittleIndexAverage(p); err == nil {
		t.Fatal("multichain project accepted")
	}
}
