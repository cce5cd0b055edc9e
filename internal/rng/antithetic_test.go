package rng

import (
	"math"
	"testing"
)

// TestMirrorComplementsFloat64 pins the mirror semantics: a mirrored copy
// of a stream produces exactly 1−u for every Float64 the original
// produces, and both consume identical underlying state.
func TestMirrorComplementsFloat64(t *testing.T) {
	a := New(11)
	b := New(11)
	b.mirror = true
	for i := 0; i < 1000; i++ {
		u, v := a.Float64(), b.Float64()
		if v != 1-u {
			t.Fatalf("draw %d: mirrored %v, want 1-%v", i, v, u)
		}
		if !(u >= 0 && u < 1) || !(v > 0 && v <= 1) {
			t.Fatalf("draw %d: ranges u=%v v=%v", i, u, v)
		}
	}
}

// TestAntitheticPairs pins the paired split mode: substream 2k+1 is the
// mirrored twin of substream 2k, and the even substreams match what a
// plain stream's k-th split would produce.
func TestAntitheticPairs(t *testing.T) {
	src := New(42)
	src.Antithetic()
	plain := New(42)

	for k := 0; k < 8; k++ {
		even := src.Split()
		odd := src.Split()
		ref := plain.Split()
		for i := 0; i < 64; i++ {
			u := even.Float64()
			if w := ref.Float64(); u != w {
				t.Fatalf("pair %d draw %d: even substream diverged from plain split: %v vs %v", k, i, u, w)
			}
			if v := odd.Float64(); v != 1-u {
				t.Fatalf("pair %d draw %d: odd substream %v, want 1-%v", k, i, v, u)
			}
		}
	}
}

// TestAntitheticSplitIntoMatchesSplit ensures block splitting crosses pair
// boundaries invisibly: any partition of 12 substreams into blocks yields
// bit-identical streams to 12 repeated Splits.
func TestAntitheticSplitIntoMatchesSplit(t *testing.T) {
	want := make([]*Stream, 12)
	ref := New(7)
	ref.Antithetic()
	for i := range want {
		want[i] = ref.Split()
	}
	for _, blocks := range [][]int{{12}, {1, 11}, {3, 4, 5}, {5, 5, 2}, {1, 1, 1, 9}} {
		src := New(7)
		src.Antithetic()
		got := make([]Stream, 12)
		at := 0
		for _, n := range blocks {
			src.SplitInto(got[at : at+n])
			at += n
		}
		for i := range got {
			for d := 0; d < 16; d++ {
				if a, b := got[i].Uint64(), want[i].Uint64(); a != b {
					t.Fatalf("blocks %v substream %d draw %d: %x vs %x", blocks, i, d, a, b)
				}
				if got[i].mirror != want[i].mirror {
					t.Fatalf("blocks %v substream %d: mirror flag mismatch", blocks, i)
				}
			}
		}
		// want streams were advanced; rebuild for the next partition.
		ref = New(7)
		ref.Antithetic()
		for i := range want {
			want[i] = ref.Split()
		}
	}
}

// TestMirrorPropagatesThroughSplit: children of a mirrored substream are
// mirrored too, so nested component streams stay antithetically coupled.
func TestMirrorPropagatesThroughSplit(t *testing.T) {
	src := New(3)
	src.Antithetic()
	even := src.Split()
	odd := src.Split()
	ce, co := even.Split(), odd.Split()
	if ce.mirror || !co.mirror {
		t.Fatalf("child mirror flags: even=%v odd=%v, want false/true", ce.mirror, co.mirror)
	}
	for i := 0; i < 64; i++ {
		if u, v := ce.Float64(), co.Float64(); v != 1-u {
			t.Fatalf("nested draw %d: %v vs %v", i, u, v)
		}
	}
}

// TestAntitheticReducesVariance: for a monotone observable (an exponential
// sample), pair averages under antithetic coupling must have materially
// lower variance than independent pair averages.
func TestAntitheticReducesVariance(t *testing.T) {
	const pairs = 4000
	varOf := func(xs []float64) float64 {
		m := 0.0
		for _, x := range xs {
			m += x
		}
		m /= float64(len(xs))
		v := 0.0
		for _, x := range xs {
			v += (x - m) * (x - m)
		}
		return v / float64(len(xs)-1)
	}
	sample := func(s *Stream) float64 { return -math.Log(s.Float64Open()) }

	anti := New(99)
	anti.Antithetic()
	indep := New(99)
	antiAvg := make([]float64, pairs)
	indepAvg := make([]float64, pairs)
	for k := 0; k < pairs; k++ {
		a, b := anti.Split(), anti.Split()
		antiAvg[k] = (sample(a) + sample(b)) / 2
		c, d := indep.Split(), indep.Split()
		indepAvg[k] = (sample(c) + sample(d)) / 2
	}
	va, vi := varOf(antiAvg), varOf(indepAvg)
	if !(va < 0.7*vi) {
		t.Fatalf("antithetic pair variance %v not materially below independent %v", va, vi)
	}
}
