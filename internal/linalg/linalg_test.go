package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"stochsched/internal/rng"
)

func TestSolveKnown(t *testing.T) {
	a := FromRows([][]float64{{2, 1}, {1, 3}})
	x, err := Solve(a, []float64{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	// 2x+y=3, x+3y=5 → x=4/5, y=7/5
	if math.Abs(x[0]-0.8) > 1e-12 || math.Abs(x[1]-1.4) > 1e-12 {
		t.Fatalf("solve = %v, want [0.8 1.4]", x)
	}
}

func TestSolveRandomRoundTrip(t *testing.T) {
	s := rng.New(31)
	for trial := 0; trial < 50; trial++ {
		n := 1 + s.Intn(12)
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = 2*s.Float64() - 1
		}
		// Diagonal dominance guarantees nonsingularity.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)+1)
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = 2*s.Float64() - 1
		}
		b := a.MulVec(want)
		got, err := Solve(a, b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-8 {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestSingularDetected(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Factorize(a); err == nil {
		t.Fatal("singular matrix not detected")
	}
}

func TestTranspose(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := a.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("transpose shape %dx%d", tr.Rows, tr.Cols)
	}
	err := quick.Check(func(iRaw, jRaw uint8) bool {
		i := int(iRaw) % a.Rows
		j := int(jRaw) % a.Cols
		return a.At(i, j) == tr.At(j, i)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestSubScale(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	diff := b.Sub(a)
	if diff.At(0, 0) != 4 {
		t.Fatalf("sub wrong: %v", diff.Data)
	}
	sc := a.Scale(2)
	if sc.At(1, 0) != 6 {
		t.Fatalf("scale wrong: %v", sc.Data)
	}
	// Originals untouched.
	if a.At(0, 0) != 1 || b.At(0, 0) != 5 {
		t.Fatal("operations mutated operands")
	}
}

func TestPanicsOnBadShapes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	a := NewMatrix(2, 3)
	b := NewMatrix(3, 2)
	a.Sub(b)
}

func BenchmarkSolve50(b *testing.B) {
	s := rng.New(1)
	n := 50
	a := NewMatrix(n, n)
	for i := range a.Data {
		a.Data[i] = 2*s.Float64() - 1
	}
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = 2*s.Float64() - 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}
