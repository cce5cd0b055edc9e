package bandit

import (
	"fmt"
	"testing"

	"stochsched/internal/linalg"
	"stochsched/internal/rng"
)

// refRandomProject is RandomProject as it was written before it drew its
// rows through markov.RandomStochastic.
func refRandomProject(n int, s *rng.Stream) *Project {
	m := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		sum := 0.0
		row := make([]float64, n)
		for j := range row {
			row[j] = s.Float64Open()
			sum += row[j]
		}
		for j := range row {
			m.Set(i, j, row[j]/sum)
		}
	}
	r := make([]float64, n)
	for i := range r {
		r[i] = s.Float64()
	}
	return &Project{P: m, R: r}
}

// TestRandomProjectMatchesReference: a random project keeps its draw order
// (the rows, then the rewards) and every bit, and leaves the stream where
// the reference left it.
func TestRandomProjectMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		for n := 1; n <= 6; n++ {
			s, rs := rng.New(seed), rng.New(seed)
			got, want := RandomProject(n, s), refRandomProject(n, rs)
			what := fmt.Sprintf("seed %d n=%d", seed, n)
			sameBits(t, what+" P", got.P.Data, want.P.Data)
			sameBits(t, what+" R", got.R, want.R)
			if s.Uint64() != rs.Uint64() {
				t.Fatalf("%s: stream diverged after the draw", what)
			}
		}
	}
}
