// Package bandit implements the survey's second model family: discounted
// multi-armed bandits.
//
// It provides two independent computations of the Gittins index — the
// restart-in-state formulation (Katehakis–Veinott 1987, in the spirit of
// Whittle 1980) and the largest-index-first algorithm
// (Varaiya–Walrand–Buyukkoc 1985) — a product-chain dynamic-programming
// baseline that computes the true optimal value for small instances, exact
// policy evaluation for arbitrary index policies, the switching-cost
// extension of Asawa–Teneketzis (1996) under which the Gittins rule loses
// optimality, and Beta–Bernoulli indices for the clinical-trial example.
package bandit

import (
	"fmt"

	"stochsched/internal/linalg"
	"stochsched/internal/markov"
	"stochsched/internal/rng"
)

// Project is one bandit arm: a finite Markov reward process that moves only
// while engaged. R[i] is the reward collected when the project is engaged in
// state i; the state then moves according to row i of P.
type Project struct {
	P *linalg.Matrix
	R []float64
}

// Validate checks that P is row-stochastic and R matches its dimension.
func (p *Project) Validate() error {
	if _, err := markov.NewChain(p.P); err != nil {
		return fmt.Errorf("bandit: %w", err)
	}
	if len(p.R) != p.P.Rows {
		return fmt.Errorf("bandit: reward length %d, state count %d", len(p.R), p.P.Rows)
	}
	return nil
}

// N returns the number of states.
func (p *Project) N() int { return p.P.Rows }

// RandomProject generates a random project with n states: Dirichlet-like
// rows (normalized uniforms) and rewards in [0, 1).
func RandomProject(n int, s *rng.Stream) *Project {
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

// Bandit is a collection of projects with a common discount factor.
type Bandit struct {
	Projects []*Project
	Beta     float64
}

// Validate checks all projects and the discount factor.
func (b *Bandit) Validate() error {
	if len(b.Projects) == 0 {
		return fmt.Errorf("bandit: no projects")
	}
	if !(b.Beta > 0 && b.Beta < 1) {
		return fmt.Errorf("bandit: discount %v outside (0,1)", b.Beta)
	}
	for i, p := range b.Projects {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("project %d: %w", i, err)
		}
	}
	return nil
}
