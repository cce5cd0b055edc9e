package queueing

import (
	"fmt"

	"stochsched/internal/dist"
	"stochsched/internal/rng"
)

// Multiclass M/M/m: m identical exponential servers shared by N classes
// under a nonpreemptive priority rule. Glazebrook–Niño-Mora (2001) analyze
// the cµ (Klimov) rule here via the achievable region: its suboptimality
// gap closes in heavy traffic — experiment E16. The lower bound used is the
// fast-single-server relaxation: one server of speed m can mimic any
// m-server schedule's departure process, so the optimal M/M/1(speed m) cost
// — attained by cµ via Cobham — bounds every M/M/m policy from below.

// MMm is a multiclass M/M/m system.
type MMm struct {
	Classes []Class // Service laws must be dist.Exponential
	Servers int
}

// Validate checks the classes, exponential services, server count and
// stability.
func (m *MMm) Validate() error {
	if m.Servers < 1 {
		return fmt.Errorf("queueing: MMm needs servers >= 1")
	}
	if len(m.Classes) == 0 {
		return fmt.Errorf("queueing: MMm needs classes")
	}
	if err := checkClasses(m.Classes); err != nil {
		return err
	}
	rho := 0.0
	for i, c := range m.Classes {
		if _, ok := c.Service.(dist.Exponential); !ok {
			return fmt.Errorf("queueing: MMm class %d must have exponential service", i)
		}
		rho += c.ArrivalRate * c.Service.Mean()
	}
	if !(rho < float64(m.Servers)) {
		return fmt.Errorf("queueing: MMm load %v ≥ servers %d", rho, m.Servers)
	}
	return nil
}

// FastSingleServerBound returns the exact holding-cost rate of the speed-m
// single-server relaxation under the cµ rule — a lower bound on the optimal
// multiclass M/M/m cost.
func (m *MMm) FastSingleServerBound() (float64, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	fast := &MG1{Classes: make([]Class, len(m.Classes))}
	for i, c := range m.Classes {
		rate := c.Service.(dist.Exponential).Rate * float64(m.Servers)
		fast.Classes[i] = Class{
			Name:        c.Name,
			ArrivalRate: c.ArrivalRate,
			Service:     dist.Exponential{Rate: rate},
			HoldCost:    c.HoldCost,
		}
	}
	_, l, err := fast.ExactPriority(fast.CMuOrder())
	if err != nil {
		return 0, err
	}
	return fast.HoldingCostRate(l), nil
}

// Simulate runs the M/M/m under a static nonpreemptive priority order
// (highest first), or first come, first served for a nil order. Both draw
// alike, so cmu and fifo replications of one seed see the same arrival
// and service draws.
func (m *MMm) Simulate(order []int, horizon, burnin float64, s *rng.Stream) (*SimResult, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := checkWindow(horizon, burnin); err != nil {
		return nil, err
	}
	md := oneStation(m.Classes, m.Servers, nil)
	if order != nil {
		rank, err := ranks(order, len(m.Classes))
		if err != nil {
			return nil, err
		}
		md.ranks = [][]int{rank}
	}
	return md.run(horizon, burnin, 0, s), nil
}

// CMuOrder returns the cµ priority order for the M/M/m classes.
func (m *MMm) CMuOrder() []int {
	mm := &MG1{Classes: m.Classes}
	return mm.CMuOrder()
}

// HoldingCostRate returns the steady-state holding-cost rate Σ c_j·L_j for
// the per-class numbers in system l.
func (m *MMm) HoldingCostRate(l []float64) float64 {
	mm := &MG1{Classes: m.Classes}
	return mm.HoldingCostRate(l)
}

// OfferedLoad returns the pooled offered load in erlangs, a = Σ λ_j·E[S_j]
// (the mean number of busy servers; stability is a < Servers).
func (m *MMm) OfferedLoad() float64 {
	a := 0.0
	for _, c := range m.Classes {
		a += c.ArrivalRate * c.Service.Mean()
	}
	return a
}

// ErlangC returns the Erlang-C probability that an arrival to an M/M/m
// with the given offered load (in erlangs) finds all servers busy and must
// wait. Computed by the standard numerically stable Erlang-B recursion
// B(k) = a·B(k−1)/(k + a·B(k−1)) followed by the B→C conversion.
func ErlangC(servers int, offered float64) (float64, error) {
	if servers < 1 {
		return 0, fmt.Errorf("queueing: ErlangC needs servers >= 1, got %d", servers)
	}
	if !(offered >= 0) {
		return 0, fmt.Errorf("queueing: ErlangC needs a nonnegative offered load, got %v", offered)
	}
	if offered >= float64(servers) {
		return 0, fmt.Errorf("queueing: ErlangC load %v ≥ servers %d", offered, servers)
	}
	b := 1.0
	for k := 1; k <= servers; k++ {
		b = offered * b / (float64(k) + offered*b)
	}
	return b / (1 - offered/float64(servers)*(1-b)), nil
}

// ErlangC returns the Erlang-C waiting probability of the pooled system.
func (m *MMm) ErlangC() (float64, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	return ErlangC(m.Servers, m.OfferedLoad())
}

// ExactPriority returns the per-class mean queueing delay and mean number
// in system under a static nonpreemptive priority order (highest first) —
// the multiserver Cobham formula
//
//	Wq_k = C(m,a)/(m·µ̄) · 1/((1−σ_{k−1})(1−σ_k)),  σ_k = Σ_{j ≤ k} λ_j/(m·µ_j),
//
// where C(m,a) is the Erlang-C waiting probability of the pooled system
// and µ̄ the aggregate service rate preserving the offered load. This is
// exact when every class shares one service rate (the classical M/M/m
// priority result); with heterogeneous rates it is the standard
// pooled-rate approximation.
func (m *MMm) ExactPriority(order []int) (wq []float64, l []float64, err error) {
	if err := m.Validate(); err != nil {
		return nil, nil, err
	}
	n := len(m.Classes)
	if _, err := ranks(order, n); err != nil {
		return nil, nil, err
	}
	a := m.OfferedLoad()
	c, err := ErlangC(m.Servers, a)
	if err != nil {
		return nil, nil, err
	}
	lambda := 0.0
	for _, cl := range m.Classes {
		lambda += cl.ArrivalRate
	}
	// µ̄ = λ/a: one pooled exponential rate with the same offered load.
	w0 := c * a / (lambda * float64(m.Servers))
	wq = make([]float64, n)
	l = make([]float64, n)
	sigma := 0.0
	for _, j := range order {
		cl := m.Classes[j]
		prev := sigma
		sigma += cl.ArrivalRate * cl.Service.Mean() / float64(m.Servers)
		wq[j] = w0 / ((1 - prev) * (1 - sigma))
		l[j] = cl.ArrivalRate * (wq[j] + cl.Service.Mean())
	}
	return wq, l, nil
}
