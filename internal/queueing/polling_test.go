package queueing

import (
	"fmt"
	"math"
	"testing"

	"stochsched/internal/des"
	"stochsched/internal/dist"
	"stochsched/internal/rng"
)

func pollingSystem(regime PollingRegime, setup float64) *Polling {
	return &Polling{
		Queues: []Class{
			{Name: "q1", ArrivalRate: 0.25, Service: dist.Exponential{Rate: 1.2}, HoldCost: 1},
			{Name: "q2", ArrivalRate: 0.25, Service: dist.Exponential{Rate: 1.2}, HoldCost: 1},
		},
		Switch: dist.Deterministic{Value: setup},
		Regime: regime,
	}
}

func TestPollingValidation(t *testing.T) {
	p := pollingSystem(Exhaustive, 0.1)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.Switch = dist.Deterministic{Value: 0}
	if err := p.Validate(); err == nil {
		t.Error("zero switchover accepted")
	}
	one := &Polling{Queues: p.Queues[:1], Switch: dist.Deterministic{Value: 0.1}}
	if err := one.Validate(); err == nil {
		t.Error("single queue accepted")
	}
	over := pollingSystem(Gated, 0.1)
	over.Queues[0].ArrivalRate = 5
	if err := over.Validate(); err == nil {
		t.Error("overloaded polling accepted")
	}
}

func TestPollingRunsAndServes(t *testing.T) {
	s := rng.New(1400)
	for _, regime := range []PollingRegime{Exhaustive, Gated, Limited1} {
		p := pollingSystem(regime, 0.2)
		res, err := p.Simulate(8000, 800, s.Split())
		if err != nil {
			t.Fatalf("%v: %v", regime, err)
		}
		for j, n := range res.Served {
			if n == 0 {
				t.Fatalf("%v: queue %d served no jobs", regime, j)
			}
		}
		for j, l := range res.L {
			if l <= 0 || l > 100 {
				t.Fatalf("%v: queue %d mean count %v implausible", regime, j, l)
			}
		}
	}
}

// With large switchover times, exhaustive service dominates 1-limited: the
// 1-limited regime pays a setup per job (Levy–Sidi 1990 regime comparison).
func TestExhaustiveBeatsLimitedUnderHighSetup(t *testing.T) {
	s := rng.New(1401)
	const setup = 1.0
	var exh, lim float64
	const reps = 5
	for i := 0; i < reps; i++ {
		e, err := pollingSystem(Exhaustive, setup).Simulate(12000, 1200, s.Split())
		if err != nil {
			t.Fatal(err)
		}
		exh += e.CostRate
		l, err := pollingSystem(Limited1, setup).Simulate(12000, 1200, s.Split())
		if err != nil {
			t.Fatal(err)
		}
		lim += l.CostRate
	}
	if exh >= lim {
		t.Fatalf("exhaustive cost %v not below 1-limited %v at setup %v", exh/reps, lim/reps, setup)
	}
}

// Gated lies between exhaustive and 1-limited in this symmetric system.
func TestGatedBetween(t *testing.T) {
	s := rng.New(1402)
	const setup = 1.0
	avg := func(r PollingRegime) float64 {
		var sum float64
		const reps = 5
		for i := 0; i < reps; i++ {
			res, err := pollingSystem(r, setup).Simulate(12000, 1200, s.Split())
			if err != nil {
				t.Fatal(err)
			}
			sum += res.CostRate
		}
		return sum / reps
	}
	e, g, l := avg(Exhaustive), avg(Gated), avg(Limited1)
	if !(e <= g+0.15 && g <= l+0.15) {
		t.Fatalf("expected exhaustive ≤ gated ≤ 1-limited, got %v / %v / %v", e, g, l)
	}
}

// simulatePollingOneEventPerSwitchover is Polling.Simulate as it was before
// the idle walk: every switchover, idle or not, is its own event. It is the
// reference TestPollingIdleWalkMatchesEventLoop holds Simulate to.
func simulatePollingOneEventPerSwitchover(p *Polling, horizon, burnin float64, s *rng.Stream) (*SimResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if horizon <= burnin || burnin < 0 {
		return nil, fmt.Errorf("queueing: need 0 <= burnin < horizon")
	}
	n := len(p.Queues)
	sim := des.New()
	swStream := s.Split()
	arr, svc := splitStreams(s, n)
	queues := make([][]job, n)
	t := newTally(sim, n, burnin)
	at := 0
	gate := 0

	var visit func(first bool)
	complete := func() {
		t.add(at, -1)
		gate--
		visit(false)
	}
	reach := func() {
		at = (at + 1) % n
		visit(true)
	}
	visit = func(first bool) {
		if first {
			switch p.Regime {
			case Gated:
				gate = len(queues[at])
			case Limited1:
				gate = 1
			default:
				gate = -1
			}
		}
		if len(queues[at]) > 0 && (gate != 0 || p.Regime == Exhaustive) {
			t.start(take(&queues[at], 0))
			sim.Schedule(p.Queues[at].Service.Sample(svc[at]), complete)
		} else {
			sim.Schedule(p.Switch.Sample(swStream), reach)
		}
	}
	poisson(sim, arr, rates(p.Queues), func(j int) {
		t.add(j, +1)
		queues[j] = append(queues[j], job{class: j, arrival: sim.Now()})
	})
	t.snapshotAtBurnin()
	sim.At(0, func() { visit(true) })
	sim.RunUntil(horizon)
	return t.result(horizon, holds(p.Queues)), nil
}

// samePollingResult reports the first field in which two results differ
// bit for bit, or "" when they agree.
func samePollingResult(got, want *SimResult) string {
	if math.Float64bits(got.CostRate) != math.Float64bits(want.CostRate) {
		return fmt.Sprintf("CostRate %x, want %x", math.Float64bits(got.CostRate), math.Float64bits(want.CostRate))
	}
	for j := range want.L {
		if math.Float64bits(got.L[j]) != math.Float64bits(want.L[j]) {
			return fmt.Sprintf("L[%d] %v, want %v", j, got.L[j], want.L[j])
		}
		if math.Float64bits(got.Wq[j]) != math.Float64bits(want.Wq[j]) {
			return fmt.Sprintf("Wq[%d] %v, want %v", j, got.Wq[j], want.Wq[j])
		}
		if got.Served[j] != want.Served[j] {
			return fmt.Sprintf("Served[%d] %d, want %d", j, got.Served[j], want.Served[j])
		}
	}
	return ""
}

// TestPollingIdleWalkMatchesEventLoop: walking idle switchovers in place
// must reproduce the one-event-per-switchover loop bit for bit, over
// switchover laws with and without randomness, every regime, light to
// heavy loads (light ones are mostly idle switching), 2–4 queues, and
// plain and antithetic streams.
func TestPollingIdleWalkMatchesEventLoop(t *testing.T) {
	switches := []dist.Distribution{
		dist.Deterministic{Value: 0.1},
		dist.Deterministic{Value: 0.7},
		dist.Exponential{Rate: 10},
		dist.Erlang{K: 2, Rate: 20},
		dist.Uniform{Lo: 0.01, Hi: 0.3},
	}
	const horizon, burnin, reps = 150, 15, 2
	checked := 0
	for _, sw := range switches {
		for _, regime := range []PollingRegime{Exhaustive, Gated, Limited1} {
			for _, load := range []float64{0.05, 0.3, 0.6, 0.85} {
				if regime == Limited1 && load > 0.6 {
					continue
				}
				for n := 2; n <= 4; n++ {
					// Unequal queues: queue j carries a share of the load
					// proportional to j+1, at service mean 0.5(j+1).
					p := &Polling{Switch: sw, Regime: regime}
					for j := 0; j < n; j++ {
						mean := 0.5 * float64(j+1)
						lam := load * float64(j+1) / float64(n*(n+1)/2) / mean
						p.Queues = append(p.Queues, Class{ArrivalRate: lam, Service: dist.Exponential{Rate: 1 / mean}, HoldCost: float64(n - j)})
					}
					for seed := uint64(0); seed < 6; seed++ {
						root := rng.New(seed)
						if seed%2 == 0 {
							root.Antithetic()
						}
						streams := make([]rng.Stream, reps)
						root.SplitInto(streams)
						for r := range streams {
							ref := streams[r] // both loops start from the same state
							got, err := p.Simulate(horizon, burnin, &streams[r])
							if err != nil {
								t.Fatal(err)
							}
							want, err := simulatePollingOneEventPerSwitchover(p, horizon, burnin, &ref)
							if err != nil {
								t.Fatal(err)
							}
							if diff := samePollingResult(got, want); diff != "" {
								t.Fatalf("switch %v, regime %d, load %v, %d queues, seed %d, rep %d: %s",
									sw, regime, load, n, seed, r, diff)
							}
							checked++
						}
					}
				}
			}
		}
	}
	if checked != 1980 {
		t.Fatalf("checked %d replications, want 1980", checked)
	}
}

// TestPollingIdleWalkEdges: with no arrivals at all only the horizon can
// end the walk, and with burn-in 0 the snapshot fires before the first
// visit; both must match the one-event-per-switchover loop.
func TestPollingIdleWalkEdges(t *testing.T) {
	for _, tc := range []struct {
		name            string
		rates           []float64
		horizon, burnin float64
	}{
		{"no arrivals", []float64{0, 0, 0}, 50, 5},
		{"no arrivals, burn-in 0", []float64{0, 0}, 50, 0},
		{"burn-in 0", []float64{0.1, 0.05, 0.2}, 200, 0},
		{"one silent queue", []float64{0.2, 0}, 200, 10},
	} {
		for _, sw := range []dist.Distribution{dist.Deterministic{Value: 0.25}, dist.Uniform{Lo: 0.01, Hi: 0.3}} {
			for _, regime := range []PollingRegime{Exhaustive, Gated, Limited1} {
				p := &Polling{Switch: sw, Regime: regime}
				for _, lam := range tc.rates {
					p.Queues = append(p.Queues, Class{ArrivalRate: lam, Service: dist.Exponential{Rate: 2}, HoldCost: 1})
				}
				for seed := uint64(0); seed < 4; seed++ {
					got, err := p.Simulate(tc.horizon, tc.burnin, rng.New(seed))
					if err != nil {
						t.Fatal(err)
					}
					want, err := simulatePollingOneEventPerSwitchover(p, tc.horizon, tc.burnin, rng.New(seed))
					if err != nil {
						t.Fatal(err)
					}
					if diff := samePollingResult(got, want); diff != "" {
						t.Fatalf("%s, switch %v, regime %d, seed %d: %s", tc.name, sw, regime, seed, diff)
					}
				}
			}
		}
	}
}

// TestPollingIdleWalkTie: a switchover that ends exactly when a job
// arrives at the queue it reaches must let the arrival fire first, as its
// lower sequence number did, so the server finds the job and serves it at
// once. The first switchover is scripted to end at queue 1's first
// arrival, read off the stream Simulate derives for it.
func TestPollingIdleWalkTie(t *testing.T) {
	const lam = 0.2
	for _, regime := range []PollingRegime{Exhaustive, Gated, Limited1} {
		probe := *rng.New(5)
		probe.Split() // the switchover stream
		streams := make([]rng.Stream, 4)
		probe.SplitInto(streams) // arrival 0, service 0, arrival 1, service 1
		first := streams[2].Exp(lam)
		law := &scriptedLaw{vals: []float64{first, 0.3}}
		p := &Polling{Switch: law, Regime: regime, Queues: []Class{
			{ArrivalRate: 0, Service: dist.Exponential{Rate: 2}, HoldCost: 1},
			{ArrivalRate: lam, Service: dist.Exponential{Rate: 2}, HoldCost: 1},
		}}
		got, err := p.Simulate(100, 0, rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		law.i = 0
		want, err := simulatePollingOneEventPerSwitchover(p, 100, 0, rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		if diff := samePollingResult(got, want); diff != "" {
			t.Fatalf("regime %d: %s", regime, diff)
		}
	}
}

// scriptedLaw samples its values in turn, repeating the last.
type scriptedLaw struct {
	vals []float64
	i    int
}

func (l *scriptedLaw) Mean() float64 { return l.vals[len(l.vals)-1] }
func (l *scriptedLaw) Var() float64  { return 0 }
func (l *scriptedLaw) Sample(*rng.Stream) float64 {
	v := l.vals[min(l.i, len(l.vals)-1)]
	l.i++
	return v
}

// TestPollingSwitchoverPanics: the walk adds switchover draws itself, and
// must still reject a negative or NaN draw the way Schedule does.
func TestPollingSwitchoverPanics(t *testing.T) {
	for _, bad := range []float64{-0.5, math.NaN()} {
		p := &Polling{
			Queues: []Class{{ArrivalRate: 0.1, Service: dist.Exponential{Rate: 2}}, {ArrivalRate: 0.1, Service: dist.Exponential{Rate: 2}}},
			Switch: badSwitch{bad},
		}
		func() {
			defer func() {
				if r := recover(); r != "des: negative or NaN delay" {
					t.Errorf("draw %v: recovered %v, want the des delay panic", bad, r)
				}
			}()
			p.Simulate(100, 10, rng.New(1))
		}()
	}
}

// badSwitch has a positive mean but samples a fixed bad value.
type badSwitch struct{ v float64 }

func (badSwitch) Mean() float64                { return 1 }
func (badSwitch) Var() float64                 { return 0 }
func (b badSwitch) Sample(*rng.Stream) float64 { return b.v }
