package scenario

import (
	"math"
	"testing"

	"stochsched/pkg/api"
)

func validBandit() api.Bandit {
	return api.Bandit{
		Beta:        0.9,
		Transitions: [][]float64{{0.5, 0.5}, {0.2, 0.8}},
		Rewards:     []float64{1, 0.3},
	}
}

func TestBanditValidate(t *testing.T) {
	b := validBandit()
	if _, err := banditProject(&b); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*api.Bandit)
	}{
		{"beta=0", func(b *api.Bandit) { b.Beta = 0 }},
		{"beta=1", func(b *api.Bandit) { b.Beta = 1 }},
		{"beta NaN", func(b *api.Bandit) { b.Beta = math.NaN() }},
		{"ragged matrix", func(b *api.Bandit) { b.Transitions[0] = []float64{1} }},
		{"non-stochastic", func(b *api.Bandit) { b.Transitions[0] = []float64{0.5, 0.4} }},
		{"negative prob", func(b *api.Bandit) { b.Transitions[0] = []float64{1.5, -0.5} }},
		{"reward length", func(b *api.Bandit) { b.Rewards = []float64{1} }},
		{"reward inf", func(b *api.Bandit) { b.Rewards[0] = math.Inf(1) }},
		{"empty", func(b *api.Bandit) { b.Transitions = nil }},
	}
	for _, c := range cases {
		bad := validBandit()
		c.mut(&bad)
		if _, err := banditProject(&bad); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestMG1Validate(t *testing.T) {
	m := api.MG1{Classes: []api.Class{
		{Rate: 0.3, ServiceMean: 0.5, HoldCost: 4},
		{Rate: 0.2, ServiceMean: 1, HoldCost: 1},
	}}
	q, err := mg1Model(&m)
	if err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if got := q.Classes[0].Name; got != "c1" {
		t.Errorf("default name = %q, want c1", got)
	}
	if q.Load() >= 1 {
		t.Errorf("load %v", q.Load())
	}

	bad := []api.MG1{
		{},
		{Classes: []api.Class{{Rate: -1, ServiceMean: 1, HoldCost: 1}}},
		{Classes: []api.Class{{Rate: 0, ServiceMean: 1, HoldCost: 1}}},
		{Classes: []api.Class{{Rate: 0.1, ServiceMean: -2, HoldCost: 1}}},
		{Classes: []api.Class{{Rate: 0.1, ServiceMean: 1, HoldCost: -1}}},
		{Classes: []api.Class{{Rate: 0.1, HoldCost: 1}}},                                              // no service law
		{Classes: []api.Class{{Rate: 0.1, ServiceMean: 1, Service: &api.Dist{Kind: "exp", Rate: 1}}}}, // both
		{Classes: []api.Class{{Rate: 2, ServiceMean: 1, HoldCost: 1}}},                                // unstable
	}
	for i, b := range bad {
		if _, err := mg1Model(&b); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}

	// Feedback: a valid Klimov network and a bad row.
	fb := api.MG1{
		Classes: []api.Class{
			{Rate: 0.2, ServiceMean: 0.5, HoldCost: 2},
			{Rate: 0.1, ServiceMean: 0.5, HoldCost: 1},
		},
		Feedback: [][]float64{{0, 0.3}, {0, 0}},
	}
	if !fb.HasFeedback() {
		t.Fatal("HasFeedback = false")
	}
	if _, err := klimovModel(&fb); err != nil {
		t.Fatalf("valid klimov rejected: %v", err)
	}
	fb.Feedback[0][1] = -0.3
	if _, err := klimovModel(&fb); err == nil {
		t.Fatal("negative feedback accepted")
	}
}

func TestDistValidate(t *testing.T) {
	good := []api.Dist{
		{Kind: "exp", Rate: 2},
		{Kind: "exp", Mean: 0.5},
		{Kind: "det", Value: 1.5},
		{Kind: "uniform", Lo: 0, Hi: 2},
		{Kind: "erlang", K: 3, Rate: 2},
		{Kind: "erlang", K: maxErlangK, Rate: 2},
	}
	for i, d := range good {
		law, err := distLaw(&d)
		if err != nil {
			t.Errorf("good dist %d rejected: %v", i, err)
			continue
		}
		if law.Mean() <= 0 {
			t.Errorf("dist %d mean %v", i, law.Mean())
		}
	}
	// The two exp forms must agree.
	a, _ := distLaw(&api.Dist{Kind: "exp", Rate: 2})
	b, _ := distLaw(&api.Dist{Kind: "exp", Mean: 0.5})
	if a.Mean() != b.Mean() {
		t.Errorf("exp rate/mean disagree: %v vs %v", a.Mean(), b.Mean())
	}

	bad := []api.Dist{
		{Kind: "gaussian"},
		{Kind: "exp"},
		{Kind: "exp", Rate: 2, Mean: 0.5},
		{Kind: "exp", Rate: -2},
		{Kind: "det", Value: 0},
		{Kind: "uniform", Lo: 2, Hi: 1},
		{Kind: "uniform", Lo: -1, Hi: 1},
		{Kind: "erlang", K: 0, Rate: 1},
		{Kind: "erlang", K: maxErlangK + 1, Rate: 1},
	}
	for i, d := range bad {
		if _, err := distLaw(&d); err == nil {
			t.Errorf("bad dist %d accepted", i)
		}
	}
}

func TestBatchValidate(t *testing.T) {
	b := api.Batch{Jobs: []api.JobSpec{
		{Weight: 2, Dist: api.Dist{Kind: "exp", Rate: 1}},
		{Weight: 1, Dist: api.Dist{Kind: "det", Value: 0.5}},
	}}
	in, err := batchInstance(&b)
	if err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
	if in.Machines != 1 {
		t.Errorf("default machines = %d, want 1", in.Machines)
	}
	bad := []api.Batch{
		{},
		{Jobs: []api.JobSpec{{Weight: -1, Dist: api.Dist{Kind: "exp", Rate: 1}}}},
		{Jobs: []api.JobSpec{{Weight: 1, Dist: api.Dist{Kind: "exp"}}}},
		{Jobs: []api.JobSpec{{Weight: 1, Dist: api.Dist{Kind: "exp", Rate: 1}}}, Machines: -2},
	}
	for i, b := range bad {
		if _, err := batchInstance(&b); err == nil {
			t.Errorf("bad batch %d accepted", i)
		}
	}
}

func TestRestlessValidate(t *testing.T) {
	r := api.Restless{
		Beta: 0.9,
		Passive: api.Action{
			Transitions: [][]float64{{0.9, 0.1}, {0, 1}},
			Rewards:     []float64{1, 0.2},
		},
		Active: api.Action{
			Transitions: [][]float64{{1, 0}, {1, 0}},
			Rewards:     []float64{-0.5, -0.5},
		},
	}
	if _, err := restlessProject(&r); err != nil {
		t.Fatalf("valid restless rejected: %v", err)
	}
	r.Active.Transitions = [][]float64{{1}}
	if _, err := restlessProject(&r); err == nil {
		t.Fatal("mismatched action dimensions accepted")
	}
}
