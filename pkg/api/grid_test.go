package api

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestGridSizeAndPointOrder(t *testing.T) {
	g := Grid{Axes: []Axis{
		{Path: "a", Values: []float64{1, 2}},
		{Path: "b", Values: []float64{10, 20, 30}},
	}}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Size() != 6 {
		t.Fatalf("size = %d, want 6", g.Size())
	}
	// Last axis varies fastest.
	want := [][]float64{{1, 10}, {1, 20}, {1, 30}, {2, 10}, {2, 20}, {2, 30}}
	for i, w := range want {
		got := g.Point(i)
		if got[0] != w[0] || got[1] != w[1] {
			t.Errorf("point %d = %v, want %v", i, got, w)
		}
	}

	empty := Grid{}
	if empty.Size() != 1 || len(empty.Point(0)) != 0 {
		t.Errorf("empty grid: size %d, point %v", empty.Size(), empty.Point(0))
	}
}

func TestGridValidateRejects(t *testing.T) {
	bad := []Grid{
		{Axes: []Axis{{Path: "", Values: []float64{1}}}},
		{Axes: []Axis{{Path: "a", Values: nil}}},
		{Axes: []Axis{{Path: "a", Values: []float64{1}}, {Path: "a", Values: []float64{2}}}},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("grid %d validated", i)
		}
	}
}

func TestGridApply(t *testing.T) {
	base := []byte(`{"mg1":{"spec":{"classes":[
		{"rate":0.3,"service_mean":0.5,"hold_cost":4},
		{"rate":0.2,"service_mean":1,"hold_cost":1}
	]},"policy":"cmu","horizon":2000,"burnin":200},"seed":7,"replications":20}`)
	g := Grid{Axes: []Axis{
		{Path: "mg1.spec.classes.0.rate", Values: []float64{0.25, 0.35}},
		{Path: "replications", Values: []float64{10, 40}},
	}}
	out, err := g.Apply(base, []float64{0.35, 40})
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		MG1 struct {
			Spec struct {
				Classes []struct {
					Rate float64 `json:"rate"`
				} `json:"classes"`
			} `json:"spec"`
			Policy string `json:"policy"`
		} `json:"mg1"`
		Replications int `json:"replications"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.MG1.Spec.Classes[0].Rate != 0.35 || doc.Replications != 40 {
		t.Fatalf("overrides not applied: %s", out)
	}
	if doc.MG1.Policy != "cmu" {
		t.Fatalf("untouched field mangled: %s", out)
	}
	// Untouched numbers keep their original digits.
	if !strings.Contains(string(out), `"service_mean":0.5`) {
		t.Errorf("untouched number reformatted: %s", out)
	}
}

func TestGridApplyErrors(t *testing.T) {
	base := []byte(`{"a":{"b":[1,2]}}`)
	cases := []string{"a.c.d", "a.b.x", "a.b.7", "a.b.0.z"}
	for _, path := range cases {
		g := Grid{Axes: []Axis{{Path: path, Values: []float64{1}}}}
		if _, err := g.Apply(base, []float64{1}); err == nil {
			t.Errorf("path %q applied", path)
		}
	}
	// Creating a leaf object key is allowed (the typed re-parse polices the
	// schema).
	g := Grid{Axes: []Axis{{Path: "a.new", Values: []float64{3}}}}
	out, err := g.Apply(base, []float64{3})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `"new":3`) {
		t.Errorf("leaf creation failed: %s", out)
	}
}

func TestSetString(t *testing.T) {
	base := []byte(`{"mg1":{"policy":"cmu"},"seed":1}`)
	out, err := SetString(base, "mg1.policy", "fifo")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `"policy":"fifo"`) {
		t.Errorf("policy not set: %s", out)
	}
}

func TestGridHashStable(t *testing.T) {
	g1 := Grid{Axes: []Axis{{Path: "a", Values: []float64{1, 2}}}}
	g2 := Grid{Axes: []Axis{{Path: "a", Values: []float64{1, 2}}}}
	if Hash(&g1) != Hash(&g2) {
		t.Error("identical grids hash differently")
	}
	g2.Axes[0].Values[1] = 3
	if Hash(&g1) == Hash(&g2) {
		t.Error("different grids hash equal")
	}
}

func TestHashStableAndDiscriminating(t *testing.T) {
	spec := func() Bandit {
		return Bandit{Beta: 0.9, Transitions: [][]float64{{0.5, 0.5}, {0.2, 0.8}}, Rewards: []float64{1, 0.3}}
	}
	a, b := spec(), spec()
	if Hash(&a) != Hash(&b) {
		t.Fatal("identical specs hash differently")
	}
	b.Rewards[0] = 2
	if Hash(&a) == Hash(&b) {
		t.Fatal("different specs collide")
	}
	if len(Hash(&a)) != 64 {
		t.Fatalf("hash length %d, want 64", len(Hash(&a)))
	}
}
