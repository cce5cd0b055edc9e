package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"stochsched/pkg/api"
)

// perCellBodies is how Expand built its cells before it wrote them all
// from one decoded base: Grid.Apply decoded and re-encoded the base once
// per point, then api.SetString the point body once per cell, then
// api.SetInt once more per cell without common random numbers, the
// per-policy seed derived from the point body's own seed.
func perCellBodies(req *api.SweepRequest, policyPath string) ([][]byte, error) {
	var compact bytes.Buffer
	if err := json.Compact(&compact, req.Base); err != nil {
		return nil, err
	}
	base := compact.Bytes()
	var probe struct {
		Kind string `json:"kind"`
		Seed uint64 `json:"seed"`
	}
	if err := json.Unmarshal(base, &probe); err != nil {
		return nil, err
	}
	crn := req.CRN == nil || *req.CRN
	policies := req.Policies
	if len(policies) == 0 {
		policies = []string{""}
	}
	var cells [][]byte
	for pt := 0; pt < req.Grid.Size(); pt++ {
		pointBody, err := req.Grid.Apply(base, req.Grid.Point(pt))
		if err != nil {
			return nil, err
		}
		if !crn {
			if err := json.Unmarshal(pointBody, &probe); err != nil {
				return nil, fmt.Errorf("sweep: point %d: %w", pt, err)
			}
		}
		for _, pol := range policies {
			body := pointBody
			if pol != "" {
				if body, err = api.SetString(pointBody, policyPath, pol); err != nil {
					return nil, err
				}
				if !crn {
					if body, err = api.SetInt(body, "seed", independentSeed(probe.Seed, pol)); err != nil {
						return nil, err
					}
				}
			}
			cells = append(cells, body)
		}
	}
	return cells, nil
}

// TestExpandMatchesPerCellSubstitution: the cells Expand writes from one
// decoded base are byte for byte the cells the per-cell construction
// wrote, and a request either rejects fails with the same text: with
// common random numbers on and off, with no policy list, under a "seed"
// axis, and over two axes. The base keeps numbers in forms a re-encoding
// could change (trailing zeros, exponents, a long seed) and a string with
// characters json.Marshal escapes.
func TestExpandMatchesPerCellSubstitution(t *testing.T) {
	const base = `{"kind": "mg1", "mg1": {"spec": {"classes": [
		{"name": "<a&b>", "rate": 0.30, "service_mean": 5e-1, "hold_cost": 4.000},
		{"rate": 0.2, "service_mean": 1, "hold_cost": 1}]},
		"policy": "cmu", "horizon": 100, "burnin": 1E1},
		"seed": 9007199254740991, "replications": 5}`
	rate := api.Axis{Path: "mg1.spec.classes.0.rate", Values: []float64{0.1, 0.25, 1e-7}}
	horizon := api.Axis{Path: "mg1.horizon", Values: []float64{50, 2e6}}
	seed := api.Axis{Path: "seed", Values: []float64{11, 12}}
	for _, tc := range []struct {
		name     string
		axes     []api.Axis
		policies []string
		crn      *bool
		fails    bool
	}{
		{name: "crn default", axes: []api.Axis{rate}, policies: []string{"cmu", "fifo"}},
		{name: "crn on", axes: []api.Axis{rate}, policies: []string{"cmu", "fifo"}, crn: boolPtr(true)},
		{name: "crn off", axes: []api.Axis{rate}, policies: []string{"cmu", "fifo"}, crn: boolPtr(false)},
		{name: "no policy list", axes: []api.Axis{rate}},
		{name: "seed axis, crn off", axes: []api.Axis{seed, rate}, policies: []string{"fifo", "cmu"}, crn: boolPtr(false)},
		{name: "seed axis, crn on", axes: []api.Axis{rate, seed}, policies: []string{"cmu", "fifo"}},
		{name: "two axes", axes: []api.Axis{rate, horizon}, policies: []string{"cmu", "fifo"}},
		{name: "two axes, crn off", axes: []api.Axis{horizon, rate}, policies: []string{"cmu"}, crn: boolPtr(false)},
		{name: "no axes", policies: []string{"fifo", "cmu"}, crn: boolPtr(false)},
		{name: "seed axis off the integers", axes: []api.Axis{{Path: "seed", Values: []float64{3, 2.5}}}, policies: []string{"cmu"}, crn: boolPtr(false), fails: true},
		{name: "axis through a leaf", axes: []api.Axis{{Path: "mg1.horizon.x", Values: []float64{1}}}, policies: []string{"cmu"}, fails: true},
	} {
		req := &api.SweepRequest{Base: json.RawMessage(base), Grid: api.Grid{Axes: tc.axes}, Policies: tc.policies, CRN: tc.crn}
		want, wantErr := perCellBodies(req, "mg1.policy")
		plan, err := Expand(req, &fakeBackend{}, 0)
		if tc.fails {
			if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
				t.Errorf("%s: error %v, want %v", tc.name, err, wantErr)
			}
			continue
		}
		if err != nil || wantErr != nil {
			t.Fatalf("%s: %v / %v", tc.name, err, wantErr)
		}
		if plan.Cells() != len(want) {
			t.Fatalf("%s: %d cells, want %d", tc.name, plan.Cells(), len(want))
		}
		for i, w := range want {
			if !bytes.Equal(plan.Cell(i), w) {
				t.Errorf("%s: cell %d\n got %s\nwant %s", tc.name, i, plan.Cell(i), w)
			}
		}
	}
}
