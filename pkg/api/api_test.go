package api

import (
	"encoding/json"
	"testing"
)

func TestSimulateRequestSpecHash(t *testing.T) {
	req := &SimulateRequest{
		Kind: "mg1",
		MG1: &MG1Sim{
			Spec: MG1{Classes: []Class{
				{Rate: 0.3, ServiceMean: 0.5, HoldCost: 4},
			}},
			Policy:  "cmu",
			Horizon: 2000,
			Burnin:  200,
		},
		Seed:         7,
		Replications: 20,
		Parallel:     8,
	}
	h1, err := req.SpecHash()
	if err != nil {
		t.Fatal(err)
	}
	if len(h1) != 64 {
		t.Fatalf("hash length %d", len(h1))
	}
	// The parallel knob is excluded: same hash at any level.
	req.Parallel = 1
	h2, err := req.SpecHash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Error("parallel knob changed the spec hash")
	}
	// Seed and payload fields are included.
	req.Seed = 8
	if h3, _ := req.SpecHash(); h3 == h1 {
		t.Error("seed change did not change the hash")
	}
	req.Seed = 7
	req.MG1.Horizon = 2001
	if h4, _ := req.SpecHash(); h4 == h1 {
		t.Error("payload change did not change the hash")
	}
	// And it matches the canonical envelope encoding byte for byte.
	req.MG1.Horizon = 2000
	want, err := SimulateHash("mg1", req.MG1, 7, 20)
	if err != nil {
		t.Fatal(err)
	}
	if h5, _ := req.SpecHash(); h5 != want {
		t.Error("SpecHash disagrees with SimulateHash")
	}
}

func TestSimulateRequestPayload(t *testing.T) {
	if _, err := (&SimulateRequest{Kind: "mg1"}).Payload(); err == nil {
		t.Error("missing payload accepted")
	}
	if _, err := (&SimulateRequest{Kind: "quantum"}).Payload(); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := (&SimulateRequest{Kind: "bandit", MG1: &MG1Sim{}}).Payload(); err == nil {
		t.Error("payload under the wrong kind accepted")
	}
	p, err := (&SimulateRequest{Kind: "batch", Batch: &BatchSim{}}).Payload()
	if err != nil || p == nil {
		t.Errorf("valid payload rejected: %v", err)
	}
}

// TestErrorResponseCompat pins the envelope decoder to the object form:
// the pre-v2 string form no longer decodes (clients fall back to the raw
// text, see pkg/client).
func TestErrorResponseCompat(t *testing.T) {
	var v2 ErrorResponse
	if err := json.Unmarshal([]byte(`{"error":{"code":"bad_request","message":"no"}}`), &v2); err != nil {
		t.Fatal(err)
	}
	if v2.Err.Code != ErrCodeBadRequest || v2.Err.Message != "no" {
		t.Errorf("v2 decoded as %+v", v2.Err)
	}
	var legacy ErrorResponse
	if err := json.Unmarshal([]byte(`{"error":"queue full"}`), &legacy); err == nil {
		t.Errorf("string form decoded as %+v", legacy.Err)
	}
	// Round trip: the encoder always writes the object form.
	out, err := json.Marshal(ErrorResponse{Err: ErrorDetail{Code: "x", Message: "y"}})
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != `{"error":{"code":"x","message":"y"}}` {
		t.Errorf("encoded %s", out)
	}
	// The detail doubles as an error value.
	if msg := (&ErrorDetail{Code: "a", Message: "b"}).Error(); msg != "a: b" {
		t.Errorf("Error() = %q", msg)
	}
}

func TestSetNumber(t *testing.T) {
	out, err := SetNumber([]byte(`{"kind":"mg1","seed":7}`), "parallel", 8)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Kind     string `json:"kind"`
		Seed     uint64 `json:"seed"`
		Parallel int    `json:"parallel"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Parallel != 8 || doc.Seed != 7 || doc.Kind != "mg1" {
		t.Errorf("document %+v", doc)
	}
	for _, doc := range []string{`not json`, `{"a":1}}`, `{"a":1}]`, `{"a":1} {}`} {
		if _, err := SetNumber([]byte(doc), "a", 8); err == nil {
			t.Errorf("invalid document %s accepted", doc)
		}
	}
	if _, err := SetNumber([]byte(`{"a":{"b":1}}`), "a.c.d", 8); err == nil {
		t.Error("missing intermediate key accepted")
	}
}
