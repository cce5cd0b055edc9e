package scenario

// Fuzz targets for the two request parsers. `make fuzz` runs each for
// FUZZTIME; the seed corpora (the scenariotest bodies, plus any crasher
// checked in under testdata/fuzz) also run under plain `go test`.

import (
	"bytes"
	"encoding/json"
	"testing"

	"stochsched/internal/scenario/scenariotest"
)

// reindent re-encodes an accepted body with json.Indent: the same JSON
// value in different bytes, which must parse to the same request.
func reindent(t *testing.T, body []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := json.Indent(&out, body, "", "  "); err != nil {
		t.Fatalf("accepted body is not valid JSON: %v", err)
	}
	return out.Bytes()
}

// FuzzParseRequest: no body panics the /v1/simulate parser; an accepted
// body keeps its hash when re-indented; and Validate on it never panics.
func FuzzParseRequest(f *testing.F) {
	for _, kind := range scenariotest.SimulateKinds() {
		f.Add([]byte(scenariotest.SimulateBody(kind, 7)))
	}
	lim := Limits{MaxReplications: 1000, MaxSimWork: 1e6}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := ParseRequest(body, lim)
		if err != nil {
			return
		}
		again, err := ParseRequest(reindent(t, body), lim)
		if err != nil {
			t.Fatalf("re-indented body rejected: %v", err)
		}
		if req.Hash() != again.Hash() {
			t.Fatalf("hash changed on re-indent: %s vs %s", req.Hash(), again.Hash())
		}
		_ = req.Scenario.Validate(req.Payload, req.Opts())
	})
}

// FuzzParseIndexRequest: no body panics the /v1/index parser, and an
// accepted body keeps its hash when re-indented.
func FuzzParseIndexRequest(f *testing.F) {
	for _, kind := range IndexKinds() {
		f.Add([]byte(scenariotest.IndexBody(kind)))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := ParseIndexRequest(body)
		if err != nil {
			return
		}
		again, err := ParseIndexRequest(reindent(t, body))
		if err != nil {
			t.Fatalf("re-indented body rejected: %v", err)
		}
		if req.Hash() != again.Hash() {
			t.Fatalf("hash changed on re-indent: %s vs %s", req.Hash(), again.Hash())
		}
	})
}
