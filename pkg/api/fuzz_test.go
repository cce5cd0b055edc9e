package api

// A fuzz target for grid substitution. `make fuzz` runs it for FUZZTIME;
// the seed corpus (the service's sweep request bodies, plus any crasher
// checked in under testdata/fuzz) also runs under plain `go test`.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzSetPath: substituting a number (Grid.Apply) or a string (SetString)
// at any path of any body never panics; an accepted substitution yields a
// document decodeTree accepts; and the value reads back at its path.
func FuzzSetPath(f *testing.F) {
	files, err := filepath.Glob("../../internal/service/testdata/sweep*_req.json")
	if err != nil || len(files) == 0 {
		f.Fatalf("no sweep request bodies to seed from (%v)", err)
	}
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		var req struct {
			Base     json.RawMessage `json:"base"`
			Grid     Grid            `json:"grid"`
			Policies []string        `json:"policies"`
		}
		if err := json.Unmarshal(raw, &req); err != nil {
			f.Fatalf("%s: %v", file, err)
		}
		var env struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(req.Base, &env); err != nil {
			f.Fatalf("%s: %v", file, err)
		}
		for _, a := range req.Grid.Axes {
			f.Add([]byte(req.Base), a.Path, a.Values[0], "")
		}
		f.Add([]byte(req.Base), env.Kind+".policy", 0.0, req.Policies[len(req.Policies)-1])
	}
	f.Fuzz(func(t *testing.T, base []byte, path string, num float64, str string) {
		g := Grid{Axes: []Axis{{Path: path, Values: []float64{num}}}}
		if out, err := g.Apply(base, []float64{num}); err == nil {
			checkReadBack(t, out, path, json.Number(strconv.FormatFloat(num, 'g', -1, 64)))
		}
		if out, err := SetString(base, path, str); err == nil {
			checkReadBack(t, out, path, str)
		}
	})
}

// checkReadBack requires out to decode and to hold want at path. JSON text
// carries only UTF-8, so encoding replaces invalid bytes in a key or
// string; the read-back check is skipped for those.
func checkReadBack(t *testing.T, out []byte, path string, want any) {
	t.Helper()
	doc, err := decodeTree(out)
	if err != nil {
		t.Fatalf("substituted document rejected: %v\n%s", err, out)
	}
	if s, ok := want.(string); !utf8.ValidString(path) || ok && !utf8.ValidString(s) {
		return
	}
	for _, seg := range strings.Split(path, ".") {
		switch n := doc.(type) {
		case map[string]any:
			doc = n[seg]
		case []any:
			i, err := strconv.Atoi(seg)
			if err != nil || i < 0 || i >= len(n) {
				t.Fatalf("segment %q does not index %s", seg, out)
			}
			doc = n[i]
		default:
			t.Fatalf("segment %q descends into a leaf of %s", seg, out)
		}
	}
	if doc != want {
		t.Fatalf("%q reads back %#v, want %#v\n%s", path, doc, want, out)
	}
}
