package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// serviceTestdata holds the daemon's request bodies and golden responses.
const serviceTestdata = "../../internal/service/testdata"

// TestIndexMatchesGoldens: `stochsched index -f` answers every /v1/index
// request body of the service goldens byte for byte as POST /v1/index does.
func TestIndexMatchesGoldens(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens are amd64-exact; running on %s", runtime.GOARCH)
	}
	for _, tc := range []struct{ req, golden string }{
		{"index", "gittins"},
		{"whittle", "whittle"},
		{"priority", "priority"},
		{"jackson_index", "jackson_index"},
		{"mdp_index", "mdp_index"},
	} {
		want, err := os.ReadFile(filepath.Join(serviceTestdata, tc.golden+"_golden.json"))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if code := runIndex([]string{"-f", filepath.Join(serviceTestdata, tc.req+"_req.json")}, &out); code != 0 {
			t.Errorf("%s: exit %d", tc.req, code)
			continue
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%s drifted from %s_golden.json:\ngot  %s\nwant %s", tc.req, tc.golden, out.Bytes(), want)
		}
	}
}

// TestIndexRejectsBadRequests: unreadable files and bodies /v1/index
// rejects exit 1 with nothing on stdout.
func TestIndexRejectsBadRequests(t *testing.T) {
	dir := t.TempDir()
	args := [][]string{{"-f", filepath.Join(dir, "missing.json")}}
	for i, body := range []string{
		`not json`,
		`{"kind":"nope"}`,
		`{"kind":"bandit","bandit":{"beta":1.5,"transitions":[[1]],"rewards":[1]}}`,
		`{"kind":"bandit","bandit":{"beta":0.9,"transitions":[[0.5,0.4],[0,1]],"rewards":[1,0]}}`,
		`{"kind":"bandit","bandit":{"beta":0.9,"transitions":[[1,0],[0,1]],"rewards":[0.7,0.2]}}}`,
	} {
		path := filepath.Join(dir, fmt.Sprintf("req%d.json", i))
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		args = append(args, []string{"-f", path})
	}
	for _, a := range args {
		var out bytes.Buffer
		if code := runIndex(a, &out); code != 1 || out.Len() != 0 {
			body, _ := os.ReadFile(a[1])
			t.Errorf("%s: exit %d, stdout %q; want exit 1 and no output", body, code, out.Bytes())
		}
	}
	// The last body without its stray '}' is accepted.
	path := filepath.Join(dir, "ok.json")
	ok := `{"kind":"bandit","bandit":{"beta":0.9,"transitions":[[1,0],[0,1]],"rewards":[0.7,0.2]}}`
	if err := os.WriteFile(path, []byte(ok), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := runIndex([]string{"-f", path}, io.Discard); code != 0 {
		t.Errorf("valid body: exit %d", code)
	}
}
