package experiments

import (
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"stochsched/internal/engine"
)

// quickGolden is the whole quick suite at seed 7, as `stochsched -run all
// -quick -seed 7` prints it. Regenerate it after an intentional change to
// a table with REGEN=1 go test -run TestAllExperimentsRunQuick
// ./internal/experiments.
var quickGolden = filepath.Join("testdata", "quick_seed7.txt")

// TestAllExperimentsRunQuick executes the entire suite in quick mode on a
// GOMAXPROCS-sized pool, sanity-checks every table, and compares the
// rendered suite with quickGolden, so a change to any solver or simulator
// that moves a reproduced figure fails here.
func TestAllExperimentsRunQuick(t *testing.T) {
	var tabs []*Table
	var out strings.Builder
	cfg := Config{Seed: 7, Quick: true, Pool: engine.NewPool(runtime.GOMAXPROCS(0))}
	if err := RunAll(cfg, nil, func(tab *Table) {
		tabs = append(tabs, tab)
		out.WriteString(tab.String())
		out.WriteByte('\n')
	}); err != nil {
		t.Fatal(err)
	}
	for i, e := range All() {
		tab := tabs[i]
		t.Run(e.ID, func(t *testing.T) {
			if tab.ID != e.ID {
				t.Fatalf("table ID %q, want %q", tab.ID, e.ID)
			}
			if len(tab.Rows) == 0 {
				t.Fatalf("%s produced no rows", e.ID)
			}
			for i, row := range tab.Rows {
				if len(row) != len(tab.Columns) {
					t.Fatalf("%s row %d has %d cells, want %d", e.ID, i, len(row), len(tab.Columns))
				}
			}
			out := tab.String()
			if !strings.Contains(out, e.ID) || !strings.Contains(out, tab.Columns[0]) {
				t.Fatalf("%s rendering incomplete:\n%s", e.ID, out)
			}
		})
	}
	if os.Getenv("REGEN") == "1" {
		if err := os.WriteFile(quickGolden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if runtime.GOARCH != "amd64" {
		// Go may contract floating-point expressions (FMA) on other
		// architectures, shifting last-ulp digits; the golden is
		// byte-exact amd64 output.
		t.Skipf("quick-suite golden is amd64-exact; running on %s", runtime.GOARCH)
	}
	want, err := os.ReadFile(quickGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Fatalf("quick suite at seed 7 differs from %s:\n%s", quickGolden, firstDiff(got, string(want)))
	}
}

// firstDiff reports the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return "line " + strconv.Itoa(i+1) + ":\n got  " + g[i] + "\n want " + w[i]
		}
	}
	return "line counts differ: got " + strconv.Itoa(len(g)) + ", want " + strconv.Itoa(len(w))
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 28 {
		t.Fatalf("registry has %d experiments, want 28", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Title == "" || e.Ref == "" {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
	if _, err := Get("E09"); err != nil {
		t.Fatal(err)
	}
	if _, err := Get("E99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestDeterministicAcrossRuns verifies that equal seeds reproduce identical
// tables (the reproducibility contract).
func TestDeterministicAcrossRuns(t *testing.T) {
	for _, id := range []string{"E01", "E03", "E09", "E14", "E20"} {
		e, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		a, err := e.Run(Config{Seed: 42, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		b, err := e.Run(Config{Seed: 42, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Fatalf("%s not deterministic under equal seeds", id)
		}
	}
}
