package main

import (
	"strings"
	"testing"
)

const benchOut = `
goos: linux
BenchmarkEngineReplications/parallel=1     100     5000000 ns/op   400000 B/op   100 allocs/op
BenchmarkEngineReplications/parallel=4     100     4000000 ns/op   450000 B/op   110 allocs/op
BenchmarkEngineReplications/parallel=1     100     5500000 ns/op   400000 B/op   100 allocs/op
PASS
`

func TestParseBench(t *testing.T) {
	entries, err := parseBench(strings.NewReader(benchOut))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("parsed %d entries", len(entries))
	}
	e := entries[0]
	if e.Name != "BenchmarkEngineReplications/parallel=1" || e.Procs != 1 ||
		e.NsPerOp != 5e6 || *e.BytesPerOp != 400000 || *e.AllocsPerOp != 100 {
		t.Errorf("entry %+v", e)
	}
}

func TestBestTakesMinimumAcrossCounts(t *testing.T) {
	entries, _ := parseBench(strings.NewReader(benchOut))
	folded, order := best(entries)
	if len(order) != 2 {
		t.Fatalf("folded to %d keys", len(order))
	}
	if got := folded[benchKey{"BenchmarkEngineReplications/parallel=1", 1}]; got.NsPerOp != 5e6 {
		t.Errorf("min ns/op %v, want 5e6", got.NsPerOp)
	}
}

func checkAgainst(t *testing.T, baseNs float64, baseBytes int64, curOut string, tol float64) (bool, string) {
	t.Helper()
	baseline := []Entry{{Name: "BenchmarkX", Procs: 1, NsPerOp: baseNs, BytesPerOp: &baseBytes}}
	current, err := parseBench(strings.NewReader(curOut))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	ok := check(&sb, baseline, current, tol)
	return ok, sb.String()
}

func TestCheckPassesWithinTolerance(t *testing.T) {
	ok, out := checkAgainst(t, 1000, 500, "BenchmarkX 10 1100 ns/op 540 B/op 3 allocs/op\n", 15)
	if !ok {
		t.Errorf("10%%/8%% drift failed the 15%% gate:\n%s", out)
	}
}

func TestCheckFailsOnNsRegression(t *testing.T) {
	ok, out := checkAgainst(t, 1000, 500, "BenchmarkX 10 1200 ns/op 500 B/op 3 allocs/op\n", 15)
	if ok || !strings.Contains(out, "FAIL") {
		t.Errorf("20%% ns/op regression passed:\n%s", out)
	}
}

func TestCheckFailsOnBytesRegression(t *testing.T) {
	ok, out := checkAgainst(t, 1000, 500, "BenchmarkX 10 900 ns/op 700 B/op 3 allocs/op\n", 15)
	if ok || !strings.Contains(out, "FAIL") {
		t.Errorf("40%% B/op regression passed:\n%s", out)
	}
}

func TestCheckToleratesNewBenchmarks(t *testing.T) {
	ok, out := checkAgainst(t, 1000, 500,
		"BenchmarkX 10 990 ns/op 500 B/op 3 allocs/op\nBenchmarkY 10 1 ns/op\n", 15)
	if !ok || !strings.Contains(out, "NEW") {
		t.Errorf("new benchmark handling:\n%s", out)
	}
}

func TestCheckFailsOnEmptyInput(t *testing.T) {
	if ok, _ := checkAgainst(t, 1000, 500, "no benchmarks here\n", 15); ok {
		t.Error("empty benchmark run passed the gate")
	}
}

// TestCheckFailsWhenNothingMatches: a run whose entries all miss the
// baseline — here at GOMAXPROCS 2 against a procs-1 baseline — compares
// nothing and must fail instead of passing on NEW lines alone.
func TestCheckFailsWhenNothingMatches(t *testing.T) {
	ok, out := checkAgainst(t, 1000, 500, "BenchmarkX-2 10 990 ns/op 500 B/op 3 allocs/op\n", 15)
	if ok || !strings.Contains(out, "nothing was compared") {
		t.Errorf("run with no baseline match passed the gate:\n%s", out)
	}
}
