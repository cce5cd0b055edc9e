// Command bench2json converts `go test -bench` output on stdin into a JSON
// array on stdout, one object per benchmark line:
//
//	go test -run '^$' -bench BenchmarkEngineReplications -benchmem . | bench2json
//
// Each object carries the benchmark name, GOMAXPROCS suffix, iteration
// count, ns/op, and (when -benchmem is on) B/op and allocs/op. `make bench`
// uses it to emit BENCH_engine.json, the machine-readable record of the
// engine's performance trajectory across PRs.
//
// Repeated measurements of one benchmark (`go test -count N`) are folded to
// their per-benchmark minimum in both modes — the best run is the least
// noisy estimate of the code's cost, which keeps baselines and the gate
// comparable on loaded machines.
//
// With -check BASELINE.json it becomes the regression gate `make
// bench-check` runs: instead of emitting JSON it compares the measurements
// on stdin against the checked-in baseline and exits 1 when any benchmark
// regresses more than -tolerance percent in ns/op or bytes/op, or when no
// measurement matches a baseline entry at all (a run at another GOMAXPROCS
// than the baseline's, say, so nothing was compared).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Entry is one benchmark measurement.
type Entry struct {
	Name        string  `json:"name"`
	Procs       int     `json:"procs"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  *int64  `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64  `json:"allocs_per_op,omitempty"`
}

func main() {
	checkPath := flag.String("check", "", "baseline JSON to compare stdin against; exit 1 on regression")
	tolerance := flag.Float64("tolerance", 15, "allowed ns/op and bytes/op regression, percent (with -check)")
	flag.Parse()

	entries, err := parseBench(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		os.Exit(1)
	}
	if *checkPath == "" {
		folded, order := best(entries)
		out := make([]Entry, 0, len(order))
		for _, k := range order {
			out = append(out, folded[k])
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "bench2json:", err)
			os.Exit(1)
		}
		return
	}

	raw, err := os.ReadFile(*checkPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		os.Exit(1)
	}
	var baseline []Entry
	if err := json.Unmarshal(raw, &baseline); err != nil {
		fmt.Fprintf(os.Stderr, "bench2json: decoding %s: %v\n", *checkPath, err)
		os.Exit(1)
	}
	if !check(os.Stdout, baseline, entries, *tolerance) {
		os.Exit(1)
	}
}

// parseBench extracts benchmark entries from `go test -bench` output.
func parseBench(r io.Reader) ([]Entry, error) {
	entries := []Entry{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || fields[3] != "ns/op" {
			continue
		}
		e := Entry{Name: fields[0], Procs: 1}
		if i := strings.LastIndex(fields[0], "-"); i >= 0 {
			if p, err := strconv.Atoi(fields[0][i+1:]); err == nil {
				e.Name, e.Procs = fields[0][:i], p
			}
		}
		var err error
		if e.Iterations, err = strconv.ParseInt(fields[1], 10, 64); err != nil {
			continue
		}
		if e.NsPerOp, err = strconv.ParseFloat(fields[2], 64); err != nil {
			continue
		}
		for i := 4; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseInt(fields[i], 10, 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "B/op":
				e.BytesPerOp = &v
			case "allocs/op":
				e.AllocsPerOp = &v
			}
		}
		entries = append(entries, e)
	}
	return entries, sc.Err()
}

// benchKey identifies one benchmark across runs.
type benchKey struct {
	name  string
	procs int
}

// best folds repeated measurements to the per-benchmark minimum, keeping
// insertion order of first appearance.
func best(entries []Entry) (map[benchKey]Entry, []benchKey) {
	out := map[benchKey]Entry{}
	var order []benchKey
	for _, e := range entries {
		k := benchKey{e.Name, e.Procs}
		cur, seen := out[k]
		if !seen {
			out[k] = e
			order = append(order, k)
			continue
		}
		if e.NsPerOp < cur.NsPerOp {
			cur.NsPerOp = e.NsPerOp
		}
		if e.BytesPerOp != nil && (cur.BytesPerOp == nil || *e.BytesPerOp < *cur.BytesPerOp) {
			cur.BytesPerOp = e.BytesPerOp
		}
		if e.AllocsPerOp != nil && (cur.AllocsPerOp == nil || *e.AllocsPerOp < *cur.AllocsPerOp) {
			cur.AllocsPerOp = e.AllocsPerOp
		}
		if e.Iterations > cur.Iterations {
			cur.Iterations = e.Iterations
		}
		out[k] = cur
	}
	return out, order
}

// check compares the current measurements against the baseline and reports
// one line per benchmark. It returns false when any benchmark present in
// both regresses beyond tolerance percent on ns/op or bytes/op, or when no
// benchmark is present in both; benchmarks new to the baseline (or missing
// from this run) are reported but pass.
func check(w io.Writer, baseline, current []Entry, tolerance float64) bool {
	base, _ := best(baseline)
	cur, order := best(current)
	if len(order) == 0 {
		fmt.Fprintln(w, "bench2json: no benchmark lines on stdin")
		return false
	}
	delta := func(b, c float64) float64 {
		if b == 0 {
			return 0
		}
		return (c - b) / b * 100
	}
	ok := true
	compared := 0
	for _, k := range order {
		c := cur[k]
		b, seen := base[k]
		if !seen {
			fmt.Fprintf(w, "NEW   %s-%d: %.0f ns/op (no baseline entry)\n", k.name, k.procs, c.NsPerOp)
			continue
		}
		compared++
		nsDelta := delta(b.NsPerOp, c.NsPerOp)
		line := fmt.Sprintf("%s-%d: ns/op %.0f -> %.0f (%+.1f%%)", k.name, k.procs, b.NsPerOp, c.NsPerOp, nsDelta)
		bad := nsDelta > tolerance
		if b.BytesPerOp != nil && c.BytesPerOp != nil {
			byDelta := delta(float64(*b.BytesPerOp), float64(*c.BytesPerOp))
			line += fmt.Sprintf(", B/op %d -> %d (%+.1f%%)", *b.BytesPerOp, *c.BytesPerOp, byDelta)
			bad = bad || byDelta > tolerance
		}
		if bad {
			ok = false
			fmt.Fprintf(w, "FAIL  %s exceeds %.0f%% tolerance\n", line, tolerance)
		} else {
			fmt.Fprintf(w, "ok    %s\n", line)
		}
	}
	if compared == 0 {
		fmt.Fprintln(w, "bench2json: no benchmark matches a baseline entry (name and procs); nothing was compared")
		return false
	}
	return ok
}
