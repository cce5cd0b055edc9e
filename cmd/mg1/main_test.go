package main

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"
)

func TestClassListSet(t *testing.T) {
	var cl classList
	if err := cl.Set("0.3:0.5:4"); err != nil {
		t.Fatal(err)
	}
	if len(cl) != 1 {
		t.Fatalf("classes = %d", len(cl))
	}
	c := cl[0]
	if c.Rate != 0.3 || c.HoldCost != 4 {
		t.Fatalf("parsed %+v", c)
	}
	if math.Abs(c.ServiceMean-0.5) > 1e-12 {
		t.Fatalf("service mean %v, want 0.5", c.ServiceMean)
	}

	// The strict spec parser rejects what the old Sscanf-based parser let
	// through: negative/zero rates and means, negative costs, extra fields,
	// and trailing garbage.
	bad := []string{
		"bogus",
		"1:2",
		"1:2:3:4",
		"-0.3:0.5:4",
		"0:0.5:4",
		"0.3:-0.5:4",
		"0.3:0:4",
		"0.3:0.5:-4",
		"0.3:0.5:4x",
	}
	for _, v := range bad {
		if err := cl.Set(v); err == nil {
			t.Errorf("malformed class %q accepted", v)
		}
	}
	if len(cl) != 1 {
		t.Fatalf("rejected specs were appended: %d classes", len(cl))
	}
}

func TestParseClass(t *testing.T) {
	c, err := parseClass("0.3:0.5:4")
	if err != nil {
		t.Fatal(err)
	}
	if c.Rate != 0.3 || c.ServiceMean != 0.5 || c.HoldCost != 4 {
		t.Fatalf("parsed %+v", c)
	}
	bad := []string{
		"", "bogus", "1:2", "1:2:3:4",
		"-1:2:3",  // negative rate
		"0:2:3",   // zero rate
		"1:-2:3",  // negative mean
		"1:0:3",   // zero mean
		"1:2:-3",  // negative cost
		"1:2:3x",  // trailing garbage
		"1:two:3", // non-numeric
		"1:2:",    // empty field
		"NaN:2:3", // non-finite rate
		"1:Inf:3", // non-finite mean
	}
	for _, v := range bad {
		_, err := parseClass(v)
		if err == nil {
			t.Errorf("parseClass(%q) accepted", v)
			continue
		}
		// Errors echo the offending spec for CLI usability.
		if v != "" && !strings.Contains(err.Error(), v) {
			t.Errorf("parseClass(%q) error %q does not mention input", v, err)
		}
	}
}

// TestRunDefaults runs the command at its default flags (with a short
// horizon): the default replication count must be one the service accepts.
func TestRunDefaults(t *testing.T) {
	for _, policy := range []string{"cmu", "fifo"} {
		var out bytes.Buffer
		if err := run([]string{"-horizon", "2000", "-policy", policy}, &out); err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if !strings.Contains(out.String(), "policy "+policy) || !strings.Contains(out.String(), "holding-cost rate: sim") {
			t.Errorf("%s: output\n%s", policy, out.String())
		}
	}
	if err := run([]string{"-replications", "1"}, io.Discard); err == nil {
		t.Error("one replication accepted")
	}
}
