package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"battsched/internal/battery"
)

func TestRunConstantLoad(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-current", "1.5", "-battery", "kibam"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "kibam") || !strings.Contains(out, "lifetime=") {
		t.Fatalf("output unexpected:\n%s", out)
	}
}

func TestRunMaxStepForcesSteppedPath(t *testing.T) {
	var analytic, stepped bytes.Buffer
	if err := run([]string{"-current", "1.5", "-battery", "kibam"}, &analytic); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-current", "1.5", "-battery", "kibam", "-maxstep", "2"}, &stepped); err != nil {
		t.Fatal(err)
	}
	// Both paths simulate the same physics: the one-decimal lifetime report
	// must agree.
	if analytic.String() != stepped.String() {
		t.Fatalf("analytic and stepped reports differ:\n%s\nvs\n%s", analytic.String(), stepped.String())
	}
}

func TestRunProfileCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.csv")
	csv := "start_s,duration_s,current_a\n0,30,1.2\n30,30,0.2\n"
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-profile", path, "-battery", "stochastic"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "delivered=") {
		t.Fatalf("output unexpected:\n%s", buf.String())
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	cases := [][]string{
		{}, // neither profile nor current
		{"-current", "1", "-battery", "bogus"},
		{"-profile", "/nonexistent.csv"},
		{"-bogusflag"},
		{"-curve"}, // the curve is `experiments run curve`
	}
	for _, args := range cases {
		if err := run(args, &buf); err == nil {
			t.Fatalf("args %v: expected error", args)
		}
	}
	// A substep that selects no simulation path is refused by the battery
	// rule; -1 once ran the analytic path, as 0 does.
	for _, step := range []string{"-1", "NaN", "Inf"} {
		buf.Reset()
		err := run([]string{"-current", "1", "-battery", "kibam", "-maxstep", step}, &buf)
		if !errors.Is(err, battery.ErrBadStep) || buf.Len() > 0 {
			t.Fatalf("-maxstep %s: err = %v, printed %q; want battery.ErrBadStep before any output", step, err, buf.String())
		}
	}
}
