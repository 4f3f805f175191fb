package experiments

import (
	"strings"
	"testing"
)

// TestCanonicalSpecNormalisation pins the default-equivalence rules: seed 0
// and the default seed 1 share an encoding, the MaxSets cap is inert without
// TargetCI, and execution-only knobs never change the address.
func TestCanonicalSpecNormalisation(t *testing.T) {
	base := Spec{Quick: true, Battery: "kibam"}
	same := []Spec{
		{Quick: true, Battery: "kibam", Seed: 1},
		{Quick: true, Battery: "kibam", RunOptions: RunOptions{MaxSets: 40}},
		{Quick: true, Battery: "kibam", RunOptions: RunOptions{Parallel: 7}},
		{Quick: true, Battery: "kibam", RunOptions: RunOptions{Progress: func(int, int) {}}},
		{Quick: true, Battery: "kibam", RunOptions: RunOptions{Shard: Shard{Index: 1, Count: 4}}},
	}
	want := SpecHash("table2", base)
	for i, s := range same {
		if got := SpecHash("table2", s); got != want {
			t.Fatalf("spec %d: hash %s differs from base %s\nbase:\n%s\nspec:\n%s",
				i, got, want, CanonicalSpec("table2", base), CanonicalSpec("table2", s))
		}
	}
}

// TestSpecHashDistinguishesOutputs checks that every output-affecting field
// (and the experiment name) moves the hash.
func TestSpecHashDistinguishesOutputs(t *testing.T) {
	base := Spec{Quick: true, Battery: "kibam"}
	seen := map[string]string{"base": SpecHash("table2", base)}
	variants := map[string]Spec{
		"quick=false":  {Battery: "kibam"},
		"seed":         {Quick: true, Battery: "kibam", Seed: 7},
		"sets":         {Quick: true, Battery: "kibam", Sets: 9},
		"utilization":  {Quick: true, Battery: "kibam", Utilization: 0.5},
		"battery":      {Quick: true, Battery: "peukert"},
		"oracle":       {Quick: true, Battery: "kibam", Oracle: true},
		"ccedf":        {Quick: true, Battery: "kibam", CCEDF: true},
		"maxstep":      {Quick: true, Battery: "kibam", MaxStep: 2},
		"target_ci":    {Quick: true, Battery: "kibam", RunOptions: RunOptions{TargetCI: 0.01}},
		"ci+max_sets":  {Quick: true, Battery: "kibam", RunOptions: RunOptions{TargetCI: 0.01, MaxSets: 40}},
		"other driver": base, // hashed under a different experiment name below
	}
	for label, s := range variants {
		name := "table2"
		if label == "other driver" {
			name = "grid"
		}
		h := SpecHash(name, s)
		if len(h) != 64 || strings.Trim(h, "0123456789abcdef") != "" {
			t.Fatalf("%s: hash %q is not lowercase sha256 hex", label, h)
		}
		for prev, ph := range seen {
			if ph == h {
				t.Fatalf("%s collides with %s (%s)", label, prev, h)
			}
		}
		seen[label] = h
	}
}

// TestCanonicalSpecNamesBattery checks that the canonical encoding spells
// out the battery model, one of the inputs that determine the report bytes.
func TestCanonicalSpecNamesBattery(t *testing.T) {
	if enc := CanonicalSpec("table2", Spec{Quick: true, Battery: "kibam"}); !strings.Contains(enc, `battery="kibam"`) {
		t.Fatalf("canonical encoding = %q", enc)
	}
}
