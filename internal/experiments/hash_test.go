package experiments

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestCanonicalSpecCoversTheWire walks Spec's fields, the embedded
// RunOptions' included. Every field with a JSON name, which makes it part of
// the service's wire form, must have a "<name>=" line in CanonicalSpec and
// move SpecHash; every json:"-" field must move neither. A wire field without
// a hash line would serve one cached artifact for two specs.
func TestCanonicalSpecCoversTheWire(t *testing.T) {
	base := Spec{RunOptions: RunOptions{TargetCI: 0.1}} // MaxSets counts only with a target
	enc, hash := "\n"+CanonicalSpec("table2", base), SpecHash("table2", base)
	wire := 0
	var walk func(typ reflect.Type, index []int)
	walk = func(typ reflect.Type, index []int) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			at := append(append([]int(nil), index...), i)
			tag := f.Tag.Get("json")
			if f.Anonymous && tag == "" {
				walk(f.Type, at)
				continue
			}
			spec := base
			perturb(t, reflect.ValueOf(&spec).Elem().FieldByIndex(at))
			moved := SpecHash("table2", spec) != hash
			name, _, _ := strings.Cut(tag, ",")
			if name == "-" {
				if moved || CanonicalSpec("table2", spec) != CanonicalSpec("table2", base) {
					t.Errorf("execution-only field %s moves the canonical encoding", f.Name)
				}
				continue
			}
			if name == "" {
				name = f.Name
			}
			wire++
			if !strings.Contains(enc, "\n"+name+"=") || !moved {
				t.Errorf("wire field %s (%q) has no %q line in the canonical encoding, or does not move the hash (moved: %v)", f.Name, name, name+"=", moved)
			}
		}
	}
	walk(reflect.TypeOf(base), nil)
	if wire != 10 {
		t.Errorf("found %d wire fields, want the 10 of the service's wire form", wire)
	}
}

// perturb sets v to a value other than its current one.
func perturb(t *testing.T, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 7)
	case reflect.Float64:
		v.SetFloat(v.Float() + 0.25)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Func:
		v.Set(reflect.MakeFunc(v.Type(), func([]reflect.Value) []reflect.Value { return nil }))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			perturb(t, v.Field(i))
		}
	default:
		t.Fatalf("perturb: unhandled kind %s", v.Kind())
	}
}

// TestCanonicalSpecNormalisation pins the default-equivalence rules: seed 0
// and the default seed 1 share an encoding, the MaxSets cap is inert without
// TargetCI, a negative-zero float encodes as 0, and execution-only knobs
// never change the address.
func TestCanonicalSpecNormalisation(t *testing.T) {
	base := Spec{Quick: true, Battery: "kibam"}
	same := []Spec{
		{Quick: true, Battery: "kibam", Seed: 1},
		{Quick: true, Battery: "kibam", RunOptions: RunOptions{MaxSets: 40}},
		{Quick: true, Battery: "kibam", RunOptions: RunOptions{Parallel: 7}},
		{Quick: true, Battery: "kibam", RunOptions: RunOptions{Progress: func(int, int) {}}},
		{Quick: true, Battery: "kibam", RunOptions: RunOptions{Shard: Shard{Index: 1, Count: 4}}},
		{Quick: true, Battery: "kibam", Utilization: math.Copysign(0, -1), MaxStep: math.Copysign(0, -1),
			RunOptions: RunOptions{TargetCI: math.Copysign(0, -1)}},
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

// TestShardSpecHash pins the partial content address: distinct per shard,
// equal for equal (spec, shard), and the disabled shard collapses to the
// complete run's SpecHash.
func TestShardSpecHash(t *testing.T) {
	spec := Spec{Quick: true, Battery: "kibam"}
	full := SpecHash("table2", spec)
	if got := ShardSpecHash("table2", spec, Shard{}); got != full {
		t.Fatalf("unsharded ShardSpecHash = %s, want SpecHash %s", got, full)
	}
	seen := map[string]bool{full: true}
	for i := 0; i < 4; i++ {
		h := ShardSpecHash("table2", spec, Shard{Index: i, Count: 4})
		if seen[h] {
			t.Fatalf("shard %d/4 hash collides", i)
		}
		seen[h] = true
		if h != ShardSpecHash("table2", spec, Shard{Index: i, Count: 4}) {
			t.Fatal("ShardSpecHash not deterministic")
		}
	}
	if ShardSpecHash("table2", spec, Shard{Index: 0, Count: 4}) == ShardSpecHash("table2", spec, Shard{Index: 0, Count: 2}) {
		t.Fatal("shard 0/4 and 0/2 share a hash")
	}
}

// TestNegativeZeroSpecRunsAsZero pins that Run reads a negative-zero float
// as 0, so the report matches the address CanonicalSpec gives both. The
// daemon's JSON wire spec drops the sign of a zero: without this, a -0
// submission hashed and ran one way, and its journal replay (or the worker
// its units went to) another.
func TestNegativeZeroSpecRunsAsZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	artifact := func(spec Spec) []byte {
		rep, err := Run(context.Background(), "curve", spec)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := WriteArtifact(&b, []*Report{rep}); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	zero := artifact(Spec{Quick: true, Battery: "kibam"})
	neg := artifact(Spec{Quick: true, Battery: "kibam", MaxStep: negZero, RunOptions: RunOptions{TargetCI: negZero}})
	if !bytes.Equal(zero, neg) {
		t.Fatalf("a -0 spec reports\n%s\nand the 0 spec\n%s", neg, zero)
	}
}
