package battery_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"battsched/internal/battery"
	_ "battsched/internal/battery/diffusion"
	_ "battsched/internal/battery/kibam"
	_ "battsched/internal/battery/peukert"
	_ "battsched/internal/battery/stochastic"
)

// TestRegistryNames checks that importing the model sub-packages registers
// all four paper models under their canonical names, sorted.
func TestRegistryNames(t *testing.T) {
	want := []string{"diffusion", "kibam", "peukert", "stochastic"}
	if got := battery.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
}

// TestRegistryNew checks that New returns fresh, working instances.
func TestRegistryNew(t *testing.T) {
	for _, name := range battery.Names() {
		a, err := battery.New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if a.Name() != name {
			t.Fatalf("New(%q).Name() = %q", name, a.Name())
		}
		if a.MaxCapacity() <= 0 {
			t.Fatalf("New(%q): bad model", name)
		}
		b, err := battery.New(name)
		if err != nil {
			t.Fatal(err)
		}
		if a == b {
			t.Fatalf("New(%q) returned a shared instance", name)
		}
	}
}

// TestRegistryUnknown checks the error contract: unknown names report
// ErrUnknownModel and list every registered name, so CLI users see the valid
// choices instead of a silent default.
func TestRegistryUnknown(t *testing.T) {
	if _, err := battery.Factory("bogus"); !errors.Is(err, battery.ErrUnknownModel) {
		t.Fatalf("Factory err = %v, want ErrUnknownModel", err)
	}
	_, err := battery.New("bogus")
	if !errors.Is(err, battery.ErrUnknownModel) {
		t.Fatalf("err = %v, want ErrUnknownModel", err)
	}
	for _, name := range battery.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list registered model %q", err, name)
		}
	}
}

// TestRegisterPanics pins the registration misuse contracts.
func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("empty name", func() { battery.Register("", func() battery.Model { return nil }) })
	mustPanic("nil factory", func() { battery.Register("x-nil", nil) })
	mustPanic("duplicate", func() { battery.Register("kibam", func() battery.Model { return nil }) })
}
