package battery_test

import (
	"errors"
	"testing"

	"battsched/internal/battery"
	_ "battsched/internal/battery/diffusion"
	_ "battsched/internal/battery/kibam"
	_ "battsched/internal/battery/peukert"
	"battsched/internal/battery/stochastic"
	"battsched/internal/profile"
)

// steppedModel exposes only battery.Model of the model it wraps, so the
// driver takes the stepped path for it.
type steppedModel struct{ battery.Model }

// batchTestModels builds a mixed batch: every registered model (analytic
// path, staggered death times), the default stochastic model behind
// steppedModel (stepped path), a slot-exact stochastic instance, a duplicate
// of the first registered model (duplicates must not interfere), and the
// stepped instance again as the same pointer (a repeated instance must not
// be drained twice per step).
func batchTestModels(t *testing.T) []battery.Model {
	t.Helper()
	var models []battery.Model
	for _, name := range battery.Names() {
		m, err := battery.New(name)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	stepped := &steppedModel{stochastic.Default()}
	models = append(models, stepped)
	se := stochastic.Default().Params()
	se.ExpectedStep = stochastic.SlotDuration
	seb, err := stochastic.New(se)
	if err != nil {
		t.Fatal(err)
	}
	models = append(models, seb)
	first, err := battery.New(battery.Names()[0])
	if err != nil {
		t.Fatal(err)
	}
	return append(models, first, stepped)
}

// TestSimulateBatchMatchesSequential is the batch equivalence property:
// SimulateBatch is bit-identical to N sequential SimulateUntilExhausted
// calls, across path mixes (analytic + stepped), staggered deaths, horizon
// caps, forced stepping, repeated instances and batch sizes including 1.
func TestSimulateBatchMatchesSequential(t *testing.T) {
	long := profile.New()
	long.Append(33.4, 1.2)
	long.Append(21.7, 0.4)
	long.Append(5.1, 0.01)
	short := profile.New()
	short.Append(0.7, 2.0)
	short.Append(1.3, 0.05)

	cases := []struct {
		name string
		p    *profile.Profile
		opts battery.SimulateOptions
	}{
		{"default", long, battery.SimulateOptions{}},
		{"horizon-survivors", long, battery.SimulateOptions{MaxTime: 1800}},
		{"horizon-mid-segment", long, battery.SimulateOptions{MaxTime: 40}},
		{"forced-stepped", long, battery.SimulateOptions{MaxStep: 2}},
		{"short-profile", short, battery.SimulateOptions{MaxTime: 7200}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			models := batchTestModels(t)
			// Sequential reference first; Reset (run by every simulation)
			// restores each instance, so the same instances then go through
			// the batch and must reproduce the same bits.
			want := make([]battery.Result, len(models))
			for i, m := range models {
				r, err := battery.SimulateUntilExhausted(m, tc.p, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = r
			}
			for _, batch := range [][]battery.Model{models, models[:1], models[2:3], models[len(models)-2 : len(models)-1]} {
				got, err := battery.SimulateBatch(batch, tc.p, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				for i, m := range batch {
					wi := 0
					for j := range models {
						if models[j] == m {
							wi = j
							break
						}
					}
					if got[i] != want[wi] {
						t.Errorf("model %d (%s): batch %+v != sequential %+v", i, m.Name(), got[i], want[wi])
					}
				}
			}
			// Instance reuse: a second batch over the same instances must
			// reproduce the same bits again.
			again, err := battery.SimulateBatch(models, tc.p, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := range models {
				if again[i] != want[i] {
					t.Errorf("model %d (%s): reused-instance batch %+v != first run %+v", i, models[i].Name(), again[i], want[i])
				}
			}
		})
	}
}

// TestSimulateBatchErrors pins the batch error contract: nil models are
// rejected with their index and bad profiles are rejected, while a model that
// sustains only part of each step it survives is no error: next to a
// registered model on the same stepped path, the batch matches their
// sequential runs.
func TestSimulateBatchErrors(t *testing.T) {
	p := profile.Constant(0.5, 2)
	if _, err := battery.SimulateBatch([]battery.Model{nil}, p, battery.SimulateOptions{}); !errors.Is(err, battery.ErrNilModel) {
		t.Fatalf("nil model: err = %v, want ErrNilModel", err)
	}
	m, err := battery.New("kibam")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := battery.SimulateBatch([]battery.Model{m}, profile.New(), battery.SimulateOptions{}); !errors.Is(err, battery.ErrBadProfile) {
		t.Fatalf("empty profile: err = %v, want ErrBadProfile", err)
	}
	opts := battery.SimulateOptions{MaxTime: 10, MaxStep: 1}
	models := []battery.Model{&quantumModel{quantum: 0.3, capacity: 1e9}, m}
	want := make([]battery.Result, len(models))
	for i, model := range models {
		if want[i], err = battery.SimulateUntilExhausted(model, p, opts); err != nil {
			t.Fatal(err)
		}
	}
	got, err := battery.SimulateBatch(models, p, opts)
	if err != nil {
		t.Fatalf("under-sustaining model: %v", err)
	}
	for i := range models {
		if got[i] != want[i] {
			t.Errorf("model %d (%s): batch %+v != sequential %+v", i, models[i].Name(), got[i], want[i])
		}
	}
}

// TestSimulateBatchEmpty: a zero-model batch is a valid no-op.
func TestSimulateBatchEmpty(t *testing.T) {
	rs, err := battery.SimulateBatch(nil, profile.Constant(1, 10), battery.SimulateOptions{})
	if err != nil || len(rs) != 0 {
		t.Fatalf("empty batch: got %v, %v", rs, err)
	}
}

// TestSimulateBatchSharedClockNarrows checks staggered deaths on the stepped
// path: two capacity-scaled copies of the stochastic model behind
// steppedModel die at different times, and both must report the same
// lifetime and repetition count in a batch as in their sequential runs.
func TestSimulateBatchSharedClockNarrows(t *testing.T) {
	mk := func(scale float64) battery.Model {
		ps := stochastic.Default().Params()
		ps.MaxCoulombs *= scale
		ps.NominalCoulombs *= scale
		b, err := stochastic.New(ps)
		if err != nil {
			t.Fatal(err)
		}
		return &steppedModel{b}
	}
	p := profile.Constant(1.5, 30)
	small, big := mk(0.25), mk(1)
	rSmall, err := battery.SimulateUntilExhausted(small, p, battery.SimulateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rBig, err := battery.SimulateUntilExhausted(big, p, battery.SimulateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rSmall.Exhausted || !rBig.Exhausted || rSmall.Lifetime >= rBig.Lifetime {
		t.Fatalf("want staggered deaths, got %+v and %+v", rSmall, rBig)
	}
	got, err := battery.SimulateBatch([]battery.Model{small, big}, p, battery.SimulateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != rSmall || got[1] != rBig {
		t.Fatalf("batch %+v, want [%+v %+v]", got, rSmall, rBig)
	}
}
