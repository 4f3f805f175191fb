package experiments

import (
	"math"
	"testing"

	"battsched/internal/battery"
	"battsched/internal/profile"
	"battsched/internal/runner"
)

// quickTable2Profiles records the load profile of every (set, scheme) run of
// the quick Table 2 configuration, scheduled as table2ChunkJob schedules
// them. The evaluator reuses its recorder, so each profile is cloned before
// the next run.
func quickTable2Profiles(t *testing.T) []*profile.Profile {
	t.Helper()
	cfg := QuickTable2Config()
	factory, err := NamedBatteryFactory("kibam")
	if err != nil {
		t.Fatal(err)
	}
	ev := getEvaluator(defaultProcessor(), cfg.Hyperperiods, cfg.MaxBatteryHours, factory)
	defer ev.release()
	var out []*profile.Profile
	for set := 0; set < cfg.Sets; set++ {
		if err := ev.generate(runner.SeedFor(cfg.Seed, int64(set)), cfg.GraphsPerSet, cfg.Utilization); err != nil {
			t.Fatal(err)
		}
		for _, s := range paperSchemes(false) {
			res, _, err := ev.run(s.scheme)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res.Profile.Clone())
		}
	}
	return out
}

// TestClosedFormLifetimesMatchSegmentStepping is the driver-level pin of the
// closed-form repetition runs, and the gate of the golden regeneration that
// followed them: on every quick Table 2 profile (4 sets × 5 schemes) and the
// periodic bench profile, for every registered model, full lifetimes and
// horizon-capped runs through the default dispatch must match the same
// model with its operator hidden (wrapped in struct{ battery.SegmentDrainer },
// so the same driver steps every segment of every repetition): lifetime and
// delivered charge within 1e-9 relative, exhaustion and repetition count
// equal.
func TestClosedFormLifetimesMatchSegmentStepping(t *testing.T) {
	bench := profile.New()
	bench.Append(33.4, 1.2)
	bench.Append(21.7, 0.4)
	bench.Append(5.1, 0.01)
	profiles := append(quickTable2Profiles(t), bench)
	for _, name := range battery.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			m, err := battery.New(name)
			if err != nil {
				t.Fatal(err)
			}
			sd, ok := m.(battery.SegmentDrainer)
			if !ok {
				t.Fatalf("%s has no analytic path", name)
			}
			stepped := struct{ battery.SegmentDrainer }{sd}
			for i, p := range profiles {
				// 72 h is the Table 2 horizon; 1.5 h (plus an offset that is
				// no multiple of any period) caps every run before death.
				for _, maxTime := range []float64{72 * 3600, 5400.123} {
					opts := battery.SimulateOptions{MaxTime: maxTime}
					got, err := battery.SimulateUntilExhausted(m, p, opts)
					if err != nil {
						t.Fatal(err)
					}
					want, err := battery.SimulateUntilExhausted(stepped, p, opts)
					if err != nil {
						t.Fatal(err)
					}
					if got.Exhausted != want.Exhausted || got.Repetitions != want.Repetitions ||
						relDiff(got.Lifetime, want.Lifetime) > 1e-9 || relDiff(got.DeliveredCharge, want.DeliveredCharge) > 1e-9 {
						t.Errorf("profile %d, horizon %v s: closed form %+v, segment stepping %+v", i, maxTime, got, want)
					}
				}
			}
		})
	}
}

func relDiff(a, b float64) float64 {
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale == 0 {
		return 0
	}
	return math.Abs(a-b) / scale
}
