package experiments

import (
	"math"
	"math/rand"
	"testing"

	"battsched/internal/battery"
	"battsched/internal/core"
	"battsched/internal/profile"
	"battsched/internal/runner"
	"battsched/internal/taskgraph"
	"battsched/internal/tgff"
)

// quickTable2Profiles records the load profile of every (set, scheme) run of
// the quick Table 2 configuration, scheduled as table2ChunkJob schedules
// them.
func quickTable2Profiles(t *testing.T) []*profile.Profile {
	t.Helper()
	cfg := QuickTable2Config()
	proc := defaultProcessor()
	uni := taskgraph.NewUniformExecution(0.2, 1.0, 0)
	exec := taskgraph.NewRecordedExecution(uni)
	var out []*profile.Profile
	for set := 0; set < cfg.Sets; set++ {
		setSeed := runner.SeedFor(cfg.Seed, int64(set))
		sys, err := tgff.GenerateSystem(tgff.DefaultConfig(), cfg.GraphsPerSet, cfg.Utilization, proc.FMax(), rand.New(rand.NewSource(setSeed)))
		if err != nil {
			t.Fatal(err)
		}
		uni.Reseed(setSeed)
		exec.Restart(uni)
		for i, s := range paperSchemes() {
			if i > 0 {
				exec.Replay()
			}
			res, err := core.Run(core.Config{
				System:        sys,
				Processor:     proc,
				DVS:           s.alg(),
				Priority:      s.prio(),
				ReadyPolicy:   s.policy,
				FrequencyMode: core.DiscreteFrequency,
				Execution:     exec,
				Hyperperiods:  cfg.Hyperperiods,
				Seed:          setSeed,
				Observer:      core.NewProfileRecorder(),
			})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res.Profile)
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
