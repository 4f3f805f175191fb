// Benchmarks regenerating every table and figure of the paper's evaluation
// (in reduced "quick" form so a -bench=. run stays tractable), plus
// micro-benchmarks of the scheduler and priority functions. The battery
// models' lifetime benchmarks are internal/battery's BenchmarkLifetime*.
//
// Full-size reproductions are run with cmd/experiments; see EXPERIMENTS.md
// for the recorded paper-versus-measured numbers.
package battsched_test

import (
	"context"
	"math/rand"
	"testing"

	"battsched"
	"battsched/internal/experiments"
	"battsched/internal/priority"
	"battsched/internal/tgff"
)

// benchExperiment regenerates the quick configuration of one registered
// experiment per iteration, on parallel workers (1 measures the sequential
// path), and checks its row count (0: any number but none).
func benchExperiment(b *testing.B, name string, spec experiments.Spec, parallel, rows int) {
	spec.Quick, spec.Parallel = true, parallel
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Run(context.Background(), name, spec)
		if err != nil {
			b.Fatal(err)
		}
		if n := len(rep.Rows); n == 0 || rows > 0 && n != rows {
			b.Fatalf("%s: %d rows, want %d", name, n, rows)
		}
	}
}

// BenchmarkTable1 regenerates the paper's Table 1 (energy of Random/LTF/pUBS
// orderings normalised to the optimum on single task graphs).
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1", experiments.Spec{}, 1, 0) }

// BenchmarkFigure6 regenerates the paper's Figure 6 (energy of ordering
// schemes normalised to the precedence-free near-optimal schedule).
func BenchmarkFigure6(b *testing.B) { benchExperiment(b, "figure6", experiments.Spec{}, 1, 0) }

// benchTable2 regenerates quick Table 2 once per iteration, one
// sub-benchmark per battery: KiBaM, where the scheduling engine dominates,
// and the paper's stochastic model, where the battery layer does most of the
// work.
func benchTable2(b *testing.B, parallel int) {
	for _, name := range []string{"kibam", "stochastic"} {
		b.Run(name, func(b *testing.B) {
			benchExperiment(b, "table2", experiments.Spec{Battery: name}, parallel, 5)
		})
	}
}

// BenchmarkTable2 regenerates the paper's Table 2 (charge delivered and
// battery lifetime of the five scheduling schemes) on one worker — the
// sequential baseline BenchmarkTable2Parallel is compared against.
func BenchmarkTable2(b *testing.B) { benchTable2(b, 1) }

// BenchmarkTable2Parallel runs the same workload on all cores; the ratio to
// BenchmarkTable2 tracks the speedup of the job-grid runner.
func BenchmarkTable2Parallel(b *testing.B) { benchTable2(b, 0) }

// BenchmarkLoadCapacityCurve regenerates the load versus delivered-capacity
// battery characterisation curve of Section 5.
func BenchmarkLoadCapacityCurve(b *testing.B) {
	cfg := experiments.QuickCurveConfig()
	cfg.Parallel = 1 // measure the sequential path
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunLoadCapacityCurve(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSystem builds a deterministic random workload for scheduler
// micro-benchmarks.
func benchSystem(b *testing.B, graphs int) *battsched.System {
	b.Helper()
	rng := rand.New(rand.NewSource(99))
	sys, err := battsched.GenerateSystem(battsched.DefaultGeneratorConfig(), graphs, 0.7, 1e9, rng)
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// BenchmarkSchedulerBAS2 measures one hyperperiod of the full BAS-2
// methodology (laEDF + pUBS over all released graphs, discrete frequencies).
func BenchmarkSchedulerBAS2(b *testing.B) {
	sys := benchSystem(b, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := battsched.Run(battsched.Config{
			System:        sys.Clone(),
			DVS:           battsched.NewLAEDF(),
			Priority:      battsched.NewPUBS(),
			ReadyPolicy:   battsched.AllReleased,
			FrequencyMode: battsched.DiscreteFrequency,
			Execution:     battsched.NewUniformExecution(0.2, 1.0, int64(i)),
			Hyperperiods:  1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.DeadlineMisses != 0 {
			b.Fatal("deadline miss")
		}
	}
}

// BenchmarkSchedulerCCEDF measures one hyperperiod of ccEDF with canonical
// EDF ordering, the simplest DVS baseline.
func BenchmarkSchedulerCCEDF(b *testing.B) {
	sys := benchSystem(b, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := battsched.Run(battsched.Config{
			System:       sys.Clone(),
			DVS:          battsched.NewCCEDF(),
			Priority:     battsched.NewFIFO(),
			Execution:    battsched.NewUniformExecution(0.2, 1.0, int64(i)),
			Hyperperiods: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPUBSPriority measures one pUBS priority evaluation.
func BenchmarkPUBSPriority(b *testing.B) {
	p := priority.NewPUBS()
	ctx := &priority.Context{
		CurrentFrequency: 0.7e9,
		FMax:             1e9,
		FrequencyAfter:   func(c priority.Candidate, x float64) float64 { return 0.6e9 },
	}
	c := priority.Candidate{RemainingWCET: 10e6, EstimatedActual: 6e6, AbsoluteDeadline: 0.1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Priority(c, ctx)
	}
}

// BenchmarkEstimateAblation runs the estimate-quality ablation (how the
// accuracy of the X_k estimates changes the benefit of the pUBS ordering).
func BenchmarkEstimateAblation(b *testing.B) {
	benchExperiment(b, "ablation", experiments.Spec{}, 1, 3)
}

// BenchmarkAblationReadyPolicy compares the two ready-list policies of the
// paper (BAS-1 most-imminent vs BAS-2 all-released with the feasibility
// check) on the same workload — the design choice Section 4.2 discusses.
func BenchmarkAblationReadyPolicy(b *testing.B) {
	sys := benchSystem(b, 5)
	for _, bench := range []struct {
		name   string
		policy battsched.ReadyPolicy
	}{
		{"most-imminent", battsched.MostImminentOnly},
		{"all-released", battsched.AllReleased},
	} {
		b.Run(bench.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := battsched.Run(battsched.Config{
					System:        sys.Clone(),
					DVS:           battsched.NewLAEDF(),
					Priority:      battsched.NewPUBS(),
					ReadyPolicy:   bench.policy,
					FrequencyMode: battsched.DiscreteFrequency,
					Execution:     battsched.NewUniformExecution(0.2, 1.0, int64(i)),
					Hyperperiods:  1,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.DeadlineMisses != 0 {
					b.Fatal("deadline miss")
				}
			}
		})
	}
}

// BenchmarkAblationQuantization compares the optimal linear-combination
// frequency realisation against naive ceil quantisation — the design choice
// the paper justifies by citing Gaujal/Navet/Walsh.
func BenchmarkAblationQuantization(b *testing.B) {
	sys := benchSystem(b, 5)
	for _, bench := range []struct {
		name string
		mode battsched.FrequencyMode
	}{
		{"linear-combination", battsched.DiscreteFrequency},
		{"ceil", battsched.DiscreteCeilFrequency},
	} {
		b.Run(bench.name, func(b *testing.B) {
			var energy float64
			for i := 0; i < b.N; i++ {
				res, err := battsched.Run(battsched.Config{
					System:        sys.Clone(),
					DVS:           battsched.NewCCEDF(),
					Priority:      battsched.NewPUBS(),
					FrequencyMode: bench.mode,
					Execution:     battsched.NewUniformExecution(0.2, 1.0, 7),
					Hyperperiods:  1,
				})
				if err != nil {
					b.Fatal(err)
				}
				energy += res.EnergyBattery
			}
			b.ReportMetric(energy/float64(b.N), "J/hyperperiod")
		})
	}
}

// BenchmarkOptimalOrder measures the exact optimal order of a 10-node DAG
// (the Table 1 baseline).
func BenchmarkOptimalOrder(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	g, err := tgff.GenerateWithNodes(tgff.DefaultConfig(), "bench", 10, rng)
	if err != nil {
		b.Fatal(err)
	}
	actuals := make([]float64, g.NumNodes())
	for i := range actuals {
		actuals[i] = 0.5 * g.Nodes[i].WCET
	}
	params := battsched.OrderingParams{Deadline: g.TotalWCET() / (0.7 * 1e9), FMax: 1e9, Actuals: actuals}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := battsched.OptimalOrder(g, params); err != nil {
			b.Fatal(err)
		}
	}
}
