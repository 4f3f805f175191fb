package battery_test

import (
	"math/rand"
	"testing"

	"battsched/internal/battery"
	"battsched/internal/battery/diffusion"
	"battsched/internal/battery/kibam"
	"battsched/internal/battery/peukert"
	"battsched/internal/battery/stochastic"
	"battsched/internal/core"
	"battsched/internal/dvs"
	"battsched/internal/priority"
	"battsched/internal/processor"
	"battsched/internal/profile"
	"battsched/internal/runner"
	"battsched/internal/taskgraph"
	"battsched/internal/tgff"
)

// benchLifetimeProfile is a representative scheduler-shaped load: a burst, a
// medium plateau and a near-idle tail with durations that are not multiples
// of the 2 s benchmark substep, as in real emitted profiles.
func benchLifetimeProfile() *profile.Profile {
	p := profile.New()
	p.Append(33.4, 1.2)
	p.Append(21.7, 0.4)
	p.Append(5.1, 0.01)
	return p
}

// table2SetProfile records the load profile of one paper Table 2 set the
// way the Table 2 driver does for its battery stage: set 0 of the default
// seed (5 graphs at 70% utilisation), scheduled by BAS-2 (laEDF + pUBS over
// all released graphs, discrete frequencies) for 4 hyperperiods. Its ~200
// segments are all far shorter than a second and repeat thousands of times
// per lifetime.
func table2SetProfile(b *testing.B) *profile.Profile {
	b.Helper()
	proc := processor.Default()
	seed := runner.SeedFor(1, 0)
	sys, err := tgff.GenerateSystem(tgff.DefaultConfig(), 5, 0.7, proc.FMax(), rand.New(rand.NewSource(seed)))
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Run(core.Config{
		System:        sys,
		Processor:     proc,
		DVS:           dvs.NewLAEDF(),
		Priority:      priority.NewPUBS(),
		ReadyPolicy:   core.AllReleased,
		FrequencyMode: core.DiscreteFrequency,
		Execution:     taskgraph.NewUniformExecution(0.2, 1.0, seed),
		Hyperperiods:  4,
		Seed:          seed,
		Observer:      core.NewProfileRecorder(),
	})
	if err != nil {
		b.Fatal(err)
	}
	return res.Profile
}

// lifetimeInput is one load shape of the per-model lifetime benchmarks.
type lifetimeInput struct {
	name string
	p    *profile.Profile
}

// lifetimeInputs are the load shapes the per-model lifetime benchmarks run
// on: the periodic bench profile and one recorded Table 2 set.
func lifetimeInputs(b *testing.B) []lifetimeInput {
	return []lifetimeInput{{"periodic", benchLifetimeProfile()}, {"table2-set", table2SetProfile(b)}}
}

// benchLifetime runs full lifetime simulations of fresh model instances over
// a 72 h horizon under the given options.
func benchLifetime(b *testing.B, model func() battery.Model, p *profile.Profile, opts battery.SimulateOptions) {
	b.Helper()
	opts.MaxTime = 72 * 3600
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := battery.SimulateUntilExhausted(model(), p, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !r.Exhausted {
			b.Fatal("battery survived the horizon")
		}
	}
}

// benchLifetimePaths benchmarks the stepped (MaxStep 2, the pre-analytic
// experiment configuration) and analytic paths on each lifetime input.
func benchLifetimePaths(b *testing.B, model func() battery.Model) {
	b.Helper()
	for _, in := range lifetimeInputs(b) {
		b.Run(in.name+"/stepped", func(b *testing.B) {
			benchLifetime(b, model, in.p, battery.SimulateOptions{MaxStep: 2})
		})
		b.Run(in.name+"/analytic", func(b *testing.B) {
			benchLifetime(b, model, in.p, battery.SimulateOptions{})
		})
	}
}

func BenchmarkLifetimeKiBaM(b *testing.B) {
	benchLifetimePaths(b, func() battery.Model { return kibam.Default() })
}

func BenchmarkLifetimeDiffusion(b *testing.B) {
	benchLifetimePaths(b, func() battery.Model { return diffusion.Default() })
}

func BenchmarkLifetimePeukert(b *testing.B) {
	benchLifetimePaths(b, func() battery.Model { return peukert.Default() })
}

// BenchmarkLifetimeStochastic compares the paths of the expected-value
// stochastic model: "stepped" is the pre-analytic configuration, "analytic"
// the closed-form geometric-recovery fast path that reproduces the same
// expected recursion.
func BenchmarkLifetimeStochastic(b *testing.B) {
	benchLifetimePaths(b, func() battery.Model { return stochastic.Default() })
}

// BenchmarkLifetimeStochasticFast is the CI-tracked speedup gate of the
// stochastic fast path: the same expected-value lifetime through the default
// analytic dispatch versus the forced 1 s-substep stepping it replaces, on
// each lifetime input.
func BenchmarkLifetimeStochasticFast(b *testing.B) {
	model := func() battery.Model { return stochastic.Default() }
	for _, in := range lifetimeInputs(b) {
		b.Run(in.name+"/stepped1s", func(b *testing.B) {
			benchLifetime(b, model, in.p, battery.SimulateOptions{MaxStep: 1})
		})
		b.Run(in.name+"/fast", func(b *testing.B) {
			benchLifetime(b, model, in.p, battery.SimulateOptions{})
		})
	}
}

// batchBenchModels builds n models cycling through the four families, so
// the deaths stagger; under the default options every one of them takes the
// analytic path.
func batchBenchModels(tb testing.TB, n int) []battery.Model {
	tb.Helper()
	names := []string{"kibam", "diffusion", "peukert", "stochastic"}
	models := make([]battery.Model, n)
	for i := range models {
		m, err := battery.New(names[i%len(names)])
		if err != nil {
			tb.Fatal(err)
		}
		models[i] = m
	}
	return models
}

// benchLifetimeBatch benchmarks evaluating n models over the periodic bench
// profile (the comparison is batch against scalar passes, not load shape)
// three ways: the batch API, n sequential default-dispatch simulations
// (scalar), and n sequential stepped-path simulations (scalar-stepped, the
// pre-analytic configuration — the baseline the batch speedup criterion is
// measured against).
func benchLifetimeBatch(b *testing.B, n int) {
	p := benchLifetimeProfile()
	opts := battery.SimulateOptions{MaxTime: 72 * 3600}
	b.Run("batch", func(b *testing.B) {
		models := batchBenchModels(b, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := battery.SimulateBatch(models, p, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scalar", func(b *testing.B) {
		models := batchBenchModels(b, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, m := range models {
				if _, err := battery.SimulateUntilExhausted(m, p, opts); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("scalar-stepped", func(b *testing.B) {
		models := batchBenchModels(b, n)
		stepped := opts
		stepped.MaxStep = 2
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, m := range models {
				if _, err := battery.SimulateUntilExhausted(m, p, stepped); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

func BenchmarkLifetimeBatch4(b *testing.B)  { benchLifetimeBatch(b, 4) }
func BenchmarkLifetimeBatch16(b *testing.B) { benchLifetimeBatch(b, 16) }
