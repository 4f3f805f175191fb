package core

import (
	"math/rand"
	"testing"
	"time"

	"battsched/internal/dvs"
	"battsched/internal/priority"
	"battsched/internal/taskgraph"
	"battsched/internal/tgff"
)

// benchConfig returns the BAS-2 configuration (laEDF + pUBS over all released
// graphs, discrete frequencies) the engine benchmarks run: the scheme with
// the most expensive decisions (hypothetical DVS queries per candidate).
func benchConfig(tb testing.TB, sink SegmentSink) Config {
	tb.Helper()
	rng := rand.New(rand.NewSource(99))
	sys, err := tgff.GenerateSystem(tgff.DefaultConfig(), 5, 0.7, 1e9, rng)
	if err != nil {
		tb.Fatal(err)
	}
	return Config{
		System:        sys,
		DVS:           dvs.NewLAEDF(),
		Priority:      priority.NewPUBS(),
		ReadyPolicy:   AllReleased,
		FrequencyMode: DiscreteFrequency,
		Hyperperiods:  1,
		Seed:          7,
		Observer:      sink,
	}
}

func benchEngineRun(b *testing.B, sink func() SegmentSink) {
	cfg := benchConfig(b, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Observer = sink()
		cfg.Seed = int64(i)
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.DeadlineMisses != 0 {
			b.Fatal("deadline miss")
		}
	}
}

// BenchmarkEngineRun measures one hyperperiod of the engine with the no-op
// sink — the experiment hot path (energy totals only, no recording).
func BenchmarkEngineRun(b *testing.B) {
	benchEngineRun(b, func() SegmentSink { return Discard })
}

// BenchmarkEngineRunProfile measures the same run recording only the battery
// load-current profile (what the battery-lifetime experiments use).
func BenchmarkEngineRunProfile(b *testing.B) {
	benchEngineRun(b, func() SegmentSink { return NewProfileRecorder() })
}

// BenchmarkEngineRunRecorded measures the same run with full profile + trace
// recording — the engine's mandatory behaviour before the observer layer,
// and still the default when Config.Observer is nil.
func BenchmarkEngineRunRecorded(b *testing.B) {
	benchEngineRun(b, func() SegmentSink { return NewRecorder() })
}

// BenchmarkEngineRunReused measures the steady-state Reset+Run cost of one
// reused Engine with one reused ProfileRecorder — the experiment drivers' hot
// path after the cross-scheme restructure. Scratch buffers, estimator history,
// free list and profile storage all survive across iterations, so allocations
// per op collapse to the fresh Result (vs ~90 for a one-shot Run).
func BenchmarkEngineRunReused(b *testing.B) {
	cfg := benchConfig(b, nil)
	eng := NewEngine()
	rec := NewProfileRecorder()
	cfg.Observer = rec
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Reset()
		cfg.Seed = int64(i)
		if err := eng.Reset(cfg); err != nil {
			b.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			b.Fatal(err)
		}
		if res.DeadlineMisses != 0 {
			b.Fatal("deadline miss")
		}
	}
}

// BenchmarkEngineRunSchemes runs Table 2's five schemes on one paper-sized
// set (5 graphs at 70 % worst-case utilisation, 4 hyperperiods, discrete
// frequencies) as the Table 2 driver runs a set: each iteration takes a new
// seed, reseeds the execution realisation once, and runs the five schemes in
// order on one reused Engine and ProfileRecorder, the first scheme recording
// the realisation and the others replaying it. It reports each scheme's cost
// per scheduling decision, the Reset included.
func BenchmarkEngineRunSchemes(b *testing.B) {
	cfg := benchConfig(b, nil)
	cfg.Hyperperiods = 4
	schemes := []struct {
		name   string
		dvs    dvs.Algorithm
		prio   priority.Function
		policy ReadyPolicy
	}{
		{"EDF", dvs.NewNoDVS(), priority.NewRandom(), MostImminentOnly},
		{"CycleConserving", dvs.NewCCEDF(), priority.NewRandom(), MostImminentOnly},
		{"LookAhead", dvs.NewLAEDF(), priority.NewRandom(), MostImminentOnly},
		{"BAS-1", dvs.NewLAEDF(), priority.NewPUBS(), MostImminentOnly},
		{"BAS-2", dvs.NewLAEDF(), priority.NewPUBS(), AllReleased},
	}
	uni := taskgraph.NewUniformExecution(0.2, 1.0, 0)
	exec := taskgraph.NewRecordedExecution(uni)
	eng := NewEngine()
	rec := NewProfileRecorder()
	cfg.Observer, cfg.Execution = rec, exec
	elapsed := make([]time.Duration, len(schemes))
	decisions := make([]int, len(schemes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		uni.Reseed(cfg.Seed)
		exec.Restart(uni)
		for si, sc := range schemes {
			if si > 0 {
				exec.Replay()
			}
			start := time.Now()
			rec.Reset()
			cfg.DVS, cfg.Priority, cfg.ReadyPolicy = sc.dvs, sc.prio, sc.policy
			if err := eng.Reset(cfg); err != nil {
				b.Fatal(err)
			}
			res, err := eng.Run()
			if err != nil {
				b.Fatal(err)
			}
			elapsed[si] += time.Since(start)
			if res.DeadlineMisses != 0 {
				b.Fatal("deadline miss")
			}
			decisions[si] += res.SchedulingDecisions
		}
	}
	for si, sc := range schemes {
		b.ReportMetric(float64(elapsed[si].Nanoseconds())/float64(decisions[si]), sc.name+"-ns/decision")
	}
}
