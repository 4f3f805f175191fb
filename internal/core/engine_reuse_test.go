package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"battsched/internal/dvs"
	"battsched/internal/priority"
	"battsched/internal/taskgraph"
	"battsched/internal/tgff"
)

// reuseScheme is one scheduling configuration of the reuse matrix.
type reuseScheme struct {
	name   string
	dvs    dvs.Algorithm
	prio   priority.Function
	policy ReadyPolicy
	oracle bool
	modes  []FrequencyMode
}

func reuseSchemes() []reuseScheme {
	all := []FrequencyMode{ContinuousFrequency, DiscreteFrequency, DiscreteCeilFrequency}
	return []reuseScheme{
		{name: "EDF", dvs: dvs.NewNoDVS(), prio: priority.NewFIFO(), policy: MostImminentOnly, modes: all},
		{name: "ccEDF", dvs: dvs.NewCCEDF(), prio: priority.NewFIFO(), policy: MostImminentOnly, modes: all},
		{name: "BAS-1", dvs: dvs.NewLAEDF(), prio: priority.NewPUBS(), policy: MostImminentOnly, modes: all},
		{name: "BAS-2", dvs: dvs.NewLAEDF(), prio: priority.NewPUBS(), policy: AllReleased, modes: all},
		{name: "BAS-2-oracle", dvs: dvs.NewLAEDF(), prio: priority.NewPUBS(), policy: AllReleased, oracle: true, modes: []FrequencyMode{ContinuousFrequency, DiscreteFrequency}},
		{name: "static-LTF", dvs: dvs.NewStatic(), prio: priority.NewLTF(), policy: AllReleased, modes: []FrequencyMode{DiscreteFrequency}},
		{name: "random", dvs: dvs.NewCCEDF(), prio: priority.NewRandom(), policy: AllReleased, modes: []FrequencyMode{DiscreteFrequency}},
	}
}

// equalResults fails the test unless got matches want field by field, exactly.
func equalResults(t *testing.T, label string, want, got *Result) {
	t.Helper()
	type scalar struct {
		name string
		w, g float64
	}
	scalars := []scalar{
		{"Horizon", want.Horizon, got.Horizon},
		{"EnergyBattery", want.EnergyBattery, got.EnergyBattery},
		{"EnergyProcessor", want.EnergyProcessor, got.EnergyProcessor},
		{"BusyTime", want.BusyTime, got.BusyTime},
		{"IdleTime", want.IdleTime, got.IdleTime},
		{"ExecutedCycles", want.ExecutedCycles, got.ExecutedCycles},
		{"AverageFrequency", want.AverageFrequency, got.AverageFrequency},
	}
	for _, s := range scalars {
		if math.Float64bits(s.w) != math.Float64bits(s.g) {
			t.Errorf("%s: %s = %v, want %v (bit-exact)", label, s.name, s.g, s.w)
		}
	}
	if want.DeadlineMisses != got.DeadlineMisses ||
		want.JobsReleased != got.JobsReleased ||
		want.JobsCompleted != got.JobsCompleted ||
		want.NodesCompleted != got.NodesCompleted ||
		want.Preemptions != got.Preemptions ||
		want.OutOfOrderExecutions != got.OutOfOrderExecutions ||
		want.FeasibilityRejections != got.FeasibilityRejections ||
		want.SchedulingDecisions != got.SchedulingDecisions {
		t.Errorf("%s: counters differ: got %+v want %+v", label, got, want)
	}
	if len(want.PerGraph) != len(got.PerGraph) {
		t.Fatalf("%s: PerGraph length %d, want %d", label, len(got.PerGraph), len(want.PerGraph))
	}
	for i := range want.PerGraph {
		if want.PerGraph[i] != got.PerGraph[i] {
			t.Errorf("%s: PerGraph[%d] = %+v, want %+v", label, i, got.PerGraph[i], want.PerGraph[i])
		}
	}
	switch {
	case want.Profile == nil && got.Profile == nil:
	case want.Profile == nil || got.Profile == nil:
		t.Errorf("%s: profile presence differs", label)
	default:
		ws, gs := want.Profile.Segments, got.Profile.Segments
		if len(ws) != len(gs) {
			t.Fatalf("%s: profile has %d segments, want %d", label, len(gs), len(ws))
		}
		for i := range ws {
			if math.Float64bits(ws[i].Duration) != math.Float64bits(gs[i].Duration) ||
				math.Float64bits(ws[i].Current) != math.Float64bits(gs[i].Current) {
				t.Errorf("%s: profile segment %d = %+v, want %+v (bit-exact)", label, i, gs[i], ws[i])
			}
		}
	}
}

// copyResult deep-copies the parts of a Result that alias reused engine or
// observer storage, so it survives the next Reset.
func copyResult(res *Result) *Result {
	cp := *res
	cp.PerGraph = append([]GraphStats(nil), res.PerGraph...)
	if res.Profile != nil {
		cp.Profile = res.Profile.Clone()
	}
	return &cp
}

// TestEngineReuseMatchesFreshRun drives one Engine (and one ProfileRecorder)
// through many Reset+Run cycles across schemes, frequency modes, seeds and
// systems of different sizes, and checks every result is byte-identical to a
// fresh one-shot core.Run with its own fresh recorder.
func TestEngineReuseMatchesFreshRun(t *testing.T) {
	systems := []*taskgraph.System{}
	for i, ng := range []int{5, 3, 6} {
		rng := rand.New(rand.NewSource(int64(40 + i)))
		sys, err := tgff.GenerateSystem(tgff.DefaultConfig(), ng, 0.65, 1e9, rng)
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, sys)
	}

	eng := NewEngine()
	rec := NewProfileRecorder()
	for si, sys := range systems {
		for _, sc := range reuseSchemes() {
			for _, mode := range sc.modes {
				for seed := int64(0); seed < 3; seed++ {
					cfg := Config{
						System:          sys,
						DVS:             sc.dvs,
						Priority:        sc.prio,
						ReadyPolicy:     sc.policy,
						OracleEstimates: sc.oracle,
						FrequencyMode:   mode,
						Hyperperiods:    1,
						Seed:            seed,
						Observer:        rec,
					}
					rec.Reset()
					if err := eng.Reset(cfg); err != nil {
						t.Fatal(err)
					}
					got, err := eng.Run()
					if err != nil {
						t.Fatal(err)
					}
					got = copyResult(got)

					fresh := cfg
					fresh.Observer = NewProfileRecorder()
					want, err := Run(fresh)
					if err != nil {
						t.Fatal(err)
					}
					label := sc.name + "/" + mode.String()
					if seed == 0 && si == 0 {
						t.Logf("checking %s", label)
					}
					equalResults(t, label, want, got)
				}
			}
		}
	}
}

// TestEngineReuseWithDefaultObserver checks the Recorder (profile + trace)
// default path also reproduces fresh runs when the engine is reused, including
// trace label construction after system switches.
func TestEngineReuseWithDefaultObserver(t *testing.T) {
	rngA := rand.New(rand.NewSource(17))
	sysA, err := tgff.GenerateSystem(tgff.DefaultConfig(), 4, 0.6, 1e9, rngA)
	if err != nil {
		t.Fatal(err)
	}
	rngB := rand.New(rand.NewSource(18))
	sysB, err := tgff.GenerateSystem(tgff.DefaultConfig(), 2, 0.5, 1e9, rngB)
	if err != nil {
		t.Fatal(err)
	}

	eng := NewEngine()
	rec := NewRecorder()
	for i, sys := range []*taskgraph.System{sysA, sysB, sysA} {
		cfg := Config{
			System:        sys,
			DVS:           dvs.NewLAEDF(),
			Priority:      priority.NewPUBS(),
			ReadyPolicy:   AllReleased,
			FrequencyMode: DiscreteFrequency,
			Hyperperiods:  1,
			Seed:          int64(i),
			Observer:      rec,
		}
		rec.Reset()
		if err := eng.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		got, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got.Trace == nil {
			t.Fatal("reused Recorder produced no trace")
		}
		gotSlices := append(got.Trace.Slices[:0:0], got.Trace.Slices...)
		got = copyResult(got)

		fresh := cfg
		fresh.Observer = NewRecorder()
		want, err := Run(fresh)
		if err != nil {
			t.Fatal(err)
		}
		equalResults(t, "recorder", want, got)
		if len(want.Trace.Slices) != len(gotSlices) {
			t.Fatalf("trace has %d slices, want %d", len(gotSlices), len(want.Trace.Slices))
		}
		for j := range gotSlices {
			if gotSlices[j] != want.Trace.Slices[j] {
				t.Fatalf("trace slice %d = %+v, want %+v", j, gotSlices[j], want.Trace.Slices[j])
			}
		}
	}
}

// TestRecordedExecutionReplayAcrossSchemes pins the comparability contract the
// experiment drivers rely on: an execution realisation recorded during one
// scheme's run replays bit-identically for every other scheme on the same
// system, seed and horizon, because the engine draws Actual values in a
// scheme-independent order.
func TestRecordedExecutionReplayAcrossSchemes(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	sys, err := tgff.GenerateSystem(tgff.DefaultConfig(), 5, 0.7, 1e9, rng)
	if err != nil {
		t.Fatal(err)
	}

	schemes := reuseSchemes()
	for seed := int64(1); seed <= 3; seed++ {
		exec := taskgraph.NewRecordedExecution(taskgraph.NewUniformExecution(0.2, 1.0, seed))
		eng := NewEngine()
		rec := NewProfileRecorder()
		for i, sc := range schemes {
			if i == 0 {
				exec.Restart(taskgraph.NewUniformExecution(0.2, 1.0, seed))
			} else {
				exec.Replay()
			}
			cfg := Config{
				System:          sys,
				DVS:             sc.dvs,
				Priority:        sc.prio,
				ReadyPolicy:     sc.policy,
				OracleEstimates: sc.oracle,
				FrequencyMode:   DiscreteFrequency,
				Hyperperiods:    1,
				Seed:            seed,
				Execution:       exec,
				Observer:        rec,
			}
			rec.Reset()
			if err := eng.Reset(cfg); err != nil {
				t.Fatal(err)
			}
			got, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			got = copyResult(got)

			fresh := cfg
			fresh.Execution = taskgraph.NewUniformExecution(0.2, 1.0, seed)
			fresh.Observer = NewProfileRecorder()
			want, err := Run(fresh)
			if err != nil {
				t.Fatal(err)
			}
			equalResults(t, sc.name+"/replay", want, got)
		}
	}
}

// TestEngineRunRequiresReset pins the one-Run-per-Reset contract.
func TestEngineRunRequiresReset(t *testing.T) {
	eng := NewEngine()
	if _, err := eng.Run(); err != ErrEngineNotReady {
		t.Fatalf("Run without Reset: err = %v, want ErrEngineNotReady", err)
	}
	rng := rand.New(rand.NewSource(5))
	sys, err := tgff.GenerateSystem(tgff.DefaultConfig(), 2, 0.5, 1e9, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Reset(Config{System: sys, Observer: Discard, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != ErrEngineNotReady {
		t.Fatalf("second Run after one Reset: err = %v, want ErrEngineNotReady", err)
	}

	// A failed Reset unreadies the engine even after a successful one: Run
	// must not simulate the previous config. Both failure paths: the
	// per-run horizon check of an already validated (System, Processor)
	// pair, and full validation.
	failures := []struct {
		name string
		cfg  Config
		want error
	}{
		{"cached pair, negative horizon", Config{System: sys, Observer: Discard, Horizon: -1}, ErrBadHorizon},
		{"nil system", Config{Observer: Discard}, ErrNilSystem},
	}
	for _, f := range failures {
		if err := eng.Reset(Config{System: sys, Observer: Discard, Seed: 2}); err != nil {
			t.Fatal(err)
		}
		if err := eng.Reset(f.cfg); !errors.Is(err, f.want) {
			t.Fatalf("%s: Reset err = %v, want %v", f.name, err, f.want)
		}
		if res, err := eng.Run(); err != ErrEngineNotReady {
			t.Fatalf("%s: Run after a failed Reset: res = %v, err = %v, want ErrEngineNotReady", f.name, res != nil, err)
		}
	}
}

// TestProfileRecorderReuse pins capacity retention and truncation semantics of
// ProfileRecorder.Reset.
func TestProfileRecorderReuse(t *testing.T) {
	rec := NewProfileRecorder()
	for i := 0; i < 64; i++ {
		rec.AppendSegment(Segment{Duration: 1, Current: float64(i)})
	}
	p := rec.BuiltProfile()
	if len(p.Segments) != 64 {
		t.Fatalf("len = %d, want 64", len(p.Segments))
	}
	capBefore := cap(p.Segments)

	rec.Reset()
	if got := len(rec.BuiltProfile().Segments); got != 0 {
		t.Fatalf("after Reset len = %d, want 0", got)
	}
	if got := cap(rec.BuiltProfile().Segments); got != capBefore {
		t.Fatalf("Reset changed capacity: %d, want %d", got, capBefore)
	}

	// A shorter recording after Reset must truncate correctly: the profile
	// matches a fresh recorder fed the same segments, with no stale tail.
	fresh := NewProfileRecorder()
	for i := 0; i < 5; i++ {
		s := Segment{Duration: 2, Current: float64(100 + i)}
		rec.AppendSegment(s)
		fresh.AppendSegment(s)
	}
	got, want := rec.BuiltProfile().Segments, fresh.BuiltProfile().Segments
	if len(got) != len(want) {
		t.Fatalf("after reuse len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("segment %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if cap(rec.BuiltProfile().Segments) != capBefore {
		t.Fatalf("reuse reallocated: cap %d, want %d", cap(rec.BuiltProfile().Segments), capBefore)
	}

	// Merging still works across Reset: equal consecutive currents collapse.
	rec.Reset()
	rec.AppendSegment(Segment{Duration: 1, Current: 3})
	rec.AppendSegment(Segment{Duration: 2, Current: 3})
	if n := len(rec.BuiltProfile().Segments); n != 1 {
		t.Fatalf("merge after Reset: %d segments, want 1", n)
	}
	if d := rec.BuiltProfile().Segments[0].Duration; d != 3 {
		t.Fatalf("merged duration = %v, want 3", d)
	}
}

// TestRecorderReuse pins Recorder.Reset clearing both profile and trace while
// keeping capacity.
func TestRecorderReuse(t *testing.T) {
	rec := NewRecorder()
	for i := 0; i < 16; i++ {
		rec.AppendSegment(Segment{Start: float64(i), Duration: 1, GraphIndex: i, Frequency: 1e8, Current: float64(i)})
	}
	pc, tc := cap(rec.BuiltProfile().Segments), cap(rec.BuiltTrace().Slices)
	rec.Reset()
	if len(rec.BuiltProfile().Segments) != 0 || len(rec.BuiltTrace().Slices) != 0 {
		t.Fatal("Reset did not empty recorder")
	}
	if cap(rec.BuiltProfile().Segments) != pc || cap(rec.BuiltTrace().Slices) != tc {
		t.Fatal("Reset dropped capacity")
	}
}

// TestLazySourceMatchesNewSource drives one lazySource through a seeded
// script of Seeds (one of three seeds, so most repeat the generator's own
// and rewind its tape) and runs of draws through Int63, Uint64 and Float64,
// some of them past tapeCap, and checks every value against a generator
// made by rand.NewSource at each Seed. A run past the cap is followed by
// another with the same seed, which must seed afresh: the tape no longer
// holds every draw since the seeding.
func TestLazySourceMatchesNewSource(t *testing.T) {
	script := rand.New(rand.NewSource(4))
	var src lazySource
	got := rand.New(&src)
	rewinds, spills, again := 0, 0, false
	for op := 0; op < 300; op++ {
		seed, n := int64(script.Intn(3)), script.Intn(64)
		if script.Intn(20) == 0 {
			n = tapeCap + script.Intn(tapeCap)
		}
		// After a run past the cap, repeat its seed once and draw past the
		// cap again.
		again = src.spilled && !again
		if again {
			seed, n = src.seed, tapeCap+1+script.Intn(tapeCap)
		}
		if src.seeded && seed == src.seed && !src.spilled {
			rewinds++
		}
		got.Seed(seed)
		want := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			switch i % 3 {
			case 0:
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("op %d, draw %d: Int63 %d, want %d", op, i, g, w)
				}
			case 1:
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("op %d, draw %d: Uint64 %d, want %d", op, i, g, w)
				}
			default:
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("op %d, draw %d: Float64 %v, want %v", op, i, g, w)
				}
			}
		}
		if src.spilled {
			spills++
		}
	}
	if rewinds == 0 || spills == 0 {
		t.Fatalf("%d rewinds and %d runs past the tape's cap, want both", rewinds, spills)
	}
}

// TestEngineRNGTapeMatchesFreshRun reuses one engine, with the same seed,
// across the Random-ordering schemes of Table 2 (no DVS, ccEDF and laEDF, on
// the most imminent instance and on all released ones) in both orders, so
// every run after the first replays the RNG tape the earlier ones drew. A
// run over more hyperperiods then draws past the recorded tape, and two over
// many draw past the tape's cap, so each next run seeds afresh. Every run
// must equal a fresh core.Run bit for bit.
func TestEngineRNGTapeMatchesFreshRun(t *testing.T) {
	sys, err := tgff.GenerateSystem(tgff.DefaultConfig(), 5, 0.7, 1e9, rand.New(rand.NewSource(31)))
	if err != nil {
		t.Fatal(err)
	}
	type random struct {
		dvs    dvs.Algorithm
		policy ReadyPolicy
	}
	var schemes []random
	for _, alg := range []dvs.Algorithm{dvs.NewNoDVS(), dvs.NewCCEDF(), dvs.NewLAEDF()} {
		for _, policy := range []ReadyPolicy{MostImminentOnly, AllReleased} {
			schemes = append(schemes, random{alg, policy})
		}
	}
	eng := NewEngine()
	rec := NewProfileRecorder()
	run := func(label string, sc random, hyperperiods int) {
		t.Helper()
		cfg := Config{
			System:        sys,
			DVS:           sc.dvs,
			Priority:      priority.NewRandom(),
			ReadyPolicy:   sc.policy,
			FrequencyMode: DiscreteFrequency,
			Hyperperiods:  hyperperiods,
			Seed:          3,
			Observer:      rec,
		}
		rec.Reset()
		if err := eng.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		got, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		got = copyResult(got)
		fresh := cfg
		fresh.Observer = NewProfileRecorder()
		want, err := Run(fresh)
		if err != nil {
			t.Fatal(err)
		}
		equalResults(t, label+"/"+sc.dvs.Name()+"/"+sc.policy.String(), want, got)
	}
	src := &eng.e.rngSrc
	for i, sc := range schemes {
		run("forward", sc, 1)
		if i == 0 && (!src.seeded || len(src.tape) == 0) {
			t.Fatal("the first Random run drew nothing")
		}
	}
	recorded := len(src.tape)
	for i := range schemes {
		run("reverse", schemes[len(schemes)-1-i], 1)
	}
	if len(src.tape) != recorded {
		t.Fatalf("replays grew the tape from %d to %d values; every run over one hyperperiod drew before", recorded, len(src.tape))
	}
	run("past the tape", schemes[len(schemes)-1], 3)
	if len(src.tape) <= recorded || src.spilled {
		t.Fatalf("a run over 3 hyperperiods left a tape of %d values (spilled %v), want more than %d", len(src.tape), src.spilled, recorded)
	}
	for _, label := range []string{"past the cap", "past the cap again"} {
		run(label, schemes[len(schemes)-1], 200)
		if !src.spilled {
			t.Fatalf("a run over 200 hyperperiods drew only %d values, not past the tape's cap of %d", len(src.tape), tapeCap)
		}
	}
	for _, sc := range schemes {
		run("after the cap", sc, 1)
	}
}
