package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"battsched/internal/dvs"
	"battsched/internal/priority"
	"battsched/internal/processor"
	"battsched/internal/taskgraph"
	"battsched/internal/tgff"
)

// singleTaskSystem is one graph with a single node: wc cycles, period seconds.
func singleTaskSystem(wc, period float64) *taskgraph.System {
	g := taskgraph.NewGraph("T1", period)
	g.AddNode("T1.n0", wc)
	return taskgraph.NewSystem(g)
}

// figure5System reproduces the workload of the paper's Figure 5: T1 = one
// task wc=5 (D=20), T2 = one task wc=5 (D=50), T3 = three tasks wc=5 each
// (D=100); time unit seconds, work in seconds-at-fmax times fmax cycles.
func figure5System(fmax float64) *taskgraph.System {
	t1 := taskgraph.NewGraph("T1", 20)
	t1.AddNode("T1.a", 5*fmax)
	t2 := taskgraph.NewGraph("T2", 50)
	t2.AddNode("T2.a", 5*fmax)
	t3 := taskgraph.NewGraph("T3", 100)
	t3.AddNode("T3.a", 5*fmax)
	t3.AddNode("T3.b", 5*fmax)
	t3.AddNode("T3.c", 5*fmax)
	return taskgraph.NewSystem(t1, t2, t3)
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{}); !errors.Is(err, ErrNilSystem) {
		t.Fatalf("nil system err = %v", err)
	}
	over := singleTaskSystem(2e9, 1) // U = 2 at 1 GHz
	if _, err := Run(Config{System: over}); !errors.Is(err, ErrOverload) {
		t.Fatalf("overload err = %v", err)
	}
	neg := Config{System: singleTaskSystem(1e6, 1), Horizon: -1}
	if err := neg.Validate(); !errors.Is(err, ErrBadHorizon) {
		t.Fatalf("negative horizon err = %v", err)
	}
}

func TestPolicyAndModeStrings(t *testing.T) {
	if MostImminentOnly.String() != "most-imminent" || AllReleased.String() != "all-released" {
		t.Fatal("ReadyPolicy strings wrong")
	}
	if ContinuousFrequency.String() != "continuous" || DiscreteFrequency.String() != "discrete" {
		t.Fatal("FrequencyMode strings wrong")
	}
	if ReadyPolicy(9).String() == "" || FrequencyMode(9).String() == "" {
		t.Fatal("fallback strings empty")
	}
}

func TestSingleTaskNoDVSWorstCase(t *testing.T) {
	// One task of 0.4e9 cycles every 1 s at fmax=1e9: runs 0.4 s per period
	// at full speed, idles 0.6 s.
	sys := singleTaskSystem(0.4e9, 1)
	res, err := Run(Config{
		System:    sys,
		DVS:       dvs.NewNoDVS(),
		Execution: taskgraph.WorstCaseExecution{},
		Horizon:   5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadlineMisses != 0 {
		t.Fatalf("deadline misses = %d", res.DeadlineMisses)
	}
	if res.JobsReleased != 5 || res.JobsCompleted != 5 || res.NodesCompleted != 5 {
		t.Fatalf("jobs: released=%d completed=%d nodes=%d", res.JobsReleased, res.JobsCompleted, res.NodesCompleted)
	}
	if math.Abs(res.BusyTime-5*0.4) > 1e-6 {
		t.Fatalf("busy time = %v, want 2.0", res.BusyTime)
	}
	if math.Abs(res.IdleTime-5*0.6) > 1e-6 {
		t.Fatalf("idle time = %v, want 3.0", res.IdleTime)
	}
	if math.Abs(res.ExecutedCycles-5*0.4e9) > 1 {
		t.Fatalf("executed cycles = %v", res.ExecutedCycles)
	}
	if math.Abs(res.AverageFrequency-1e9) > 1 {
		t.Fatalf("average frequency = %v, want fmax", res.AverageFrequency)
	}
	if res.EnergyBattery <= 0 || res.EnergyProcessor >= res.EnergyBattery {
		t.Fatalf("energy accounting wrong: battery=%v processor=%v", res.EnergyBattery, res.EnergyProcessor)
	}
	if res.Profile == nil || math.Abs(res.Profile.Duration()-res.Horizon) > 1e-6 {
		t.Fatalf("profile duration = %v, want %v", res.Profile.Duration(), res.Horizon)
	}
	if res.Trace == nil || math.Abs(res.Trace.BusyTime()-res.BusyTime) > 1e-6 {
		t.Fatalf("trace busy time = %v, want %v", res.Trace.BusyTime(), res.BusyTime)
	}
}

func TestSingleTaskCCEDFStretchesToDeadline(t *testing.T) {
	// With ccEDF and worst-case executions, fref = U*fmax = 0.4 GHz in the
	// idealised continuous mode: the task stretches to fill its whole period.
	sys := singleTaskSystem(0.4e9, 1)
	res, err := Run(Config{
		System:    sys,
		DVS:       dvs.NewCCEDF(),
		Execution: taskgraph.WorstCaseExecution{},
		Horizon:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadlineMisses != 0 {
		t.Fatalf("misses = %d", res.DeadlineMisses)
	}
	if math.Abs(res.BusyTime-4*1.0) > 1e-6 {
		t.Fatalf("busy time = %v, want 4.0", res.BusyTime)
	}
	if math.Abs(res.AverageFrequency-0.4e9) > 1 {
		t.Fatalf("average frequency = %v, want 0.4 GHz", res.AverageFrequency)
	}
	// Scaling down must save battery energy compared with noDVS.
	noDVS, err := Run(Config{System: sys.Clone(), DVS: dvs.NewNoDVS(), Execution: taskgraph.WorstCaseExecution{}, Horizon: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.EnergyBattery >= noDVS.EnergyBattery {
		t.Fatalf("ccEDF energy %v not below noDVS energy %v", res.EnergyBattery, noDVS.EnergyBattery)
	}
}

func TestHyperperiodDefaultHorizon(t *testing.T) {
	sys := figure5System(1e9)
	cfg := Config{System: sys, Execution: taskgraph.WorstCaseExecution{}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Hyperperiod of {20,50,100} = 100 s.
	if math.Abs(res.Horizon-100) > 1e-6 {
		t.Fatalf("default horizon = %v, want 100", res.Horizon)
	}
	if res.DeadlineMisses != 0 {
		t.Fatalf("misses = %d", res.DeadlineMisses)
	}
	// Releases in 100 s: T1 x5, T2 x2, T3 x1.
	if res.JobsReleased != 8 || res.JobsCompleted != 8 {
		t.Fatalf("jobs = %d/%d, want 8/8", res.JobsCompleted, res.JobsReleased)
	}
}

func TestFigure5CanonicalVersusPUBSOrdering(t *testing.T) {
	// The paper's Figure 5: with everything released at t=0, utilisation 0.5
	// and worst-case executions, fref = 0.5 fmax throughout. Under canonical
	// EDF ordering (FIFO, most-imminent-only) no out-of-order executions
	// occur; with pUBS over all released graphs the scheduler may execute
	// nodes of T2/T3 before T1 finishes the window, using the feasibility
	// check, and still misses no deadline.
	fmaxHz := 1e9
	canonical, err := Run(Config{
		System:      figure5System(fmaxHz),
		DVS:         dvs.NewCCEDF(),
		Priority:    priority.NewFIFO(),
		ReadyPolicy: MostImminentOnly,
		Execution:   taskgraph.WorstCaseExecution{},
		Horizon:     100,
	})
	if err != nil {
		t.Fatal(err)
	}
	bas2, err := Run(Config{
		System:      figure5System(fmaxHz),
		DVS:         dvs.NewCCEDF(),
		Priority:    priority.NewPUBS(),
		ReadyPolicy: AllReleased,
		Execution:   taskgraph.WorstCaseExecution{},
		Horizon:     100,
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*Result{"canonical": canonical, "bas2": bas2} {
		if r.DeadlineMisses != 0 {
			t.Fatalf("%s: deadline misses = %d", name, r.DeadlineMisses)
		}
		// Worst-case executions at utilisation 0.5: everything runs at
		// 0.5 fmax (which is also FMin), so busy time equals the horizon...
		// (the processor never idles because fref = U*fmax exactly fills it).
		if math.Abs(r.AverageFrequency-0.5e9) > 1e3 {
			t.Fatalf("%s: average frequency = %v, want 0.5 GHz", name, r.AverageFrequency)
		}
	}
	if canonical.OutOfOrderExecutions != 0 {
		t.Fatalf("canonical EDF ordering executed out of order %d times", canonical.OutOfOrderExecutions)
	}
	if bas2.OutOfOrderExecutions == 0 {
		t.Fatal("BAS-2 never executed out of EDF order in the Figure 5 scenario")
	}
	// Same total work executed either way.
	if math.Abs(canonical.ExecutedCycles-bas2.ExecutedCycles) > 1 {
		t.Fatalf("executed cycles differ: %v vs %v", canonical.ExecutedCycles, bas2.ExecutedCycles)
	}
}

func TestDiscreteModeUsesSupportedFrequencies(t *testing.T) {
	proc := processor.Default()
	sys := figure5System(proc.FMax())
	res, err := Run(Config{
		System:        sys,
		Processor:     proc,
		DVS:           dvs.NewCCEDF(),
		Priority:      priority.NewPUBS(),
		ReadyPolicy:   AllReleased,
		FrequencyMode: DiscreteFrequency,
		Execution:     taskgraph.NewUniformExecution(0.2, 1.0, 7),
		Horizon:       100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadlineMisses != 0 {
		t.Fatalf("misses = %d", res.DeadlineMisses)
	}
	supported := map[float64]bool{}
	for _, p := range proc.Points {
		supported[p.Frequency] = true
	}
	for _, s := range res.Trace.Slices {
		if s.Idle {
			continue
		}
		if !supported[s.Frequency] {
			t.Fatalf("slice at unsupported frequency %v", s.Frequency)
		}
	}
}

func TestCCEDFFrequencyLocallyNonIncreasing(t *testing.T) {
	// All graphs share one period, so scheduling windows align with it: within
	// each window ccEDF must never raise the frequency (battery guideline 1).
	fmaxHz := 1e9
	g1 := taskgraph.NewGraph("A", 1)
	g1.AddNode("A.0", 0.2e9)
	g1.AddNode("A.1", 0.15e9)
	g1.AddEdge(0, 1)
	g2 := taskgraph.NewGraph("B", 1)
	g2.AddNode("B.0", 0.25e9)
	g2.AddNode("B.1", 0.1e9)
	sys := taskgraph.NewSystem(g1, g2)
	res, err := Run(Config{
		System:      sys,
		DVS:         dvs.NewCCEDF(),
		Priority:    priority.NewPUBS(),
		ReadyPolicy: AllReleased,
		Execution:   taskgraph.NewUniformExecution(0.2, 1.0, 3),
		Horizon:     10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadlineMisses != 0 {
		t.Fatalf("misses = %d", res.DeadlineMisses)
	}
	if !res.Trace.FrequencyIsLocallyNonIncreasing(1.0) {
		t.Fatal("ccEDF execution frequency increased within an arrival window")
	}
	_ = fmaxHz
}

func TestPUBSOrderingSavesEnergyUnderCCEDF(t *testing.T) {
	// Averaged over seeds, pUBS ordering should not consume more energy than
	// random ordering when the frequency setter responds to recovered slack
	// (ccEDF); allowing candidates from all released graphs (BAS-2 style)
	// must help further or at least not hurt.
	var pubs1E, pubs2E, randE float64
	const seeds = 6
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		sys, err := tgff.GenerateSystem(tgff.DefaultConfig(), 4, 0.7, 1e9, rng)
		if err != nil {
			t.Fatal(err)
		}
		base := Config{
			System:       sys,
			DVS:          dvs.NewCCEDF(),
			ReadyPolicy:  MostImminentOnly,
			Execution:    taskgraph.NewUniformExecution(0.2, 1.0, seed),
			Hyperperiods: 2,
			Seed:         seed,
		}
		run := func(prio priority.Function, pol ReadyPolicy, oracle bool) *Result {
			cfg := base
			cfg.System = sys.Clone()
			cfg.Priority = prio
			cfg.ReadyPolicy = pol
			cfg.OracleEstimates = oracle
			r, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if r.DeadlineMisses != 0 {
				t.Fatalf("seed %d: %d deadline misses", seed, r.DeadlineMisses)
			}
			return r
		}
		pubs1E += run(priority.NewPUBS(), MostImminentOnly, true).EnergyBattery
		pubs2E += run(priority.NewPUBS(), AllReleased, true).EnergyBattery
		randE += run(priority.NewRandom(), MostImminentOnly, false).EnergyBattery
	}
	if pubs1E > randE*1.02 {
		t.Fatalf("pUBS (most imminent) used more energy than random: %v vs %v", pubs1E, randE)
	}
	if pubs2E > pubs1E*1.02 {
		t.Fatalf("pUBS over all released graphs used more energy than most-imminent: %v vs %v", pubs2E, pubs1E)
	}
}

func TestDVSAlgorithmsEnergyOrdering(t *testing.T) {
	// noDVS must use (much) more battery energy than ccEDF, which in turn
	// should not beat laEDF by much (averaged over a few seeds).
	var e = map[string]float64{}
	const seeds = 4
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(2000 + seed))
		sys, err := tgff.GenerateSystem(tgff.DefaultConfig(), 4, 0.7, 1e9, rng)
		if err != nil {
			t.Fatal(err)
		}
		for name, alg := range map[string]dvs.Algorithm{"noDVS": dvs.NewNoDVS(), "ccEDF": dvs.NewCCEDF(), "laEDF": dvs.NewLAEDF()} {
			res, err := Run(Config{
				System:       sys.Clone(),
				DVS:          alg,
				Priority:     priority.NewRandom(),
				Execution:    taskgraph.NewUniformExecution(0.2, 1.0, seed),
				Hyperperiods: 2,
				Seed:         seed,
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.DeadlineMisses != 0 {
				t.Fatalf("%s seed %d: %d deadline misses", name, seed, res.DeadlineMisses)
			}
			e[name] += res.EnergyBattery
		}
	}
	if e["ccEDF"] >= e["noDVS"] {
		t.Fatalf("ccEDF energy %v not below noDVS energy %v", e["ccEDF"], e["noDVS"])
	}
	if e["laEDF"] >= e["noDVS"] {
		t.Fatalf("laEDF energy %v not below noDVS energy %v", e["laEDF"], e["noDVS"])
	}
	if e["laEDF"] > e["ccEDF"]*1.05 {
		t.Fatalf("laEDF energy %v much above ccEDF energy %v", e["laEDF"], e["ccEDF"])
	}
}

func TestExecutedCyclesMatchActualWork(t *testing.T) {
	// With a fixed-fraction execution model the executed cycles must equal
	// the sum of actuals over all released jobs.
	fmaxHz := 1e9
	sys := figure5System(fmaxHz)
	frac := 0.5
	res, err := Run(Config{
		System:    sys,
		DVS:       dvs.NewCCEDF(),
		Execution: &taskgraph.FixedFractionExecution{Fraction: frac},
		Horizon:   100,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Released work: T1 5 jobs * 5e9, T2 2 * 5e9, T3 1 * 15e9 = 50e9 cycles
	// worst case; actual = half of that.
	want := frac * 50e9
	if math.Abs(res.ExecutedCycles-want) > 1e3 {
		t.Fatalf("executed cycles = %v, want %v", res.ExecutedCycles, want)
	}
	if res.NodesCompleted != 5+2+3 {
		t.Fatalf("nodes completed = %d, want 10", res.NodesCompleted)
	}
}

func TestPrecedenceRespectedInTrace(t *testing.T) {
	// In a chain a->b->c, every slice of b must start after the last slice of
	// a ends, and c after b.
	g := taskgraph.NewGraph("C", 1)
	g.AddNode("C.a", 0.2e9)
	g.AddNode("C.b", 0.2e9)
	g.AddNode("C.c", 0.2e9)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	sys := taskgraph.NewSystem(g)
	res, err := Run(Config{
		System:      sys,
		DVS:         dvs.NewLAEDF(),
		Priority:    priority.NewPUBS(),
		ReadyPolicy: AllReleased,
		Execution:   taskgraph.NewUniformExecution(0.2, 1.0, 11),
		Horizon:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadlineMisses != 0 {
		t.Fatalf("misses = %d", res.DeadlineMisses)
	}
	// Check per job index: end(a) <= start(b) <= end(b) <= start(c).
	type span struct{ start, end float64 }
	spans := map[int]map[int]*span{} // job -> node -> span
	for _, s := range res.Trace.Slices {
		if s.Idle {
			continue
		}
		if spans[s.Instance] == nil {
			spans[s.Instance] = map[int]*span{}
		}
		sp := spans[s.Instance][s.Node]
		if sp == nil {
			spans[s.Instance][s.Node] = &span{start: s.Start, end: s.End()}
		} else {
			if s.Start < sp.start {
				sp.start = s.Start
			}
			if s.End() > sp.end {
				sp.end = s.End()
			}
		}
	}
	for job, m := range spans {
		a, b, c := m[0], m[1], m[2]
		if a == nil || b == nil || c == nil {
			t.Fatalf("job %d: missing node executions", job)
		}
		if a.end > b.start+1e-9 || b.end > c.start+1e-9 {
			t.Fatalf("job %d: precedence violated (a:%v b:%v c:%v)", job, *a, *b, *c)
		}
	}
}

func TestPerGraphStatistics(t *testing.T) {
	sys := figure5System(1e9)
	res, err := Run(Config{
		System:    sys,
		DVS:       dvs.NewCCEDF(),
		Execution: taskgraph.WorstCaseExecution{},
		Horizon:   100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerGraph) != 3 {
		t.Fatalf("PerGraph entries = %d, want 3", len(res.PerGraph))
	}
	wantJobs := map[string]int{"T1": 5, "T2": 2, "T3": 1}
	var totalJobs, totalMisses int
	for _, g := range res.PerGraph {
		if want, ok := wantJobs[g.Name]; ok && g.Jobs != want {
			t.Fatalf("%s: jobs = %d, want %d", g.Name, g.Jobs, want)
		}
		if g.Misses != 0 {
			t.Fatalf("%s: misses = %d", g.Name, g.Misses)
		}
		if g.MaxResponse <= 0 || g.AvgResponse <= 0 || g.MaxResponse < g.AvgResponse-1e-9 {
			t.Fatalf("%s: response stats inconsistent: %+v", g.Name, g)
		}
		if g.AvgLaxity < -1e-9 {
			t.Fatalf("%s: negative laxity %v", g.Name, g.AvgLaxity)
		}
		totalJobs += g.Jobs
		totalMisses += g.Misses
	}
	if totalJobs != res.JobsReleased {
		t.Fatalf("per-graph jobs %d != released %d", totalJobs, res.JobsReleased)
	}
	if totalMisses != res.DeadlineMisses {
		t.Fatalf("per-graph misses %d != total %d", totalMisses, res.DeadlineMisses)
	}
}

func TestDiscreteCeilFrequencyMode(t *testing.T) {
	proc := processor.Default()
	sys := figure5System(proc.FMax())
	ceil, err := Run(Config{
		System:        sys.Clone(),
		Processor:     proc,
		DVS:           dvs.NewCCEDF(),
		FrequencyMode: DiscreteCeilFrequency,
		Execution:     taskgraph.WorstCaseExecution{},
		Horizon:       100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ceil.DeadlineMisses != 0 {
		t.Fatalf("misses = %d", ceil.DeadlineMisses)
	}
	// Ceil quantisation only uses supported points and never runs below fref,
	// so with fref = 0.5 GHz everything runs at exactly 0.5 GHz here.
	supported := map[float64]bool{}
	for _, p := range proc.Points {
		supported[p.Frequency] = true
	}
	for _, s := range ceil.Trace.Slices {
		if !s.Idle && !supported[s.Frequency] {
			t.Fatalf("unsupported frequency %v", s.Frequency)
		}
	}
	// Ablation check: the linear-combination realisation never uses more
	// battery energy than ceil quantisation (it is optimal per the paper's
	// reference [4]).
	linear, err := Run(Config{
		System:        sys.Clone(),
		Processor:     proc,
		DVS:           dvs.NewCCEDF(),
		FrequencyMode: DiscreteFrequency,
		Execution:     taskgraph.NewUniformExecution(0.2, 1.0, 5),
		Horizon:       100,
	})
	if err != nil {
		t.Fatal(err)
	}
	ceil2, err := Run(Config{
		System:        sys.Clone(),
		Processor:     proc,
		DVS:           dvs.NewCCEDF(),
		FrequencyMode: DiscreteCeilFrequency,
		Execution:     taskgraph.NewUniformExecution(0.2, 1.0, 5),
		Horizon:       100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if linear.EnergyBattery > ceil2.EnergyBattery+1e-9 {
		t.Fatalf("linear-combination energy %v exceeds ceil energy %v", linear.EnergyBattery, ceil2.EnergyBattery)
	}
	if DiscreteCeilFrequency.String() != "discrete-ceil" {
		t.Fatal("DiscreteCeilFrequency string wrong")
	}
}

// Property: for random workloads, any combination of DVS algorithm, priority
// function and ready policy meets every deadline and keeps the bookkeeping
// consistent (busy+idle = horizon, jobs completed = jobs released).
func TestNoDeadlineMissProperty(t *testing.T) {
	algs := []dvs.Algorithm{dvs.NewNoDVS(), dvs.NewCCEDF(), dvs.NewLAEDF(), dvs.NewStatic()}
	prios := []priority.Function{priority.NewPUBS(), priority.NewLTF(), priority.NewSTF(), priority.NewRandom(), priority.NewFIFO()}
	policies := []ReadyPolicy{MostImminentOnly, AllReleased}
	modes := []FrequencyMode{ContinuousFrequency, DiscreteFrequency}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nGraphs := 1 + rng.Intn(4)
		util := 0.3 + rng.Float64()*0.65 // up to 95 % utilisation
		sys, err := tgff.GenerateSystem(tgff.DefaultConfig(), nGraphs, util, 1e9, rng)
		if err != nil {
			return false
		}
		cfg := Config{
			System:        sys,
			DVS:           algs[rng.Intn(len(algs))],
			Priority:      prios[rng.Intn(len(prios))],
			ReadyPolicy:   policies[rng.Intn(len(policies))],
			FrequencyMode: modes[rng.Intn(len(modes))],
			Execution:     taskgraph.NewUniformExecution(0.2, 1.0, seed),
			Hyperperiods:  1,
			Seed:          seed,
		}
		res, err := Run(cfg)
		if err != nil {
			return false
		}
		if res.DeadlineMisses != 0 {
			return false
		}
		if res.JobsCompleted != res.JobsReleased {
			return false
		}
		if math.Abs(res.BusyTime+res.IdleTime-res.Horizon) > 1e-6*res.Horizon {
			return false
		}
		if res.EnergyBattery < 0 || math.IsNaN(res.EnergyBattery) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// countingEstimator is a history estimator that counts the calls it gets.
type countingEstimator struct {
	*priority.HistoryEstimator
	estimates, observes int
}

func (c *countingEstimator) Estimate(graphIndex, nodeID int, wcet float64) float64 {
	c.estimates++
	return c.HistoryEstimator.Estimate(graphIndex, nodeID, wcet)
}

func (c *countingEstimator) Observe(graphIndex, nodeID int, wcet, actual float64) {
	c.observes++
	c.HistoryEstimator.Observe(graphIndex, nodeID, wcet, actual)
}

// wrappedPUBS is pUBS under a type priority.ReadsEstimate cannot recognise.
type wrappedPUBS struct{ priority.PUBS }

// TestEstimatorAskedOnlyForReaders runs every priority function of the
// priority package under BAS-1's and BAS-2's ready policies with a counting
// estimator. Random, FIFO, LTF, STF and pUBS on oracle estimates read no
// estimate, so the engine neither asks nor feeds the estimator. A function
// the package cannot recognise is a reader: wrapped pUBS gives results bit
// for bit pUBS's, asks the estimator as often, and feeds it once per
// completed node.
func TestEstimatorAskedOnlyForReaders(t *testing.T) {
	sys, err := tgff.GenerateSystem(tgff.DefaultConfig(), 5, 0.7, 1e9, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	run := func(prio priority.Function, policy ReadyPolicy, oracle bool) (*Result, *countingEstimator) {
		t.Helper()
		est := &countingEstimator{HistoryEstimator: priority.NewHistoryEstimator(0.5)}
		res, err := Run(Config{
			System:          sys,
			DVS:             dvs.NewLAEDF(),
			Priority:        prio,
			Estimator:       est,
			OracleEstimates: oracle,
			ReadyPolicy:     policy,
			FrequencyMode:   DiscreteFrequency,
			Hyperperiods:    2,
			Seed:            3,
			Observer:        Discard,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, est
	}
	for _, policy := range []ReadyPolicy{MostImminentOnly, AllReleased} {
		for _, prio := range []priority.Function{priority.NewRandom(), priority.NewFIFO(), priority.NewLTF(), priority.NewSTF()} {
			if _, est := run(prio, policy, false); est.estimates != 0 || est.observes != 0 {
				t.Errorf("%s/%v: %d estimates and %d observations, want none", prio.Name(), policy, est.estimates, est.observes)
			}
		}
		if _, est := run(priority.NewPUBS(), policy, true); est.estimates != 0 || est.observes != 0 {
			t.Errorf("oracle pUBS/%v: %d estimates and %d observations, want none", policy, est.estimates, est.observes)
		}
		want, wantEst := run(priority.NewPUBS(), policy, false)
		got, gotEst := run(wrappedPUBS{}, policy, false)
		equalResults(t, "wrapped pUBS/"+policy.String(), want, got)
		if gotEst.estimates == 0 || gotEst.estimates != wantEst.estimates {
			t.Errorf("wrapped pUBS/%v: %d estimates, pUBS %d", policy, gotEst.estimates, wantEst.estimates)
		}
		if gotEst.observes != got.NodesCompleted || wantEst.observes != want.NodesCompleted {
			t.Errorf("%v: %d and %d observations (wrapped, pUBS), want one per completed node (%d and %d)",
				policy, gotEst.observes, wantEst.observes, got.NodesCompleted, want.NodesCompleted)
		}
	}
}
