// Package battsched is a battery-aware dynamic scheduler for periodic task
// graphs on a single DVS-capable processor. It reproduces the methodology of
//
//	"Battery Aware Dynamic Scheduling for Periodic Task Graphs"
//	V. Rao, N. Navet, G. Singhal, A. Kumar, G.S. Visweswaran
//	14th Int. Workshop on Parallel and Distributed Real-Time Systems, 2006.
//
// The library combines three ingredients:
//
//   - an EDF-based DVS algorithm (ccEDF or laEDF, extended to task graphs)
//     that selects the reference frequency guaranteeing every deadline,
//   - a greedy priority function (Gruian's pUBS, or LTF/STF/Random baselines)
//     that picks which ready node to execute next so as to maximise slack
//     recovery, optionally drawing candidates from all released task graphs
//     guarded by the paper's feasibility check (the BAS-2 policy), and
//   - battery models (KiBaM, Rakhmatov–Vrudhula diffusion, a stochastic
//     charge-unit model and Peukert's law) that evaluate the resulting load
//     current profiles for delivered charge and battery lifetime.
//
// The root package is a facade over the internal packages: it re-exports the
// types needed to describe workloads, configure a simulation, run it and
// evaluate the resulting profile on a battery. The examples/ directory shows
// complete programs; the internal/experiments package regenerates the tables
// and figures of the paper.
//
// # Simulation observers
//
// The engine reports what it executed through a SegmentSink observer: one
// constant-state segment (node, frequency, battery current — or idle) per
// interval of the simulation, in order. Config.Observer selects the sink.
// With a nil Observer the engine records the full load profile and execution
// trace into the Result, exactly as the interactive CLIs need; experiment
// sweeps pass NewSimProfileRecorder (profile only, for battery evaluation)
// or DiscardSegments (aggregates only). Energy totals, busy/idle times and
// scheduling statistics are accumulated by the engine itself and never
// depend on the observer, so disabling recording changes no reported number
// — it only removes the recording cost from the hot path. cmd/basched
// exposes the choice as -notrace / -noprofile.
//
// # Scheduling decisions
//
// At every release and node completion the engine selects the reference
// frequency from one view per released instance, kept in EDF order and in
// step with the instances, and offers the ready nodes to the priority
// function. pUBS asks, for each ready node, which frequency the DVS
// algorithm would select once that node completed. Under laEDF the engine
// computes laEDF's pass once per decision, and each such query redoes only
// the positions from the node's instance down to the earliest deadline: bit
// for bit what a full pass over an edited copy of the views gives. The
// engine asks and feeds the Estimator only for a priority function that
// reads estimates (pUBS, or any function defined outside the priority
// package) without oracle estimates. Each node instance then caches its
// Estimator estimate until the engine observes the same node of any
// instance, so an Estimator's Estimate must depend only on what it was told
// through Observe.
//
// # Analytic battery fast path
//
// BatteryLifetimeOpts dispatches on the model.
// Closed-form models (KiBaM, diffusion, Peukert) implement
// BatterySegmentDrainer and are simulated analytically: each constant-current
// profile segment is applied exactly in one closed-form update, each run of
// whole profile repetitions that a conservative check proves survivable is
// applied in one closed-form call (the k-fold power of the repetition map, in
// O(state) time for any k), and the exhaustion instant is located by Newton
// iteration (with a bisection safeguard) on the closed form. The stochastic
// model, evaluated in expected-value mode as in the paper, is analytic too:
// between recoveries the delivered charge advances deterministically, so the
// expected recovery collapses to closed-form geometric series, per step
// within a segment and per repetition across a run. Any other model takes
// the stepped path. Setting
// BatterySimulateOptions.MaxStep to a positive value forces the
// uniform-stepping path for every model (the reference the accuracy tests
// compare against); cmd/batsim and cmd/basched expose the choice as -maxstep.
// On representative periodic loads the analytic path is 33–350x faster than
// 2 s stepping (see the BenchmarkLifetime* benchmarks in internal/battery).
//
// BatteryLifetimeBatch evaluates N models against one profile, validating
// the profile once and running each model through the same dispatch, so it
// is bit-identical to N sequential BatteryLifetimeOpts calls; the experiment
// drivers and batsim's comma-separated -battery flag are built on it.
//
// # Parallel experiment runner
//
// Every stochastic sweep runs on a job-grid harness (internal/runner): the
// experiment's (set × scheme × sweep-point) grid is enumerated as independent
// jobs executed by a bounded worker pool. Each job derives its own random
// stream from the experiment seed and its grid coordinates with a
// SplitMix64-style mixer (DeriveSeed/SeededRNG), never from shared generator
// state. Results stream back in deterministic job order (a bounded reorder
// window, so the grid is never materialised) and the drivers fold them set
// by set into Welford accumulators (StatsAccumulator) — so results are
// byte-identical at any worker count:
//
//	go run ./cmd/experiments run table2              # all cores (the default)
//	go run ./cmd/experiments run table2 -parallel 1  # sequential, same output
//	go run ./cmd/experiments run all -progress -timeout 30m
//
// Experiment configurations embed ExperimentOptions (Parallel worker count,
// Progress callback, adaptive-stopping knobs); cmd/experiments exposes them
// as -parallel, -timeout, -progress, -ci and -max-sets flags (cmd/batsim's
// deterministic -curve sweep shares -parallel and -timeout). The harness is
// exported for custom sweeps via ParallelMap, DeriveSeed and SeededRNG, and
// RunScenarioGrid sweeps the (utilisation × battery model × scheme) grid that
// new workloads plug into, with the lists of utilisations, batteries and
// schemes of a ScenarioGridConfig. It returns the same ExperimentReport as
// RunExperiment("grid", ...): one row per cell, which FormatExperimentReport
// renders and whose cells a caller reads directly.
//
// # Unified experiment API
//
// Every experiment of the evaluation — Table 1, Figure 6, Table 2, the
// battery characterisation curve, the estimate-quality ablation and the
// scenario grid — is registered by name in an experiment registry and runs
// through one declarative surface: an ExperimentSpec in, an ExperimentReport
// out (RunExperiment; `cmd/experiments list` names them). A Report is named
// rows of metric cells backed by serialisable accumulator state
// (n/mean/M2/min/max, exact across JSON round-trips); the paper's plain-text
// tables render from it byte-identically (FormatExperimentReport) and
// cmd/experiments writes it as a versioned JSON artifact with -o. Battery
// models register the same way: importing a model package makes its name
// available to every -battery flag, and unknown names fail listing the valid
// ones.
//
// Because set seeds key on absolute set indices, a run shards exactly across
// processes or machines: -shard i/n (ExperimentShard) restricts a run to its
// contiguous slice of the set range and emits a partial report, and the CLI's
// merge subcommand combines all n partials into the complete run. Every
// shardable experiment retains its per-set samples, so the merge replays them
// in absolute order and reproduces the unsharded report bit-for-bit: a spec
// names one artifact at any shard split. Adaptive set counts (below) do not
// shard.
//
//	go run ./cmd/experiments run table2 -quick -shard 0/2 -o s0.json
//	go run ./cmd/experiments run table2 -quick -shard 1/2 -o s1.json
//	go run ./cmd/experiments merge -o merged.json s0.json s1.json
//
// # Adaptive set counts
//
// Every table cell the paper reports is a mean over random task-graph sets.
// Instead of guessing how many sets suffice, set ExperimentOptions.TargetCI
// (cmd/experiments -ci): the driver runs batches of sets — each batch the
// configured set count — until the Student-t 95 % confidence half-width of
// its key metric (battery lifetime for Table 2 and the scenario grid,
// normalised energy for Table 1/Figure 6/the ablation) is below the target
// relative to the mean for every reported row, bounded by MaxSets (default
// 8× the configured count). Set seeds depend only on the absolute set index,
// so adaptive runs are reproducible and their first batch matches the
// fixed-count run exactly. Each shard would judge convergence on its own
// samples, so an adaptive run does not shard; a capped run that never
// converges covers the sets of a fixed MaxSets run, which does.
//
// # Quick start
//
//	g := battsched.NewGraph("T1", 0.1)           // period = deadline = 100 ms
//	a := g.AddNode("decode", 20e6)               // WCET in cycles at f_max
//	b := g.AddNode("render", 30e6)
//	g.AddEdge(a, b)                              // precedence: decode -> render
//
//	res, err := battsched.Run(battsched.Config{
//	    System:      battsched.NewSystem(g),
//	    DVS:         battsched.NewLAEDF(),
//	    Priority:    battsched.NewPUBS(),
//	    ReadyPolicy: battsched.AllReleased,      // BAS-2
//	    Hyperperiods: 10,
//	})
//	if err != nil { ... }
//
//	life, err := battsched.BatteryLifetimeOpts(battsched.NewKiBaM(), res.Profile,
//	    battsched.BatterySimulateOptions{})
//	fmt.Println(res.EnergyBattery, life.LifetimeMinutes(), life.DeliveredMAh())
package battsched
