// Command basched runs one battery-aware scheduling simulation: it reads (or
// generates) a periodic task-graph workload, schedules it with the selected
// DVS algorithm, priority function and ready-list policy, prints the
// scheduling statistics, optionally renders the execution trace as an ASCII
// Gantt chart, writes the load-current profile as CSV and evaluates the
// profile on a battery model.
//
// Recording is configurable: by default the full execution trace and load
// profile are kept; -notrace records the profile only, and -noprofile skips
// recording entirely (scheduling statistics and energy totals are always
// computed by the engine itself).
//
// Examples:
//
//	basched -random 5 -utilization 0.7 -dvs laEDF -priority pubs -ready all -battery stochastic
//	basched -workload workload.json -dvs ccEDF -priority fifo -trace
//	basched -random 8 -noprofile -battery none
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"battsched"
	"battsched/internal/experiments"
	"battsched/internal/taskgraph"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "basched:", err)
		os.Exit(1)
	}
}

// parseDVS maps a flag value to a DVS algorithm.
func parseDVS(name string) (battsched.DVSAlgorithm, error) {
	switch strings.ToLower(name) {
	case "nodvs", "none", "edf":
		return battsched.NewNoDVS(), nil
	case "static":
		return battsched.NewStaticEDF(), nil
	case "ccedf", "cc":
		return battsched.NewCCEDF(), nil
	case "laedf", "la":
		return battsched.NewLAEDF(), nil
	default:
		return nil, fmt.Errorf("unknown DVS algorithm %q (want noDVS, static, ccEDF or laEDF)", name)
	}
}

// parsePriority maps a flag value to a priority function.
func parsePriority(name string) (battsched.PriorityFunction, error) {
	switch strings.ToLower(name) {
	case "pubs":
		return battsched.NewPUBS(), nil
	case "ltf":
		return battsched.NewLTF(), nil
	case "stf":
		return battsched.NewSTF(), nil
	case "random":
		return battsched.NewRandomOrder(), nil
	case "fifo", "edf":
		return battsched.NewFIFO(), nil
	default:
		return nil, fmt.Errorf("unknown priority function %q (want pubs, ltf, stf, random or fifo)", name)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("basched", flag.ContinueOnError)
	var (
		workload     = fs.String("workload", "", "JSON workload file (see cmd/tgffgen); empty generates a random one")
		randomGraphs = fs.Int("random", 5, "number of random graphs when no workload file is given")
		utilization  = fs.Float64("utilization", 0.7, "worst-case utilisation for generated workloads")
		dvsName      = fs.String("dvs", "laEDF", "DVS algorithm: noDVS, static, ccEDF, laEDF")
		prioName     = fs.String("priority", "pubs", "priority function: pubs, ltf, stf, random, fifo")
		ready        = fs.String("ready", "all", "ready-list policy: imminent (BAS-1) or all (BAS-2)")
		mode         = fs.String("mode", "discrete", "frequency realisation: continuous or discrete")
		hyperperiods = fs.Int("hyperperiods", 4, "number of hyperperiods to simulate")
		seed         = fs.Int64("seed", 1, "random seed")
		batteryName  = fs.String("battery", "stochastic", "battery model: stochastic, kibam, diffusion, peukert or none")
		maxStep      = fs.Float64("maxstep", 0, "battery-simulation substep in seconds forcing the uniform-stepping path; 0 selects the analytic fast path for closed-form models (the stochastic model then steps at 1 s)")
		showTrace    = fs.Bool("trace", false, "render the execution trace as an ASCII Gantt chart")
		profileOut   = fs.String("profile-out", "", "write the load-current profile as CSV to this file")
		noTrace      = fs.Bool("notrace", false, "skip execution-trace recording (profile and statistics only)")
		noProfile    = fs.Bool("noprofile", false, "skip profile and trace recording entirely (statistics and energy only; implies -notrace, disables -profile-out and the battery evaluation)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showTrace && (*noTrace || *noProfile) {
		return errors.New("-trace is incompatible with -notrace/-noprofile")
	}
	if *profileOut != "" && *noProfile {
		return errors.New("-profile-out is incompatible with -noprofile")
	}

	proc := battsched.DefaultProcessor()
	var sys *battsched.System
	if *workload != "" {
		f, err := os.Open(*workload)
		if err != nil {
			return err
		}
		defer f.Close()
		if sys, err = taskgraph.ReadJSON(f, proc.FMax()); err != nil {
			return err
		}
	} else {
		rng := rand.New(rand.NewSource(*seed))
		var err error
		sys, err = battsched.GenerateSystem(battsched.DefaultGeneratorConfig(), *randomGraphs, *utilization, proc.FMax(), rng)
		if err != nil {
			return err
		}
	}

	alg, err := parseDVS(*dvsName)
	if err != nil {
		return err
	}
	prio, err := parsePriority(*prioName)
	if err != nil {
		return err
	}
	policy := battsched.AllReleased
	switch strings.ToLower(*ready) {
	case "all", "all-released":
		policy = battsched.AllReleased
	case "imminent", "most-imminent":
		policy = battsched.MostImminentOnly
	default:
		return fmt.Errorf("unknown ready-list policy %q (want imminent or all)", *ready)
	}
	fmode := battsched.DiscreteFrequency
	switch strings.ToLower(*mode) {
	case "discrete":
		fmode = battsched.DiscreteFrequency
	case "continuous", "ideal":
		fmode = battsched.ContinuousFrequency
	default:
		return fmt.Errorf("unknown frequency mode %q (want continuous or discrete)", *mode)
	}

	// The observer selects how much execution history is recorded: full
	// profile + trace by default, profile-only with -notrace, aggregates
	// only with -noprofile (the engine computes energy totals regardless).
	var observer battsched.SegmentSink
	switch {
	case *noProfile:
		observer = battsched.DiscardSegments
	case *noTrace:
		observer = battsched.NewSimProfileRecorder()
	}
	res, err := battsched.Run(battsched.Config{
		System:        sys,
		Processor:     proc,
		DVS:           alg,
		Priority:      prio,
		ReadyPolicy:   policy,
		FrequencyMode: fmode,
		Execution:     battsched.NewUniformExecution(0.2, 1.0, *seed),
		Hyperperiods:  *hyperperiods,
		Seed:          *seed,
		Observer:      observer,
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "workload: %d graphs, %d nodes, utilisation %.3f, hyperperiod %.4gs\n",
		sys.NumGraphs(), sys.TotalNodes(), sys.Utilization(proc.FMax()), sys.Hyperperiod())
	fmt.Fprintf(stdout, "scheme:   dvs=%s priority=%s ready=%s mode=%s\n", alg.Name(), prio.Name(), policy, fmode)
	fmt.Fprintf(stdout, "horizon:  %.4gs  busy=%.4gs idle=%.4gs  avg frequency=%.3g Hz\n",
		res.Horizon, res.BusyTime, res.IdleTime, res.AverageFrequency)
	fmt.Fprintf(stdout, "jobs:     released=%d completed=%d nodes=%d deadline misses=%d preemptions=%d out-of-order=%d\n",
		res.JobsReleased, res.JobsCompleted, res.NodesCompleted, res.DeadlineMisses, res.Preemptions, res.OutOfOrderExecutions)
	avgCurrent := 0.0
	if res.Profile != nil {
		avgCurrent = res.Profile.AverageCurrent()
	} else if proc.BatteryVoltage > 0 && res.Horizon > 0 {
		// No profile recorded: derive the average current from the energy
		// total the engine accumulates regardless of the observer.
		avgCurrent = res.EnergyBattery / (proc.BatteryVoltage * res.Horizon)
	}
	fmt.Fprintf(stdout, "energy:   battery=%.4g J  processor=%.4g J  avg power=%.4g W  avg current=%.4g A\n",
		res.EnergyBattery, res.EnergyProcessor, res.AveragePower(), avgCurrent)

	if *showTrace {
		fmt.Fprintln(stdout)
		if err := res.Trace.Render(stdout, battsched.GanttOptions{Width: 100, ShowFrequency: true}); err != nil {
			return err
		}
	}
	if *profileOut != "" {
		f, err := os.Create(*profileOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := res.Profile.WriteCSV(f); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "profile:  %d segments written to %s\n", len(res.Profile.Segments), *profileOut)
	}

	if *noProfile {
		if strings.ToLower(*batteryName) != "none" {
			fmt.Fprintln(stdout, "battery:  skipped (-noprofile records no load profile)")
		}
		return nil
	}
	if strings.ToLower(*batteryName) != "none" {
		factory, err := experiments.NamedBatteryFactory(strings.ToLower(*batteryName))
		if err != nil {
			return err
		}
		life, err := battsched.BatteryLifetimeOpts(factory(), res.Profile, battsched.BatterySimulateOptions{MaxTime: 72 * 3600, MaxStep: *maxStep})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "battery:  model=%s lifetime=%.1f min  charge delivered=%.0f mAh (exhausted=%v)\n",
			*batteryName, life.LifetimeMinutes(), life.DeliveredMAh(), life.Exhausted)
	}
	return nil
}
