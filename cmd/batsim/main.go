// Command batsim evaluates battery models: it either plays a load-current
// profile (CSV produced by cmd/basched) or a constant load against a chosen
// battery model and reports lifetime and delivered charge, or sweeps constant
// loads to produce the load versus delivered-capacity characterisation curve
// referenced in Section 5 of the paper.
//
// Examples:
//
//	batsim -profile profile.csv -battery kibam
//	batsim -current 1.2 -battery stochastic
//	batsim -current 1.2 -battery stochastic,kibam,diffusion,peukert
//	batsim -curve
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"battsched"
	"battsched/internal/experiments"
	"battsched/internal/profile"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "batsim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("batsim", flag.ContinueOnError)
	var (
		profilePath = fs.String("profile", "", "load profile CSV (start_s,duration_s,current_a)")
		current     = fs.Float64("current", 0, "constant load current in amperes (used when no profile is given)")
		duration    = fs.Float64("duration", 60, "duration of the constant-load segment in seconds")
		batteryName = fs.String("battery", "stochastic", "comma-separated battery models (stochastic, kibam, diffusion, peukert), all evaluated in one batch pass")
		curve       = fs.Bool("curve", false, "sweep constant loads and print the delivered-capacity curve for all models")
		maxHours    = fs.Float64("max-hours", 72, "simulation horizon in hours")
		maxStep     = fs.Float64("maxstep", 0, "substep in seconds forcing the uniform-stepping path; 0 selects the analytic fast path for closed-form models (the stochastic model then steps at 1 s)")
		parallel    = fs.Int("parallel", 0, "worker count for the -curve sweep (<= 0: all cores, 1: sequential)")
		timeout     = fs.Duration("timeout", 0, "abort the -curve sweep after this duration (0: no limit; single -profile/-current runs are bounded by -max-hours instead)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *curve {
		cfg := experiments.DefaultCurveConfig()
		cfg.MaxHours = *maxHours
		cfg.MaxStep = *maxStep
		cfg.Parallel = *parallel
		rep, err := experiments.RunLoadCapacityCurve(ctx, cfg)
		if err != nil {
			return err
		}
		table, err := experiments.FormatReport(rep)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, table)
		return nil
	}

	var p *battsched.Profile
	switch {
	case *profilePath != "":
		f, err := os.Open(*profilePath)
		if err != nil {
			return err
		}
		defer f.Close()
		p, err = profile.ReadCSV(f)
		if err != nil {
			return err
		}
	case *current > 0:
		p = profile.Constant(*current, *duration)
	default:
		return fmt.Errorf("either -profile, -current or -curve is required")
	}

	// -battery accepts a comma list; all models are evaluated against the one
	// profile in a single batch pass.
	var models []battsched.BatteryModel
	for _, name := range strings.Split(*batteryName, ",") {
		name = strings.ToLower(strings.TrimSpace(name))
		if name == "" {
			continue
		}
		factory, err := experiments.NamedBatteryFactory(name)
		if err != nil {
			return err
		}
		models = append(models, factory())
	}
	if len(models) == 0 {
		return fmt.Errorf("-battery lists no model names")
	}
	results, err := battsched.BatteryLifetimeBatch(models, p, battsched.BatterySimulateOptions{MaxTime: *maxHours * 3600, MaxStep: *maxStep})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "profile:  duration=%.4gs avg current=%.4g A peak=%.4g A charge/cycle=%.4g mAh\n",
		p.Duration(), p.AverageCurrent(), p.PeakCurrent(), p.ChargeMAh())
	for i, m := range models {
		res := results[i]
		fmt.Fprintf(stdout, "battery:  %s (max capacity %.0f mAh)\n", m.Name(), battsched.MAh(m.MaxCapacity()))
		fmt.Fprintf(stdout, "result:   lifetime=%.1f min  delivered=%.0f mAh  exhausted=%v  repetitions=%d\n",
			res.LifetimeMinutes(), res.DeliveredMAh(), res.Exhausted, res.Repetitions)
	}
	return nil
}
