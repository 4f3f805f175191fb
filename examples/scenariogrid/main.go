// Command scenariogrid demonstrates the parallel experiment runner through
// the public battsched API: it sweeps the (utilisation × battery × scheme)
// scenario grid on all cores, then uses ParallelMap directly for a custom
// seeded sweep, showing that results are identical at any worker count.
package main

import (
	"context"
	"fmt"
	"log"

	"battsched"
)

func main() {
	ctx := context.Background()

	// Sweep two utilisation points of the paper's Table 2 setting over two
	// battery models. The grid runs on all cores; per-cell workloads derive
	// from (seed, utilisation, set), so any -parallel level gives the same
	// report.
	cfg := battsched.DefaultScenarioGridConfig()
	cfg.Utilizations = []float64{0.5, 0.7}
	cfg.Batteries = []string{"kibam"}
	cfg.Schemes = []string{"EDF", "BAS-2"}
	cfg.Sets = 4
	rep, err := battsched.RunScenarioGrid(ctx, cfg)
	if err != nil {
		log.Fatal(err)
	}
	table, err := battsched.FormatExperimentReport(rep)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(table)

	// ParallelMap is the underlying harness: n independent jobs, results in
	// job order. DeriveSeed gives each job its own random stream.
	lifetimes, err := battsched.ParallelMap(ctx, 4, battsched.RunnerOptions{}, func(_ context.Context, i int) (float64, error) {
		rng := battsched.SeededRNG(7, int64(i))
		sys, err := battsched.GenerateSystem(battsched.DefaultGeneratorConfig(), 3, 0.7, battsched.DefaultProcessor().FMax(), rng)
		if err != nil {
			return 0, err
		}
		scheme := battsched.BAS2()
		res, err := battsched.Run(battsched.Config{
			System:       sys,
			DVS:          scheme.DVS,
			Priority:     scheme.Priority,
			ReadyPolicy:  scheme.ReadyPolicy,
			Execution:    battsched.NewUniformExecution(0.2, 1.0, battsched.DeriveSeed(7, int64(i))),
			Hyperperiods: 2,
			Seed:         battsched.DeriveSeed(7, int64(i)),
		})
		if err != nil {
			return 0, err
		}
		life, err := battsched.BatteryLifetimeOpts(battsched.NewKiBaM(), res.Profile,
			battsched.BatterySimulateOptions{MaxTime: 72 * 3600})
		if err != nil {
			return 0, err
		}
		return life.LifetimeMinutes(), nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nBAS-2 lifetimes of 4 independent seeded workloads (min):")
	for i, l := range lifetimes {
		fmt.Printf("  workload %d: %.1f\n", i, l)
	}
}
