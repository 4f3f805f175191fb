package experiments

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Spec is the uniform declarative input of every registered experiment: one
// struct in, one Report out, for all six drivers. Zero values select each
// driver's defaults, so Spec{} runs the paper configuration and Spec{Quick:
// true} the reduced benchmark one. cmd/experiments builds a Spec from its
// flags and dispatches through Run; custom sweeps can do the same via the
// battsched facade.
type Spec struct {
	// Quick selects the reduced (benchmark) configuration.
	Quick bool
	// Seed overrides the experiment seed; 0 keeps the default (1).
	Seed int64
	// Sets overrides the per-row set/graph count of the stochastic
	// experiments (Table 2 sets, Table 1 DAGs per count, Figure 6 sets per
	// point, ablation sets, grid sets per cell); 0 keeps the default.
	Sets int
	// Utilization overrides the worst-case utilisation where the driver has
	// a single utilisation knob; 0 keeps the default. The scenario grid
	// sweeps a list of utilisations and ignores it.
	Utilization float64
	// Battery selects the battery model by registry name for the drivers
	// that evaluate batteries (Table 2, the scenario grid, the curve); ""
	// keeps each driver's default. Unknown names fail with the registry
	// error listing the valid names.
	Battery string
	// Oracle feeds pUBS the true actual requirements (Table 2, grid).
	Oracle bool
	// CCEDF selects ccEDF instead of laEDF for Figure 6 frequency setting.
	CCEDF bool
	// MaxStep forces the uniform-stepping battery simulation path with this
	// substep for the curve; 0 selects the analytic fast path.
	MaxStep float64
	// RunOptions tune parallelism, progress, adaptive stopping and sharding.
	RunOptions
}

// normalised returns the spec with each negative-zero float made +0. The
// drivers read -0 as 0 except where they echo a value into Meta, and the
// JSON wire spec omits zeros, so a -0 the daemon journals or forwards to a
// worker comes back as 0. Run and CanonicalSpec both normalise, which makes
// the two one spec with one address and one report.
func (s Spec) normalised() Spec {
	for _, v := range []*float64{&s.Utilization, &s.MaxStep, &s.TargetCI} {
		if *v == 0 {
			*v = 0
		}
	}
	return s
}

// Definition describes one registered experiment.
type Definition struct {
	// Name is the registry key ("table1", "figure6", "table2", "curve",
	// "ablation", "grid").
	Name string
	// Title is a one-line summary shown by the CLI's list command.
	Title string
	// Paper records the experiment's provenance in the source paper.
	Paper string
	// Shardable reports whether the experiment averages over stochastic
	// task-graph sets and therefore supports -shard (the deterministic curve
	// does not).
	Shardable bool
	// Run executes the experiment.
	Run func(ctx context.Context, spec Spec) (*Report, error)
}

var registry = map[string]Definition{}

// mustRegister adds an experiment definition; drivers call it from init.
func mustRegister(d Definition) {
	if d.Name == "" || d.Run == nil {
		panic(fmt.Sprintf("experiments: invalid registration %+v", d))
	}
	if _, dup := registry[d.Name]; dup {
		panic(fmt.Sprintf("experiments: Register(%q) called twice", d.Name))
	}
	registry[d.Name] = d
}

// Names returns the registered experiment names in sorted order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// PaperExperiments returns the names of the paper's own evaluation artifacts
// in the paper's order — what "run all" and the legacy -all flag expand to.
func PaperExperiments() []string { return []string{"table1", "figure6", "table2", "curve"} }

// Lookup resolves an experiment name; unknown names return an error listing
// the registered names.
func Lookup(name string) (Definition, error) {
	d, ok := registry[name]
	if !ok {
		return Definition{}, fmt.Errorf("%w: unknown experiment %q (registered: %s)",
			ErrBadConfig, name, strings.Join(Names(), ", "))
	}
	return d, nil
}

// Check is the one decision whether d may run spec, which Run, the daemon's
// admission and the CLI's run and submit all call before anything runs or
// is sent. A TargetCI that is NaN, infinite or negative means nothing and is
// refused (0 disables adaptive set counts). sharded says whether the run is
// split: a -shard slice, a daemon's shard unit, or a job a daemon fans out
// over shards; an unsplit run always may be. The deterministic curve has no
// sets to split. Adaptive set counts (TargetCI) do not shard either: each
// shard would judge convergence on its own samples, so the merge could cover
// more sets than the unsharded run it is cached as. A capped adaptive run
// that never converges covers the sets of a fixed MaxSets run, which shards.
func (d Definition) Check(spec Spec, sharded bool) error {
	if sharded && !d.Shardable {
		return fmt.Errorf("%w: experiment %q is deterministic and does not shard", ErrBadConfig, d.Name)
	}
	return spec.check(sharded)
}

// Run executes the named experiment with the given spec and returns its
// Report — the single entry point the CLI and the battsched facade dispatch
// through.
func Run(ctx context.Context, name string, spec Spec) (*Report, error) {
	d, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	if err := spec.Shard.validate(); err != nil {
		return nil, err
	}
	if err := d.Check(spec, spec.Shard.Enabled()); err != nil {
		return nil, err
	}
	return d.Run(ctx, spec.normalised())
}

// formatFloat renders a float for Meta, labels and keys with the shortest
// representation that parses back to the identical bits.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// metaFloat parses a float Meta entry written by formatFloat.
func metaFloat(meta map[string]string, key string) float64 {
	v, _ := strconv.ParseFloat(meta[key], 64)
	return v
}

// shardInfo converts a Shard into the Report field (nil when unsharded).
func shardInfo(s Shard) *ShardInfo {
	if !s.Enabled() {
		return nil
	}
	return &ShardInfo{Index: s.Index, Count: s.Count}
}
