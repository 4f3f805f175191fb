package experiments

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"battsched/internal/runner"
	"battsched/internal/stats"
)

// RunOptions are the execution knobs shared by every experiment driver. They
// are embedded in each experiment's config, so the zero value (full
// parallelism, no progress reporting, fixed set counts) is always usable.
//
// All experiments enumerate their (set × scheme × sweep-point) grid as
// independent jobs of the internal/runner harness. Jobs stream back in
// deterministic job order (runner.RunStream) and the drivers fold them set by
// set into accumulators as they arrive, so no driver materialises its result
// grid and every experiment is byte-identical at any Parallel value.
type RunOptions struct {
	// Parallel is the worker-pool size; <= 0 selects runtime.GOMAXPROCS(0)
	// and 1 forces sequential execution.
	Parallel int
	// Progress, when non-nil, is called after each completed job with the
	// completed and total job counts. It must be fast and is called from
	// worker goroutines (serialised). Under adaptive stopping the callback
	// restarts from zero for each batch of sets.
	Progress func(done, total int)
	// TargetCI enables adaptive set counts: the driver runs batches of sets
	// (each the size of the configured set count) until the relative
	// Student-t CI95 half-width of its key metric falls below TargetCI for
	// every reported row, or MaxSets is reached. 0 disables adaptive
	// stopping, running exactly the configured set count; a NaN, infinite
	// or negative target is refused with ErrBadConfig. Deterministic
	// experiments without stochastic sets (the battery curve) ignore it.
	TargetCI float64
	// MaxSets is the hard cap on the adaptively grown set count; 0 selects
	// 8× the configured count. It never shrinks below the configured count.
	MaxSets int
	// Shard restricts the run to one shard of a multi-process partition of
	// the absolute set indices (the zero value runs everything). The driver
	// then emits a partial Report that MergeReports combines with the other
	// shards' partials into the complete run. A sharded run needs fixed set
	// counts (TargetCI 0; see Definition.Check).
	Shard Shard
}

// Shard selects shard Index of Count contiguous partitions of the run's
// absolute set-index range. Set seeds key on the absolute index, so the
// shards of a run are exact partitions of the unsharded run's samples:
// merging all partials reproduces the single-process report bit for bit.
// Adaptive stopping (TargetCI) does not shard, because each shard would
// judge convergence on its own samples (Definition.Check).
type Shard struct {
	// Index is the shard number in [0, Count).
	Index int
	// Count is the total number of shards; 0 or 1 disables sharding.
	Count int
}

// Enabled reports whether the shard actually restricts the run.
func (s Shard) Enabled() bool { return s.Count > 1 }

// validate checks the index range.
func (s Shard) validate() error {
	if s.Count < 0 || (s.Count > 0 && (s.Index < 0 || s.Index >= s.Count)) {
		return fmt.Errorf("%w: shard %d/%d", ErrBadConfig, s.Index, s.Count)
	}
	return nil
}

// String renders the CLI form ("1/4"; "" when unsharded).
func (s Shard) String() string {
	if !s.Enabled() {
		return ""
	}
	return fmt.Sprintf("%d/%d", s.Index, s.Count)
}

// slice returns the shard's contiguous sub-range of the absolute set range
// [lo, hi). The Count slices of a range are an exact partition; a shard's
// slice may be empty when the range has fewer sets than shards.
func (s Shard) slice(lo, hi int) (int, int) {
	if !s.Enabled() {
		return lo, hi
	}
	n := hi - lo
	return lo + s.Index*n/s.Count, lo + (s.Index+1)*n/s.Count
}

// ParseShard parses the CLI form "i/n" (e.g. "0/4"); the empty string is the
// unsharded zero value.
func ParseShard(s string) (Shard, error) {
	if s == "" {
		return Shard{}, nil
	}
	idx, count, ok := strings.Cut(s, "/")
	if !ok {
		return Shard{}, fmt.Errorf("%w: shard %q (want i/n, e.g. 0/4)", ErrBadConfig, s)
	}
	i, err1 := strconv.Atoi(idx)
	n, err2 := strconv.Atoi(count)
	if err1 != nil || err2 != nil {
		return Shard{}, fmt.Errorf("%w: shard %q (want i/n, e.g. 0/4)", ErrBadConfig, s)
	}
	sh := Shard{Index: i, Count: n}
	if err := sh.validate(); err != nil {
		return Shard{}, err
	}
	if sh.Count == 0 && sh.Index != 0 {
		return Shard{}, fmt.Errorf("%w: shard %q", ErrBadConfig, s)
	}
	return sh, nil
}

// check refuses a TargetCI that means nothing (NaN, infinite or negative)
// and adaptive set counts on a sharded run (see Definition.Check).
func (o RunOptions) check(sharded bool) error {
	if math.IsNaN(o.TargetCI) || math.IsInf(o.TargetCI, 0) || o.TargetCI < 0 {
		return fmt.Errorf("%w: target CI %v, want a finite relative CI95 half-width > 0, or 0 for fixed set counts", ErrBadConfig, o.TargetCI)
	}
	if sharded && o.TargetCI > 0 {
		return fmt.Errorf("%w: a run with adaptive set counts (target CI %v) does not shard; use fixed set counts", ErrBadConfig, o.TargetCI)
	}
	return nil
}

// runnerOptions translates the experiment knobs for the runner harness.
func (o RunOptions) runnerOptions() runner.Options {
	return runner.Options{Parallelism: o.Parallel, Progress: o.Progress}
}

// adaptiveMax resolves the hard set-count cap for an initial (configured)
// count.
func (o RunOptions) adaptiveMax(initial int) int {
	if o.TargetCI <= 0 {
		return initial
	}
	if o.MaxSets > initial {
		return o.MaxSets
	}
	if o.MaxSets > 0 {
		return initial
	}
	return 8 * initial
}

// runAdaptiveSets runs batches of set indices until convergence: runBatch
// executes sets [lo, hi) (hi-lo is at most the configured initial count, and
// never zero), and conv inspects the caller's accumulators after each batch.
// With adaptive stopping disabled exactly one batch of the initial count
// runs, so fixed-set results are unchanged. With RunOptions.Shard set, that
// batch is restricted to the shard's contiguous slice of the range, so the
// shards of a run partition exactly the set indices the unsharded run
// executes. A shard whose slice is empty (more shards than sets) skips
// runBatch: its partial keeps empty cells, which merge as identity. Returns
// the total number of absolute set indices covered (across all shards).
//
// Convergence is all-rows-or-nothing by design: every row of a sweep keeps
// averaging over the same absolute set indices, so rows stay directly
// comparable (the paper's tables compare columns over identical workloads)
// and an adaptive run that stops at N sets reports bit for bit the samples a
// fixed N-set run folds, since every driver folds set by set in absolute
// order. The cost is that converged rows re-run alongside unconverged ones;
// per-row batching would save that work but make row sample counts diverge.
func runAdaptiveSets(o RunOptions, initial int, runBatch func(lo, hi int) error, conv func() bool) (int, error) {
	if err := o.Shard.validate(); err != nil {
		return 0, err
	}
	if err := o.check(o.Shard.Enabled()); err != nil {
		return 0, err
	}
	max := o.adaptiveMax(initial)
	total := 0
	for total < max {
		hi := total + initial
		if hi > max {
			hi = max
		}
		if sLo, sHi := o.Shard.slice(total, hi); sLo < sHi {
			if err := runBatch(sLo, sHi); err != nil {
				return total, err
			}
		}
		total = hi
		if o.TargetCI <= 0 || conv() {
			break
		}
	}
	return total, nil
}

// converged reports whether every accumulator's relative CI95 half-width is
// at or below target (accumulators with fewer than two observations never
// converge).
func converged(target float64, accs ...*stats.Accumulator) bool {
	for _, a := range accs {
		if a.N() < 2 || a.RelCI95() > target {
			return false
		}
	}
	return true
}
