package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
)

// ResultsVersion identifies the numeric behaviour of the experiment drivers
// and the simulation stack beneath them. Bump it whenever a change alters any
// driver's report bytes for an unchanged Spec — i.e. whenever golden outputs
// are regenerated (as PR 3's analytic battery fast path did; PR 6's
// stochastic fast path: closed-form geometric-recovery sums replace the
// iterated 1 s expected-value recursion, shifting stochastic results by
// ~1e-12 relative; version 3's closed-form runs of whole profile
// repetitions, which shift lifetimes and delivered charge by ≤1e-9
// relative; version 4's exact Table 1 optimum, a dynamic programme that
// replaced a budgeted search, which moves the full-size rows of 13–15 tasks
// whose search ran out of budget and drops Table 1's max_expansions meta
// entry; and version 5's per-set scenario grid, whose cells keep their
// samples and fold set by set instead of merging chunk states, which moves
// the mean and m2 of cells over more than one chunk of sets by a few ulps)
// — so that artifacts a persistent daemon cache stored under the old
// behaviour stop matching new submissions instead of being served stale.
// Version 5 also keeps a persistent cache from serving a grid artifact or
// shard partial without samples, which no longer merges. Schema-only changes
// are covered separately by ReportVersion.
const ResultsVersion = 5

// CanonicalSpec returns the canonical, stable field-ordered encoding of one
// (experiment, Spec) pair: a fixed sequence of key=value lines covering
// exactly the inputs that determine the experiment's Report bytes. Two
// submissions with equal canonical encodings compute byte-identical complete
// reports, which is what makes the encoding (through SpecHash) usable as a
// content-address for cached report artifacts.
//
// Execution-only knobs are excluded on purpose: Parallel and Progress never
// change the output (every driver is byte-identical at any worker count), and
// Shard selects a slice of the run rather than a different run — the hash
// identifies the complete (merged) result, so a sharded and an unsharded
// submission of the same spec share one address. Default-equivalent values
// are normalised where the drivers define them: Seed 0 encodes as the default
// seed 1, MaxSets encodes as 0 when TargetCI is unset (adaptive stopping
// disabled makes the cap inert), and a negative-zero float as 0 (Run
// normalises it the same way). The encoding also pins ReportVersion (the
// artifact schema) and ResultsVersion (the numeric behaviour), so a schema
// bump or a golden-changing code change invalidates every previously cached
// artifact.
//
// The normalisation is deliberately conservative: distinct encodings may
// still compute identical reports (Utilization 0 selects each driver's
// default, for example), which costs a cache miss, never a wrong hit.
func CanonicalSpec(experiment string, spec Spec) string {
	spec = spec.normalised()
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	maxSets := spec.MaxSets
	if spec.TargetCI <= 0 {
		maxSets = 0
	}
	var b strings.Builder
	fmt.Fprintf(&b, "report_version=%d\n", ReportVersion)
	fmt.Fprintf(&b, "results_version=%d\n", ResultsVersion)
	fmt.Fprintf(&b, "experiment=%q\n", experiment)
	fmt.Fprintf(&b, "quick=%t\n", spec.Quick)
	fmt.Fprintf(&b, "seed=%d\n", seed)
	fmt.Fprintf(&b, "sets=%d\n", spec.Sets)
	fmt.Fprintf(&b, "utilization=%s\n", formatFloat(spec.Utilization))
	fmt.Fprintf(&b, "battery=%q\n", spec.Battery)
	fmt.Fprintf(&b, "oracle=%t\n", spec.Oracle)
	fmt.Fprintf(&b, "ccedf=%t\n", spec.CCEDF)
	fmt.Fprintf(&b, "maxstep=%s\n", formatFloat(spec.MaxStep))
	fmt.Fprintf(&b, "target_ci=%s\n", formatFloat(spec.TargetCI))
	fmt.Fprintf(&b, "max_sets=%s\n", strconv.Itoa(maxSets))
	return b.String()
}

// SpecHash returns the hex-encoded SHA-256 of CanonicalSpec(experiment, spec):
// the deterministic content address of the complete run's report artifact.
// See CanonicalSpec for exactly which fields participate and how defaults are
// normalised.
func SpecHash(experiment string, spec Spec) string {
	sum := sha256.Sum256([]byte(CanonicalSpec(experiment, spec)))
	return hex.EncodeToString(sum[:])
}

// ShardSpecHash returns the content address of one shard partial of the run:
// the canonical encoding extended with the shard line, hashed. Shard partials
// are bit-exact functions of (spec, shard) — the set-index partition is
// deterministic — so the address is safe to cache and deduplicate against: a
// re-dispatched unit recomputes the identical partial bytes.
// A disabled shard returns SpecHash (the complete run's address).
func ShardSpecHash(experiment string, spec Spec, shard Shard) string {
	if !shard.Enabled() {
		return SpecHash(experiment, spec)
	}
	enc := CanonicalSpec(experiment, spec) + fmt.Sprintf("shard=%d/%d\n", shard.Index, shard.Count)
	sum := sha256.Sum256([]byte(enc))
	return hex.EncodeToString(sum[:])
}
