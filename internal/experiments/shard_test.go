package experiments

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// TestShardSliceAndParse pins the shard arithmetic: the Count slices of any
// range are an exact partition, and the CLI form parses symmetrically.
func TestShardSliceAndParse(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		for _, size := range []int{0, 1, 3, 4, 7, 100} {
			covered := 0
			prevHi := 10 // range [10, 10+size)
			for i := 0; i < n; i++ {
				lo, hi := (Shard{Index: i, Count: n}).slice(10, 10+size)
				if lo != prevHi {
					t.Fatalf("shard %d/%d of %d sets: gap at %d (lo=%d)", i, n, size, prevHi, lo)
				}
				covered += hi - lo
				prevHi = hi
			}
			if covered != size || prevHi != 10+size {
				t.Fatalf("%d shards of %d sets cover %d", n, size, covered)
			}
		}
	}
	for s, want := range map[string]Shard{"": {}, "0/4": {0, 4}, "3/4": {3, 4}, "0/0": {}, "0/1": {0, 1}} {
		got, err := ParseShard(s)
		if err != nil || got != want {
			t.Fatalf("ParseShard(%q) = %+v, %v", s, got, err)
		}
	}
	for _, bad := range []string{"4/4", "-1/4", "x/4", "1/x", "1", "1/2/3", "3/0", "0/-1"} {
		if _, err := ParseShard(bad); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("ParseShard(%q) err = %v, want ErrBadConfig", bad, err)
		}
	}
	if (Shard{1, 4}).String() != "1/4" || (Shard{}).String() != "" {
		t.Fatal("Shard.String mismatch")
	}
}

// runShards runs every shard of name and merges the partials.
func runShards(t *testing.T, name string, spec Spec, count int) *Report {
	t.Helper()
	parts := make([]*Report, count)
	for i := 0; i < count; i++ {
		s := spec
		s.Shard = Shard{Index: i, Count: count}
		rep, err := Run(context.Background(), name, s)
		if err != nil {
			t.Fatalf("%s shard %d/%d: %v", name, i, count, err)
		}
		if rep.Shard == nil || rep.Shard.Index != i || rep.Shard.Count != count {
			t.Fatalf("%s shard %d/%d: report shard = %+v", name, i, count, rep.Shard)
		}
		parts[i] = rep
	}
	merged, err := MergeReports(parts)
	if err != nil {
		t.Fatalf("%s merge: %v", name, err)
	}
	return merged
}

// formatted renders a report, failing the test on error.
func formatted(t *testing.T, r *Report) string {
	t.Helper()
	out, err := FormatReport(r)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTable2ShardMergeExact is the shard/merge exactness golden for the
// per-set drivers: sharding the quick Table 2 run two ways and merging the
// partials reproduces the unsharded report bit-for-bit — identical
// accumulator state, identical samples, byte-identical formatted table —
// because the per-set cells retain their samples and the merge replays them
// in absolute set order.
func TestTable2ShardMergeExact(t *testing.T) {
	spec := Spec{Quick: true, Battery: "kibam"}
	full, err := Run(context.Background(), "table2", spec)
	if err != nil {
		t.Fatal(err)
	}
	merged := runShards(t, "table2", spec, 2)
	if !reflect.DeepEqual(merged, full) {
		t.Fatalf("merged shards differ from unsharded run:\n%+v\n%+v", merged, full)
	}
	if formatted(t, merged) != formatted(t, full) {
		t.Fatal("formatted output differs")
	}
	// Uneven partitions (more shards than divide the set count evenly, and
	// more shards than sets) must still merge exactly.
	for _, n := range []int{3, 7} {
		if got := runShards(t, "table2", spec, n); !reflect.DeepEqual(got, full) {
			t.Fatalf("%d-way shard merge differs from unsharded run", n)
		}
	}
}

// TestTable2ShardMergeAdaptive pins that adaptive set counts do not shard:
// each shard would judge convergence on its own samples, so a merge could
// cover more sets than the unsharded run whose content address it shares.
// Every shardable experiment refuses the sharded run with ErrBadConfig,
// through Run and through its driver. The refusal loses no result: an unattainable target capped by MaxSets covers
// exactly the sets of a fixed MaxSets run, which shards and merges exactly.
func TestTable2ShardMergeAdaptive(t *testing.T) {
	ctx := context.Background()
	for _, name := range Names() {
		d, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if !d.Shardable {
			continue
		}
		spec := Spec{Quick: true, Battery: "kibam", RunOptions: RunOptions{TargetCI: 0.2, Shard: Shard{Index: 0, Count: 2}}}
		if _, err := Run(ctx, name, spec); !errors.Is(err, ErrBadConfig) || !strings.Contains(err.Error(), "does not shard") {
			t.Fatalf("%s: sharded adaptive run err = %v, want ErrBadConfig", name, err)
		}
	}
	cfg := QuickTable2Config()
	cfg.TargetCI, cfg.Shard = 0.2, Shard{Index: 1, Count: 2}
	if _, err := runTable2Report(ctx, cfg); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("runTable2Report sharded adaptive err = %v, want ErrBadConfig", err)
	}

	adaptive, err := Run(ctx, "table2", Spec{Quick: true, Battery: "kibam", RunOptions: RunOptions{TargetCI: 1e-12, MaxSets: 8}})
	if err != nil {
		t.Fatal(err)
	}
	fixed := Spec{Quick: true, Battery: "kibam", Sets: 8}
	merged := runShards(t, "table2", fixed, 2)
	for ri, row := range adaptive.Rows {
		if !reflect.DeepEqual(merged.Rows[ri].Cells, row.Cells) {
			t.Fatalf("row %q: the capped adaptive run's cells differ from the sharded fixed 8-set run's", row.Key)
		}
	}
}

// TestPerSetDriversShardMergeExact extends the exactness guarantee to the
// remaining per-set drivers (Table 1, Figure 6, the ablation) and to the
// grid over three set chunks, at shard counts that split chunks unevenly.
func TestPerSetDriversShardMergeExact(t *testing.T) {
	for _, tc := range []struct {
		name   string
		spec   Spec
		shards []int
	}{
		{"table1", Spec{Quick: true}, []int{2}},
		{"figure6", Spec{Quick: true}, []int{2}},
		{"ablation", Spec{Quick: true}, []int{2}},
		{"grid", Spec{Quick: true, Battery: "kibam", Sets: 10}, []int{2, 3, 7}},
	} {
		full, err := Run(context.Background(), tc.name, tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, n := range tc.shards {
			merged := runShards(t, tc.name, tc.spec, n)
			if !reflect.DeepEqual(merged, full) {
				t.Fatalf("%s: %d merged shards differ from unsharded run:\n%+v\n%+v", tc.name, n, merged, full)
			}
			if formatted(t, merged) != formatted(t, full) {
				t.Fatalf("%s: formatted output differs", tc.name)
			}
		}
	}
}

// TestShardableDriversAtMoreShardsThanSets splits every shardable driver's
// quick run into more shards than it has sets, so some shards are empty. An
// empty shard once panicked figure6 and table1 (a zero grid dimension); now
// every shard must return a partial, and the merge must render the unsharded
// tables byte for byte.
func TestShardableDriversAtMoreShardsThanSets(t *testing.T) {
	for _, name := range Names() {
		d, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if !d.Shardable {
			continue
		}
		t.Run(name, func(t *testing.T) {
			spec := Spec{Quick: true, Battery: "kibam"}
			full, err := Run(context.Background(), name, spec)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := formatted(t, runShards(t, name, spec, 9)), formatted(t, full); got != want {
				t.Fatalf("9-shard merge differs from the unsharded run:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}
