package experiments

import (
	"fmt"
	"maps"
	"sort"
	"strings"

	"battsched/internal/stats"
)

// ReportVersion is the schema version stamped into every Report and artifact.
// Readers reject other versions instead of misinterpreting the payload.
const ReportVersion = 1

// Report is the structured result every experiment driver returns: named rows
// of metric cells backed by serialisable accumulator state. It is the only
// result type: FormatReport renders the paper's plain-text tables from it
// alone, reading each column from a row's key, labels, cells or counts as
// the experiment's registered table says; it marshals to the versioned JSON
// artifact cmd/experiments writes with -o; shard partials of the same run
// merge with MergeReports; and callers and tests read its cells directly.
type Report struct {
	// Version is the report schema version (ReportVersion).
	Version int `json:"version"`
	// Experiment is the registry name of the experiment that produced the
	// report ("table1", "figure6", "table2", "curve", "ablation", "grid").
	Experiment string `json:"experiment"`
	// Meta records the configuration fingerprint of the run: everything the
	// renderer needs beyond the rows (battery model, utilisation, ...) plus
	// the knobs that must agree for shard partials to be mergeable (seed,
	// configured set counts, ...). Values are canonical strings; floats use
	// strconv.FormatFloat(v, 'g', -1, 64) so they round-trip exactly.
	Meta map[string]string `json:"meta,omitempty"`
	// Shard identifies the partial's shard; nil for a complete run.
	Shard *ShardInfo `json:"shard,omitempty"`
	// Rows are the report rows in render order.
	Rows []ReportRow `json:"rows"`
}

// ShardInfo identifies one shard of a sharded run.
type ShardInfo struct {
	// Index is the shard number in [0, Count).
	Index int `json:"index"`
	// Count is the total number of shards of the run.
	Count int `json:"count"`
}

// ReportRow is one named row of a Report.
type ReportRow struct {
	// Key identifies the row within its experiment (a scheme name, a task
	// count, a "model@current" curve point, ...). Merging matches rows by Key.
	Key string `json:"key"`
	// Labels carry the row's descriptive columns (DVS algorithm, priority
	// function, battery model, ...). They must agree across shard partials.
	Labels map[string]string `json:"labels,omitempty"`
	// Cells map metric names to their accumulated state.
	Cells map[string]Cell `json:"cells"`
	// Counts carry additive integer side-channels (the grid's deadline
	// misses); merging sums them.
	Counts map[string]int `json:"counts,omitempty"`
}

// Cell is one metric cell: exported accumulator state, backed by the retained
// per-set samples of every driver that shards. MergeReports replays the
// samples of all shard partials in absolute set order, reproducing the
// single-process accumulator bit-for-bit. Only the deterministic curve, which
// does not shard, reports cells without samples.
type Cell struct {
	stats.State
	// Sets and Samples are parallel: Samples[i] is the key-metric observation
	// of absolute set index Sets[i], in fold order (ascending Sets). Empty
	// when samples are not retained.
	Sets    []int     `json:"sets,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
}

// metricAcc builds one report cell: an online Welford accumulator plus the
// retained (absolute set index, value) samples that make shard merging exact.
type metricAcc struct {
	acc     stats.Accumulator
	sets    []int
	samples []float64
}

// Add incorporates the observation of one absolute set index.
func (m *metricAcc) Add(set int, x float64) {
	m.acc.Add(x)
	m.sets = append(m.sets, set)
	m.samples = append(m.samples, x)
}

// Cell exports the accumulated cell.
func (m *metricAcc) Cell() Cell {
	return Cell{State: m.acc.State(), Sets: m.sets, Samples: m.samples}
}

// mergeCells combines the shard partials of one metric cell: it re-folds
// their samples in absolute set order, bit-for-bit the single-process
// accumulator. A partial that does not retain one sample per observation
// cannot merge exactly, so it is an error.
func mergeCells(parts []Cell) (Cell, error) {
	type obs struct {
		set int
		x   float64
	}
	total := 0
	for _, p := range parts {
		if len(p.Samples) != p.N || len(p.Sets) != p.N {
			return Cell{}, fmt.Errorf("experiments: a partial cell of %d observations keeps %d samples, so it does not merge", p.N, len(p.Samples))
		}
		total += p.N
	}
	all := make([]obs, 0, total)
	for _, p := range parts {
		for i, set := range p.Sets {
			all = append(all, obs{set, p.Samples[i]})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].set < all[j].set })
	merged := metricAcc{sets: make([]int, 0, total), samples: make([]float64, 0, total)}
	for i, o := range all {
		if i > 0 && o.set == all[i-1].set {
			return Cell{}, fmt.Errorf("experiments: duplicate sample for set %d across shards", o.set)
		}
		merged.Add(o.set, o.x)
	}
	return merged.Cell(), nil
}

// ValidateShardCoverage checks that parts are the complete, non-overlapping
// shard partition of exactly one experiment run: every part is a partial of
// the same experiment and schema version, all partials agree on the shard
// count n, and each shard index 0..n-1 is supplied exactly once. Missing and
// duplicated shards are reported by name — a forgotten partial must fail
// loudly here, because merging an incomplete partition would silently average
// over a subset of the run's set indices and emit wrong tables.
func ValidateShardCoverage(parts []*Report) error {
	if len(parts) == 0 {
		return fmt.Errorf("experiments: no reports to merge")
	}
	first := parts[0]
	for _, p := range parts {
		if p.Version != ReportVersion {
			return fmt.Errorf("experiments: report version %d, want %d", p.Version, ReportVersion)
		}
		if p.Experiment != first.Experiment {
			return fmt.Errorf("experiments: cannot merge %q with %q", p.Experiment, first.Experiment)
		}
		if p.Shard == nil {
			return fmt.Errorf("experiments: %q report is not a shard partial (complete runs do not merge)", p.Experiment)
		}
	}
	count := first.Shard.Count
	seen := make(map[int]int)
	for _, p := range parts {
		if p.Shard.Count != count {
			return fmt.Errorf("experiments: %q mixes partials of different runs (shard %d/%d vs %d/%d)",
				first.Experiment, p.Shard.Index, p.Shard.Count, first.Shard.Index, count)
		}
		if p.Shard.Index < 0 || p.Shard.Index >= count {
			return fmt.Errorf("experiments: %q has corrupt shard %d/%d", first.Experiment, p.Shard.Index, count)
		}
		seen[p.Shard.Index]++
	}
	var missing, dup []string
	for i := 0; i < count; i++ {
		switch {
		case seen[i] == 0:
			missing = append(missing, fmt.Sprintf("%d/%d", i, count))
		case seen[i] > 1:
			dup = append(dup, fmt.Sprintf("%d/%d (x%d)", i, count, seen[i]))
		}
	}
	if len(dup) > 0 {
		return fmt.Errorf("experiments: %q has overlapping shard partials: %s supplied more than once",
			first.Experiment, strings.Join(dup, ", "))
	}
	if len(missing) > 0 {
		return fmt.Errorf("experiments: %q shard coverage is incomplete: missing partial(s) %s",
			first.Experiment, strings.Join(missing, ", "))
	}
	return nil
}

// MergeReports combines the shard partials of one experiment run (in any
// order) into the report of the complete run, folding them in shard order.
// Every shard 0..Count-1 must be present exactly once (ValidateShardCoverage)
// and the partials must agree on experiment, version, configuration
// fingerprint (Meta) and row structure (keys, labels and cell names).
// Cells merge exactly by sample replay (mergeCells); counts sum.
func MergeReports(parts []*Report) (*Report, error) {
	if err := ValidateShardCoverage(parts); err != nil {
		return nil, err
	}
	sorted := make([]*Report, len(parts))
	copy(sorted, parts)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].Shard.Index < sorted[j].Shard.Index
	})
	first := sorted[0]
	for _, p := range sorted {
		if !maps.Equal(p.Meta, first.Meta) {
			return nil, fmt.Errorf("experiments: %q shard %d was run with a different configuration (meta %v vs %v)",
				p.Experiment, p.Shard.Index, p.Meta, first.Meta)
		}
		if len(p.Rows) != len(first.Rows) {
			return nil, fmt.Errorf("experiments: %q shard %d has %d rows, want %d",
				p.Experiment, p.Shard.Index, len(p.Rows), len(first.Rows))
		}
	}

	merged := &Report{
		Version:    ReportVersion,
		Experiment: first.Experiment,
		Meta:       maps.Clone(first.Meta),
		Rows:       make([]ReportRow, len(first.Rows)),
	}
	for ri, row := range first.Rows {
		out := ReportRow{
			Key:    row.Key,
			Labels: maps.Clone(row.Labels),
			Cells:  make(map[string]Cell, len(row.Cells)),
		}
		for _, p := range sorted {
			pr := p.Rows[ri]
			if pr.Key != row.Key || !maps.Equal(pr.Labels, row.Labels) {
				return nil, fmt.Errorf("experiments: %q row %d differs across shards (%q vs %q)",
					first.Experiment, ri, pr.Key, row.Key)
			}
			for name := range pr.Cells {
				if _, ok := row.Cells[name]; !ok {
					return nil, fmt.Errorf("experiments: %q row %q has unexpected cell %q in shard %d",
						first.Experiment, row.Key, name, p.Shard.Index)
				}
			}
			for name, n := range pr.Counts {
				if out.Counts == nil {
					out.Counts = make(map[string]int)
				}
				out.Counts[name] += n
			}
		}
		for name := range row.Cells {
			cells := make([]Cell, len(sorted))
			for pi, p := range sorted {
				c, ok := p.Rows[ri].Cells[name]
				if !ok {
					return nil, fmt.Errorf("experiments: %q row %q misses cell %q in shard %d",
						first.Experiment, row.Key, name, pi)
				}
				cells[pi] = c
			}
			c, err := mergeCells(cells)
			if err != nil {
				return nil, fmt.Errorf("%s row %q cell %q: %w", first.Experiment, row.Key, name, err)
			}
			out.Cells[name] = c
		}
		merged.Rows[ri] = out
	}
	return merged, nil
}
