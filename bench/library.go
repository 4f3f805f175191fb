package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"battsched/internal/experiments"
	"battsched/internal/obs"
)

// encodeArtifact renders reports exactly as `cmd/experiments run -o` does.
func encodeArtifact(reps ...*experiments.Report) ([]byte, error) {
	var buf bytes.Buffer
	if err := experiments.WriteArtifact(&buf, reps); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// runLibrary is a t2-* workload: the paper's Table 2 through experiments.Run
// with two runner workers. The table is timed as sz.pieces experiments.Run
// calls, one per shard of its sets, so the run yields one latency per call;
// the merged shards are the complete table, whose artifact SHA-256 the record
// keeps. Times are in reference-host seconds (host.go): the host probe is
// read after every set-up and every round. peak_rss_mb is the median over the
// calls of the peak RSS during each.
func runLibrary(ctx context.Context, rec *record, battery string, sets, warm, replica int, sz sizes) error {
	spec := func(n, parallel int) experiments.Spec {
		return experiments.Spec{Seed: rec.Seed, Sets: n, Battery: battery,
			RunOptions: experiments.RunOptions{Parallel: parallel}}
	}
	// The warm-up table is the same for every seed: a few stochastic sets
	// cost several times more than others, so a seed's own sets would make
	// setup_s measure the seed rather than the set-up.
	warmUp := spec(warm, 2)
	warmUp.Seed = 1
	if rec.Trace {
		// The traced run warms up on its own table: the first run of a table
		// this size in a fresh process is up to 40% slower than the next.
		if _, err := experiments.Run(ctx, "table2", spec(replica, 2)); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		return traceLibrary(ctx, rec, spec(replica, 1))
	}
	// Set-up: the warm-up table, repeated; setup_s is the median.
	hc, err := newHostClock()
	if err != nil {
		return err
	}
	defer hc.close()
	setups := make([]float64, sz.setups)
	for i := range setups {
		start := time.Now()
		if _, err := experiments.Run(ctx, "table2", warmUp); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		setups[i] = hc.scale(time.Since(start))
	}

	before := obs.Sim.Snapshot()
	parts := make([]*experiments.Report, sz.pieces)
	lat := make([]float64, sz.pieces)
	peaks := make([]float64, sz.pieces)
	for r := range parts {
		if err := resetPeakRSS(); err != nil {
			return err
		}
		s := spec(sets, 2)
		s.Shard = experiments.Shard{Index: r, Count: sz.pieces}
		start := time.Now()
		rep, err := experiments.Run(ctx, "table2", s)
		d := time.Since(start)
		if err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
		if peaks[r], err = peakRSSMB(); err != nil {
			return err
		}
		lat[r] = hc.scale(d)
		parts[r] = rep
	}
	rec.Work = obs.Sim.Snapshot().Sub(before)
	rec.Attempted = sz.pieces

	if merged, err := experiments.MergeReports(parts); err != nil {
		rec.failf("merging the rounds: %v", err)
	} else if art, err := encodeArtifact(merged); err != nil {
		rec.failf("encoding the table: %v", err)
	} else {
		rec.ArtifactSHA256 = sha256Hex(art)
		checkTable(rec, merged, sets)
	}

	// The rates are over the whole table, not medians of the round rates: a
	// round of the stochastic table runs up to twice as fast as another of
	// the same seed, with the sets it happens to hold, and over ten seeds the
	// median round rate spread half as wide again as the whole table's rate.
	m := rec.Metrics
	setJobTimes(m, float64(sets), sum(lat), lat)
	m.set("setup_s", median(setups), "s")
	m.set("peak_rss_mb", median(peaks), "MiB")
	m.set("host.probe_ms", hc.probeMs(), "ms")
	return nil
}

// checkTable checks the complete Table 2 report: the five schemes in order,
// every cell averaging exactly sets finite positive samples, and the paper's
// headline ordering — EDF, which never scales the frequency, has the
// shortest mean battery life of all schemes.
func checkTable(rec *record, rep *experiments.Report, sets int) {
	if len(rep.Rows) != len(table2Schemes) {
		rec.failf("table has %d rows, want %d", len(rep.Rows), len(table2Schemes))
		return
	}
	for si, row := range rep.Rows {
		if row.Key != table2Schemes[si].name {
			rec.failf("table row %d is %q, want %q", si, row.Key, table2Schemes[si].name)
		}
		for name, c := range row.Cells {
			if c.N != sets || len(c.Samples) != sets {
				rec.failf("%s %s averages %d sets (%d samples), want %d", row.Key, name, c.N, len(c.Samples), sets)
			}
			for _, x := range c.Samples {
				if math.IsNaN(x) || math.IsInf(x, 0) || x <= 0 {
					rec.failf("%s %s has sample %v", row.Key, name, x)
					break
				}
			}
		}
		if si > 0 && row.Cells["life_min"].Mean <= rep.Rows[0].Cells["life_min"].Mean {
			rec.failf("%s mean life %v is not above EDF's %v", row.Key,
				row.Cells["life_min"].Mean, rep.Rows[0].Cells["life_min"].Mean)
		}
	}
}

// traceLibrary is the traced run of a t2-* workload over the table's leading
// spec.Sets sets. The replica re-executes the sets single-threaded with a
// timer around every call into a compute layer, and must reproduce the
// report's per-set samples bit for bit. Untraced runs on one worker (T1) and
// on two (T2) bracket it, T1 T2 replica T1 T2, and each of T1 and T2 is the
// mean of its two runs, so drift in the host's speed weighs on the replica
// and on both baselines alike.
func traceLibrary(ctx context.Context, rec *record, spec experiments.Spec) error {
	var t1, t2 float64
	var reps []*experiments.Report
	baselines := func() error {
		for _, parallel := range []int{1, 2} {
			s := spec
			s.Parallel = parallel
			start := time.Now()
			rep, err := experiments.Run(ctx, "table2", s)
			if err != nil {
				return err
			}
			d := time.Since(start).Seconds() / 2
			if parallel == 1 {
				t1 += d
			} else {
				t2 += d
			}
			reps = append(reps, rep)
		}
		return nil
	}
	if err := baselines(); err != nil {
		return err
	}
	var lt layerTimes
	before := obs.Sim.Snapshot()
	cells, err := replicaTable2(table2Config(spec), spec.Sets, &lt)
	if err != nil {
		return fmt.Errorf("replica: %w", err)
	}
	rec.Work = obs.Sim.Snapshot().Sub(before)
	if err := baselines(); err != nil {
		return err
	}

	rec.Attempted = spec.Sets
	art, err := encodeArtifact(reps[0])
	if err != nil {
		return err
	}
	for i, rep := range reps[1:] {
		if a, err := encodeArtifact(rep); err != nil || !bytes.Equal(a, art) {
			rec.failf("run %d of the table differs from the first", i+2)
		}
	}
	rec.ArtifactSHA256 = sha256Hex(art)
	checkTable(rec, reps[0], spec.Sets)
	checkReplica(rec, reps[0], cells)

	m := rec.Metrics
	setComputeLayers(m, lt, rec.Work)
	if err := setEncode(m, reps[0]); err != nil {
		return err
	}
	m.set("runner.scaling_eff", t1/(2*t2), "frac")
	m.set("trace.coverage", ratio(lt.covered().Seconds(), lt.wall.Seconds()), "frac")
	m.set("trace.overhead_frac", lt.wall.Seconds()/t1-1, "frac")
	m.set("t1_s", t1, "s")
	m.set("t2_s", t2, "s")
	return nil
}

// setEncode reports the median experiments.WriteArtifact time and the median
// artifact size over reps (each encoded encodeRepeats times).
func setEncode(m metrics, reps ...*experiments.Report) error {
	const encodeRepeats = 5
	var ms, kb []float64
	for _, rep := range reps {
		var one []float64
		for range encodeRepeats {
			start := time.Now()
			art, err := encodeArtifact(rep)
			one = append(one, time.Since(start).Seconds()*1e3)
			if err != nil {
				return err
			}
			if len(one) == 1 {
				kb = append(kb, float64(len(art))/1024)
			}
		}
		ms = append(ms, median(one))
	}
	m.set("experiments.encode_ms", median(ms), "ms")
	m.set("experiments.artifact_kb", median(kb), "KiB")
	return nil
}
