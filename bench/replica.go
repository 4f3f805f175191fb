package main

import (
	"math"
	"math/rand"
	"time"

	"battsched/internal/battery"
	"battsched/internal/core"
	"battsched/internal/dvs"
	"battsched/internal/experiments"
	"battsched/internal/obs"
	"battsched/internal/priority"
	"battsched/internal/processor"
	"battsched/internal/runner"
	"battsched/internal/taskgraph"
	"battsched/internal/tgff"
)

// driverChunk is the Table 2 driver's default SetsPerJob: each runner job
// simulates this many consecutive sets on one reused engine.
const driverChunk = 4

// replicaScheme is one of the five Table 2 scheduling schemes, built from
// the same public constructors the Table 2 driver uses.
type replicaScheme struct {
	name   string
	alg    func() dvs.Algorithm
	prio   func() priority.Function
	policy core.ReadyPolicy
}

var table2Schemes = func() []replicaScheme {
	noDVS := func() dvs.Algorithm { return dvs.NewNoDVS() }
	ccEDF := func() dvs.Algorithm { return dvs.NewCCEDF() }
	laEDF := func() dvs.Algorithm { return dvs.NewLAEDF() }
	random := func() priority.Function { return priority.NewRandom() }
	pubs := func() priority.Function { return priority.NewPUBS() }
	return []replicaScheme{
		{"EDF", noDVS, random, core.MostImminentOnly},
		{"Cycle Conserving", ccEDF, random, core.MostImminentOnly},
		{"Look Ahead", laEDF, random, core.MostImminentOnly},
		{"BAS-1", laEDF, pubs, core.MostImminentOnly},
		{"BAS-2", laEDF, pubs, core.AllReleased},
	}
}()

// schemeCell is one scheme's outcome on one set.
type schemeCell struct{ life, charge float64 }

// layerTimes is the wall time spent inside each compute layer's public entry
// point, and around the whole replica.
type layerTimes struct {
	generate, schedule, battery, wall time.Duration
}

func (lt *layerTimes) covered() time.Duration { return lt.generate + lt.schedule + lt.battery }

// replicaTable2 re-executes the Table 2 driver's chunk loop for the sets
// [0, sets) of cfg single-threaded, in chunks of driverChunk sets, timing each
// call into a compute layer: tgff.GenerateSystem (workload generation),
// core.Engine Reset+Run replaying one recorded execution per set
// (scheduling) and battery.SimulateBatch (battery). It returns every set's
// cells in scheme order, which the experiment's report must match bit for
// bit.
func replicaTable2(cfg experiments.Table2Config, sets int, lt *layerTimes) ([][]schemeCell, error) {
	start := time.Now()
	defer func() { lt.wall += time.Since(start) }()
	proc := processor.Default()
	out := make([][]schemeCell, 0, sets)
	for lo := 0; lo < sets; lo += driverChunk {
		model, err := battery.New(cfg.BatteryName)
		if err != nil {
			return nil, err
		}
		models := []battery.Model{model}
		eng := core.NewEngine()
		rec := core.NewProfileRecorder()
		uni := taskgraph.NewUniformExecution(0.2, 1.0, 0)
		exec := taskgraph.NewRecordedExecution(uni)
		for set := lo; set < min(lo+driverChunk, sets); set++ {
			setSeed := runner.SeedFor(cfg.Seed, int64(set))
			rng := rand.New(rand.NewSource(setSeed))
			t := time.Now()
			sys, err := tgff.GenerateSystem(tgff.DefaultConfig(), cfg.GraphsPerSet, cfg.Utilization, proc.FMax(), rng)
			lt.generate += time.Since(t)
			if err != nil {
				return nil, err
			}
			uni.Reseed(setSeed)
			exec.Restart(uni)
			cells := make([]schemeCell, len(table2Schemes))
			for i, s := range table2Schemes {
				if i > 0 {
					exec.Replay()
				}
				rec.Reset()
				t = time.Now()
				err := eng.Reset(core.Config{
					System:          sys,
					Processor:       proc,
					DVS:             s.alg(),
					Priority:        s.prio(),
					ReadyPolicy:     s.policy,
					FrequencyMode:   core.DiscreteFrequency,
					OracleEstimates: cfg.OracleEstimates,
					Execution:       exec,
					Hyperperiods:    cfg.Hyperperiods,
					Seed:            setSeed,
					Observer:        rec,
				})
				var res *core.Result
				if err == nil {
					res, err = eng.Run()
				}
				lt.schedule += time.Since(t)
				if err != nil {
					return nil, err
				}
				t = time.Now()
				brs, err := battery.SimulateBatch(models, res.Profile, battery.SimulateOptions{MaxTime: cfg.MaxBatteryHours * 3600})
				lt.battery += time.Since(t)
				if err != nil {
					return nil, err
				}
				cells[i] = schemeCell{life: brs[0].LifetimeMinutes(), charge: brs[0].DeliveredMAh()}
			}
			out = append(out, cells)
		}
	}
	return out, nil
}

// checkReplica reports every per-set life_min and charge_mah sample of rep
// that differs from the replica's bit for bit, and any replica set the
// report does not cover.
func checkReplica(rec *record, rep *experiments.Report, cells [][]schemeCell) {
	if len(rep.Rows) != len(table2Schemes) {
		rec.failf("report has %d rows, want %d", len(rep.Rows), len(table2Schemes))
		return
	}
	for si, row := range rep.Rows {
		if row.Key != table2Schemes[si].name {
			rec.failf("report row %d is %q, want %q", si, row.Key, table2Schemes[si].name)
			return
		}
		for _, name := range []string{"life_min", "charge_mah"} {
			c := row.Cells[name]
			seen := 0
			for k, set := range c.Sets {
				if set < 0 || set >= len(cells) || k >= len(c.Samples) {
					continue
				}
				seen++
				got := cells[set][si].life
				if name == "charge_mah" {
					got = cells[set][si].charge
				}
				if math.Float64bits(got) != math.Float64bits(c.Samples[k]) {
					rec.failf("%s %s set %d: replica %v, report %v", row.Key, name, set, got, c.Samples[k])
				}
			}
			if seen != len(cells) {
				rec.failf("%s %s: report covers %d of the replica's %d sets", row.Key, name, seen, len(cells))
			}
		}
	}
}

// setComputeLayers reports the replica's compute split. Shares are of the
// replica's wall time; the run and simulation counts are the obs.Sim deltas
// over the replica.
func setComputeLayers(m metrics, lt layerTimes, work obs.SimSnapshot) {
	wall := lt.wall.Seconds()
	sims := float64(work.BatteryAnalytic + work.BatteryStepped)
	runs := float64(work.EngineRuns)
	m.set("tgff.generate_s", lt.generate.Seconds(), "s")
	m.set("tgff.share", ratio(lt.generate.Seconds(), wall), "frac")
	m.set("core.schedule_s", lt.schedule.Seconds(), "s")
	m.set("core.share", ratio(lt.schedule.Seconds(), wall), "frac")
	m.set("core.runs", runs, "count")
	m.set("core.run_us", ratio(lt.schedule.Seconds()*1e6, runs), "us")
	m.set("battery.simulate_s", lt.battery.Seconds(), "s")
	m.set("battery.share", ratio(lt.battery.Seconds(), wall), "frac")
	m.set("battery.sims", sims, "count")
	m.set("battery.sim_us", ratio(lt.battery.Seconds()*1e6, sims), "us")
	m.set("battery.analytic_frac", ratio(float64(work.BatteryAnalytic), sims), "frac")
}

// table2Config returns the Table 2 configuration experiments.Run derives from
// the table2 specs this benchmark runs: the paper or quick defaults with the
// seed, set count and battery model overridden.
func table2Config(spec experiments.Spec) experiments.Table2Config {
	cfg := experiments.DefaultTable2Config()
	if spec.Quick {
		cfg = experiments.QuickTable2Config()
	}
	if spec.Seed != 0 {
		cfg.Seed = spec.Seed
	}
	if spec.Sets > 0 {
		cfg.Sets = spec.Sets
	}
	if spec.Battery != "" {
		cfg.BatteryName = spec.Battery
	}
	return cfg
}
