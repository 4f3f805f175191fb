package experiments

import (
	"fmt"
	"math/rand"

	"battsched/internal/battery"
	"battsched/internal/core"
	"battsched/internal/dvs"
	"battsched/internal/priority"
	"battsched/internal/processor"
	"battsched/internal/taskgraph"
	"battsched/internal/tgff"
)

// scheme is one scheduling configuration the drivers compare on identical
// workloads: Table 2's five schemes, Figure 6's baseline and ordering schemes
// and the ablation's estimator variants are all schemes, run by one
// evaluator.
type scheme struct {
	name   string
	alg    func() dvs.Algorithm
	prio   func() priority.Function
	policy core.ReadyPolicy
	mode   core.FrequencyMode
	// oracle feeds the priority function the true actual requirements
	// instead of estimates.
	oracle bool
	// estimator builds the priority function's estimator; nil keeps the
	// engine's default history estimator.
	estimator func() priority.Estimator
	// stripPrecedence schedules the set with its precedence constraints
	// removed (Figure 6's near-optimal baseline; node counts, WCETs and
	// periods are unchanged, so its draw order matches the constrained runs).
	stripPrecedence bool
}

// evaluator runs schemes on one task-graph set at a time, and is the one
// place a driver's run is configured. It owns what every (set, scheme) run
// reuses: the engine, the execution realisation (a UniformExecution inside a
// RecordedExecution), the profile sink and the battery models. generate
// draws a set and restarts the realisation; the first run on the set records
// it and every later run replays it, so all schemes see identical actual
// execution requirements (the engine's draw order does not depend on the
// scheme, see taskgraph.RecordedExecution).
//
// The sink follows from the battery models: with models, a ProfileRecorder
// records each run's load profile and every model is evaluated on it; without
// them, core.Discard records nothing (the engine still totals the energy).
// As with a reused engine, a run's Result and Profile are valid only until
// the next run. An evaluator is not safe for concurrent use; the drivers
// keep one per runner job.
type evaluator struct {
	proc         *processor.Model
	hyperperiods int
	eng          core.Engine
	rng          *rand.Rand // the system generator, reseeded per set
	uni          *taskgraph.UniformExecution
	exec         *taskgraph.RecordedExecution
	rec          *core.ProfileRecorder // nil without battery models
	models       []battery.Model
	simOpts      battery.SimulateOptions

	sys      *taskgraph.System
	seed     int64
	recorded bool // a run on the current set has recorded its realisation
}

// newEvaluator returns an evaluator simulating hyperperiods hyperperiods per
// run on proc, with one model instance per battery factory (each simulation
// resets its models, so the instances serve every run) capped at
// maxBatteryHours.
func newEvaluator(proc *processor.Model, hyperperiods int, maxBatteryHours float64, batteries ...BatteryFactory) *evaluator {
	uni := taskgraph.NewUniformExecution(0.2, 1.0, 0)
	ev := &evaluator{
		proc:         proc,
		hyperperiods: hyperperiods,
		rng:          rand.New(rand.NewSource(0)),
		uni:          uni,
		exec:         taskgraph.NewRecordedExecution(uni),
	}
	if len(batteries) > 0 {
		ev.rec = core.NewProfileRecorder()
		ev.models = make([]battery.Model, len(batteries))
		for i, factory := range batteries {
			ev.models[i] = factory()
		}
		// Zero MaxStep selects each model's analytic fast path (whole
		// segments and closed-form runs of repetitions).
		ev.simOpts = battery.SimulateOptions{MaxTime: maxBatteryHours * 3600}
	}
	return ev
}

// generate makes the set of seed current: its system of graphs task graphs
// at worst-case utilisation util, and its execution realisation, both seeded
// with seed. Drivers key seed on the absolute set index, so a set's workload
// does not depend on the batch, chunk or shard layout.
func (ev *evaluator) generate(seed int64, graphs int, util float64) error {
	ev.rng.Seed(seed)
	sys, err := tgff.GenerateSystem(tgff.DefaultConfig(), graphs, util, ev.proc.FMax(), ev.rng)
	if err != nil {
		return err
	}
	ev.sys, ev.seed = sys, seed
	ev.uni.Reseed(seed)
	ev.exec.Restart(ev.uni)
	ev.recorded = false
	return nil
}

// run schedules the current set under s and evaluates every battery model on
// the run's load profile (nil battery results without models).
func (ev *evaluator) run(s scheme) (*core.Result, []battery.Result, error) {
	if ev.recorded {
		ev.exec.Replay()
	}
	ev.recorded = true
	sys := ev.sys
	if s.stripPrecedence {
		sys = tgff.StripPrecedence(sys)
	}
	var est priority.Estimator
	if s.estimator != nil {
		est = s.estimator()
	}
	sink := core.Discard
	if ev.rec != nil {
		ev.rec.Reset()
		sink = ev.rec
	}
	if err := ev.eng.Reset(core.Config{
		System:          sys,
		Processor:       ev.proc,
		DVS:             s.alg(),
		Priority:        s.prio(),
		Estimator:       est,
		OracleEstimates: s.oracle,
		ReadyPolicy:     s.policy,
		FrequencyMode:   s.mode,
		Execution:       ev.exec,
		Observer:        sink,
		Hyperperiods:    ev.hyperperiods,
		Seed:            ev.seed,
	}); err != nil {
		return nil, nil, err
	}
	res, err := ev.eng.Run()
	if err != nil || ev.models == nil {
		return res, nil, err
	}
	brs, err := battery.SimulateBatch(ev.models, res.Profile, ev.simOpts)
	if err != nil {
		return nil, nil, err
	}
	return res, brs, nil
}

// normalisedEnergies runs the baseline schemes[0] and then every other scheme
// on the current set, and returns the battery energy of each later scheme
// divided by the baseline's; nil when the baseline drew no energy, which
// leaves the set out. The baseline is not checked for deadline misses; any
// other scheme that misses one fails the set, named as what in the error.
func (ev *evaluator) normalisedEnergies(what string, schemes []scheme) ([]float64, error) {
	res, _, err := ev.run(schemes[0])
	if err != nil || res.EnergyBattery <= 0 {
		return nil, err
	}
	baseline := res.EnergyBattery
	out := make([]float64, len(schemes)-1)
	for i, s := range schemes[1:] {
		res, _, err := ev.run(s)
		if err != nil {
			return nil, err
		}
		if res.DeadlineMisses > 0 {
			return nil, fmt.Errorf("experiments: %s %q missed %d deadlines", what, s.name, res.DeadlineMisses)
		}
		out[i] = res.EnergyBattery / baseline
	}
	return out, nil
}
