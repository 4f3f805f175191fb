// Package core implements the paper's Battery-Aware Scheduling methodology:
// a preemptive EDF scheduling engine for periodically arriving task graphs on
// a single DVS-capable processor, in which
//
//   - a pluggable DVS algorithm (internal/dvs) re-selects the reference
//     frequency fref on every task-graph release and node completion
//     (the paper's Algorithm 1), and
//   - a pluggable priority function (internal/priority) chooses which ready
//     node to execute next, either among the nodes of the most imminent task
//     graph only (BAS-1) or among the nodes of all released task graphs
//     (BAS-2), in which case the paper's feasibility check (Algorithm 2)
//     guarantees that no deadline is ever missed.
//
// The engine produces an execution trace and a battery load-current profile
// that the battery models (internal/battery) evaluate for lifetime and
// delivered charge.
package core

import (
	"errors"
	"fmt"

	"battsched/internal/dvs"
	"battsched/internal/priority"
	"battsched/internal/processor"
	"battsched/internal/taskgraph"
)

// ReadyPolicy selects which released task graphs contribute candidates to the
// ready list.
type ReadyPolicy int

const (
	// MostImminentOnly admits only ready nodes of the released task graph
	// with the earliest absolute deadline (the BAS-1 policy; plain EDF among
	// graphs, so no feasibility check is needed).
	MostImminentOnly ReadyPolicy = iota
	// AllReleased admits ready nodes of every released task graph (the BAS-2
	// policy); out-of-EDF-order candidates must pass the feasibility check.
	AllReleased
)

// String implements fmt.Stringer.
func (p ReadyPolicy) String() string {
	switch p {
	case MostImminentOnly:
		return "most-imminent"
	case AllReleased:
		return "all-released"
	default:
		return fmt.Sprintf("ReadyPolicy(%d)", int(p))
	}
}

// FrequencyMode selects how the reference frequency is realised.
type FrequencyMode int

const (
	// ContinuousFrequency runs the processor exactly at fref (clamped to the
	// supported range) — the idealised model used for the energy-only
	// comparisons (Table 1, Figure 6).
	ContinuousFrequency FrequencyMode = iota
	// DiscreteFrequency realises fref as the optimal linear combination of
	// the two adjacent supported operating points, higher frequency first, as
	// the paper prescribes for real processors (used for the battery runs of
	// Table 2).
	DiscreteFrequency
	// DiscreteCeilFrequency realises fref at the smallest supported operating
	// point that is at least fref. It is the naive quantisation policy the
	// paper argues against (citing the optimality of the linear combination)
	// and exists for ablation studies.
	DiscreteCeilFrequency
)

// String implements fmt.Stringer.
func (m FrequencyMode) String() string {
	switch m {
	case ContinuousFrequency:
		return "continuous"
	case DiscreteFrequency:
		return "discrete"
	case DiscreteCeilFrequency:
		return "discrete-ceil"
	default:
		return fmt.Sprintf("FrequencyMode(%d)", int(m))
	}
}

// Config assembles one scheduling simulation.
type Config struct {
	// System is the set of periodic task graphs to schedule.
	System *taskgraph.System
	// Processor is the DVS processor model (nil selects processor.Default()).
	Processor *processor.Model
	// DVS selects the reference frequency (nil selects dvs.NewCCEDF()).
	DVS dvs.Algorithm
	// Priority orders the ready list (nil selects priority.NewFIFO()).
	Priority priority.Function
	// Estimator predicts actual execution requirements for the priority
	// function (nil selects priority.NewHistoryEstimator(0.5)). The engine
	// neither asks nor feeds an estimator that nothing reads: it calls
	// Estimate and Observe only when the priority function reads estimates
	// (priority.ReadsEstimate) and OracleEstimates is off.
	Estimator priority.Estimator
	// OracleEstimates, when true, feeds the priority function the true actual
	// cycles of each node instance instead of the estimator's prediction, and
	// leaves the estimator unused.
	OracleEstimates bool
	// ReadyPolicy selects BAS-1 (MostImminentOnly) or BAS-2 (AllReleased)
	// candidate admission.
	ReadyPolicy ReadyPolicy
	// FrequencyMode selects continuous or discrete frequency realisation.
	FrequencyMode FrequencyMode
	// Execution draws actual execution requirements (nil selects the paper's
	// uniform 20–100 % of WCET model seeded with Seed).
	Execution taskgraph.ExecutionModel
	// Observer receives every constant-state segment the simulation emits
	// (see SegmentSink). Nil selects the full Recorder, which populates
	// Result.Profile and Result.Trace as before; experiment sweeps pass
	// cheap accumulate-only sinks (Discard, NewProfileRecorder) to skip
	// recording they do not need. Energy totals are accumulated by the
	// engine itself and do not depend on the observer.
	Observer SegmentSink
	// Horizon is the simulated duration in seconds. When zero the horizon is
	// Hyperperiods hyperperiods of the system.
	Horizon float64
	// Hyperperiods is the number of hyperperiods to simulate when Horizon is
	// zero (default 1).
	Hyperperiods int
	// Seed seeds the random elements (execution model, Random priority).
	Seed int64
}

// Errors returned by Config.Validate and Run.
var (
	ErrNilSystem  = errors.New("core: nil task-graph system")
	ErrBadHorizon = errors.New("core: horizon must be positive")
	ErrOverload   = errors.New("core: system utilisation exceeds 1 at fmax")
	// ErrEngineNotReady is returned by Engine.Run when it is not preceded by a
	// successful Engine.Reset (each Reset admits exactly one Run).
	ErrEngineNotReady = errors.New("core: Engine.Run requires a successful Reset first")
)

// withDefaults returns a copy of the config with nil/zero fields replaced by
// the documented defaults.
func (c Config) withDefaults() Config {
	if c.Processor == nil {
		c.Processor = processor.Default()
	}
	if c.DVS == nil {
		c.DVS = dvs.NewCCEDF()
	}
	if c.Priority == nil {
		c.Priority = priority.NewFIFO()
	}
	if c.Estimator == nil {
		c.Estimator = priority.NewHistoryEstimator(0.5)
	}
	if c.Execution == nil {
		c.Execution = taskgraph.NewUniformExecution(0.2, 1.0, c.Seed)
	}
	if c.Horizon <= 0 && c.Hyperperiods <= 0 {
		c.Hyperperiods = 1
	}
	return c
}

// Validate checks the configuration for structural problems.
func (c Config) Validate() error {
	if c.System == nil {
		return ErrNilSystem
	}
	cfg := c.withDefaults()
	if err := cfg.Processor.Validate(); err != nil {
		return err
	}
	if err := cfg.System.Validate(cfg.Processor.FMax()); err != nil {
		if errors.Is(err, taskgraph.ErrOverload) {
			return fmt.Errorf("%w: %v", ErrOverload, err)
		}
		return err
	}
	if c.Horizon < 0 {
		return ErrBadHorizon
	}
	return nil
}

// horizon returns the simulation horizon in seconds for the (defaulted)
// configuration.
func (c Config) horizon() float64 {
	if c.Horizon > 0 {
		return c.Horizon
	}
	n := c.Hyperperiods
	if n <= 0 {
		n = 1
	}
	return c.System.Hyperperiod() * float64(n)
}
