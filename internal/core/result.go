package core

import (
	"battsched/internal/profile"
	"battsched/internal/trace"
)

// Result summarises one scheduling simulation.
type Result struct {
	// Profile is the battery load-current profile of the simulated horizon.
	// It is populated when the configured observer builds one (the default
	// Recorder and NewProfileRecorder do; Discard leaves it nil).
	Profile *profile.Profile
	// Trace is the execution trace (which node ran when, at which frequency).
	// It is populated when the configured observer builds one (the default
	// Recorder does; profile-only and no-op sinks leave it nil).
	Trace *trace.Trace
	// Horizon is the simulated duration in seconds (it may exceed the
	// configured horizon slightly if work released before the horizon needed
	// to finish).
	Horizon float64
	// EnergyBattery is the energy drawn from the battery in joules.
	EnergyBattery float64
	// EnergyProcessor is the energy delivered to the processor core in
	// joules (EnergyBattery times the converter efficiency).
	EnergyProcessor float64
	// DeadlineMisses counts task-graph instances that were not complete at
	// their absolute deadline. It is zero for every configuration the paper
	// considers; a non-zero value indicates a mis-configured workload
	// (utilisation above 1) or a scheduler bug.
	DeadlineMisses int
	// JobsReleased and JobsCompleted count task-graph instances.
	JobsReleased  int
	JobsCompleted int
	// NodesCompleted counts completed node executions.
	NodesCompleted int
	// BusyTime and IdleTime partition the horizon.
	BusyTime float64
	IdleTime float64
	// ExecutedCycles is the total number of processor cycles executed.
	ExecutedCycles float64
	// AverageFrequency is ExecutedCycles/BusyTime (0 if never busy).
	AverageFrequency float64
	// Preemptions counts times a partially executed node was set aside for a
	// different node.
	Preemptions int
	// OutOfOrderExecutions counts times the scheduler picked a candidate from
	// a task graph other than the most imminent one (BAS-2 only).
	OutOfOrderExecutions int
	// FeasibilityRejections counts candidates rejected by the feasibility
	// check (BAS-2 only).
	FeasibilityRejections int
	// SchedulingDecisions counts ready-list evaluations.
	SchedulingDecisions int
	// PerGraph holds per-task-graph response-time and miss statistics.
	PerGraph []GraphStats
}

// AveragePower returns the average battery-side power in watts.
func (r Result) AveragePower() float64 {
	if r.Horizon <= 0 {
		return 0
	}
	return r.EnergyBattery / r.Horizon
}
