package obs

import "sync/atomic"

// SimStats is the compute-core counter bundle: one atomic add per engine run
// or battery simulation, cheap enough for the hot path (no allocation, no
// locks) and readable from the daemon registries, the benchmark's work stamp
// and tests. The package global Sim is threaded into core.Engine and
// battery.SimulateBatch.
type SimStats struct {
	// EngineRuns counts scheduler engine executions (core.Engine.Run).
	EngineRuns atomic.Uint64
	// BatteryAnalytic and BatteryStepped count battery lifetime simulations
	// by dispatch path: closed-form analytic fast path vs time-stepped
	// integration.
	BatteryAnalytic atomic.Uint64
	BatteryStepped  atomic.Uint64
	// BatteryBatches counts SimulateBatch passes (each evaluates one load
	// profile against N models).
	BatteryBatches atomic.Uint64
}

// Sim is the process-wide compute-core counter bundle.
var Sim SimStats

// SimSnapshot is a point-in-time copy of SimStats, JSON-ready for bench
// reports.
type SimSnapshot struct {
	EngineRuns      uint64 `json:"engine_runs"`
	BatteryAnalytic uint64 `json:"battery_analytic"`
	BatteryStepped  uint64 `json:"battery_stepped"`
	BatteryBatches  uint64 `json:"battery_batches"`
}

// Snapshot copies the current counter values.
func (s *SimStats) Snapshot() SimSnapshot {
	return SimSnapshot{
		EngineRuns:      s.EngineRuns.Load(),
		BatteryAnalytic: s.BatteryAnalytic.Load(),
		BatteryStepped:  s.BatteryStepped.Load(),
		BatteryBatches:  s.BatteryBatches.Load(),
	}
}

// Sub returns the per-field difference s - prev (counter deltas over a
// bench run).
func (s SimSnapshot) Sub(prev SimSnapshot) SimSnapshot {
	return SimSnapshot{
		EngineRuns:      s.EngineRuns - prev.EngineRuns,
		BatteryAnalytic: s.BatteryAnalytic - prev.BatteryAnalytic,
		BatteryStepped:  s.BatteryStepped - prev.BatteryStepped,
		BatteryBatches:  s.BatteryBatches - prev.BatteryBatches,
	}
}

// RegisterSim exposes the bundle on a registry as counter-func series, so a
// daemon's /metrics reports the compute work it has executed in-process.
func RegisterSim(r *Registry, s *SimStats) {
	r.CounterFunc("battsched_engine_runs_total",
		"Scheduler engine executions (core.Engine.Run).",
		func() float64 { return float64(s.EngineRuns.Load()) })
	r.CounterFunc("battsched_battery_sims_total",
		"Battery lifetime simulations by dispatch path.",
		func() float64 { return float64(s.BatteryAnalytic.Load()) }, "path", "analytic")
	r.CounterFunc("battsched_battery_sims_total",
		"Battery lifetime simulations by dispatch path.",
		func() float64 { return float64(s.BatteryStepped.Load()) }, "path", "stepped")
	r.CounterFunc("battsched_battery_batches_total",
		"SimulateBatch passes (one load profile against N models).",
		func() float64 { return float64(s.BatteryBatches.Load()) })
}
