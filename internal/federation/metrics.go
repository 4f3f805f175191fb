package federation

import (
	"battsched/internal/obs"
	"battsched/internal/service"
)

// fleetMetrics holds the fleet's registry-backed counters, on the front
// end's registry next to the shared job families. Everything here is created
// in Start, before anything takes the lock, so render-time gauge callbacks
// that take it cannot deadlock against registration (see the obs locking
// contract). Per-worker series are the one runtime addition and are
// registered outside the lock too (registerWorkerMetrics).
type fleetMetrics struct {
	leaseRenewals *obs.Counter // report polls answered 409 (still running), extending a lease
	leaseExpiries *obs.Counter // leases expired (deadline passed or worker died)
	expiredRe     *obs.Counter // unit re-dispatches after a failed/expired lease
	downHeartbeat *obs.Counter // battsched_worker_down_total{reason="heartbeat-miss"}
	downTransport *obs.Counter // battsched_worker_down_total{reason="transport-error"}
}

func newFleetMetrics(r *obs.Registry) fleetMetrics {
	const downHelp = "Workers taken out of dispatch rotation, by verdict: heartbeat-miss (consecutive /healthz probes failed) vs transport-error (a lease RPC failed at the socket level)."
	return fleetMetrics{
		leaseRenewals: r.Counter("battsched_fleet_lease_renewals_total", "Lease renewals from remote report polls that found the unit still running."),
		leaseExpiries: r.Counter("battsched_fleet_lease_expiries_total", "Leases expired: deadline passed without renewal, or the worker was marked dead."),
		expiredRe:     r.Counter("battsched_fleet_expired_redispatches_total", "Units re-dispatched after a failed or expired lease."),
		downHeartbeat: r.Counter("battsched_worker_down_total", downHelp, "reason", obs.ReasonHeartbeatMiss),
		downTransport: r.Counter("battsched_worker_down_total", downHelp, "reason", obs.ReasonTransportError),
	}
}

// registerGauges wires the fleet gauges to the fleet section of the health
// snapshot, so /healthz and /metrics agree by construction.
func (f *fleet) registerGauges() {
	r := f.s.Metrics()
	for _, g := range []struct {
		name, help string
		read       func(*service.FleetHealth) int
	}{
		{"battsched_fleet_workers", "Registered workers.", func(h *service.FleetHealth) int { return h.Workers }},
		{"battsched_fleet_live_workers", "Workers passing heartbeats.", func(h *service.FleetHealth) int { return h.LiveWorkers }},
		{"battsched_fleet_slots", "Total execution slots across live workers.", func(h *service.FleetHealth) int { return h.Slots }},
		{"battsched_fleet_free_slots", "Live slots no lease holds.", func(h *service.FleetHealth) int { return h.FreeSlots }},
		{"battsched_fleet_queued_units", "Units waiting for a slot.", func(h *service.FleetHealth) int { return h.QueuedUnits }},
		{"battsched_fleet_leased_units", "Worker slots leases hold, each until its copy of a unit ends.", func(h *service.FleetHealth) int { return h.LeasedUnits }},
	} {
		r.GaugeFunc(g.name, g.help, func() float64 { return float64(g.read(f.s.Health().Fleet)) })
	}
}

// registerWorkerMetrics registers one worker's per-URL series: liveness,
// outstanding leases and mean unit time. Idempotent (re-registration swaps
// in an equivalent callback reading the same map entry) and called WITHOUT
// the lock held — the callbacks take it at render time.
func (f *fleet) registerWorkerMetrics(url string) {
	read := func(get func(w *worker) float64) func() float64 {
		return func() float64 {
			f.s.Lock()
			defer f.s.Unlock()
			if w := f.workers[url]; w != nil {
				return get(w)
			}
			return 0
		}
	}
	r := f.s.Metrics()
	r.GaugeFunc("battsched_worker_up", "Per-worker liveness (1 = passing heartbeats).",
		read(func(w *worker) float64 {
			if w.live {
				return 1
			}
			return 0
		}), "worker", url)
	r.GaugeFunc("battsched_worker_leased", "Units this coordinator currently leases to the worker.",
		read(func(w *worker) float64 { return float64(w.leased) }), "worker", url)
	r.GaugeFunc("battsched_worker_mean_unit_seconds", "Per-worker mean dispatch-to-delivery unit time (EWMA).",
		read(func(w *worker) float64 { return w.meanUnitNs / 1e9 }), "worker", url)
}
