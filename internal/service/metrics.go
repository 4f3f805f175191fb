package service

import (
	"errors"

	"battsched/internal/obs"
	"battsched/internal/service/journal"
)

// unitBuckets are the unit-duration histogram bounds (seconds): quick-spec
// shard units land in the millisecond buckets, paper-sized runs in the
// minute ones, and a coordinator's units add dispatch, poll and fetch hops
// on top of worker execution.
var unitBuckets = []float64{
	0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300, 600,
}

// serverMetrics holds the front end's registry-backed counters and
// histograms, the same families in both modes.
// Every series is created up front in newServerMetrics — never while holding
// s.mu — so render-time gauge callbacks that take s.mu cannot deadlock
// against registration (see the obs locking contract).
type serverMetrics struct {
	jobsComputed  *obs.Counter // battsched_jobs_total{admission="computed"}
	jobsCoalesced *obs.Counter // battsched_jobs_total{admission="coalesced"}
	jobsCached    *obs.Counter // battsched_jobs_total{admission="cached"}
	jobsDone      *obs.Counter
	jobsFailed    *obs.Counter
	rejectedFull  *obs.Counter // queue-full 429s
	rejectedDrain *obs.Counter // draining 503s
	cacheHits     *obs.Counter
	cacheMisses   *obs.Counter
	cacheWriteErr *obs.Counter
	journalAppend *obs.Counter // journal append failures
	journalComp   *obs.Counter // journal compaction failures
	unitDur       *obs.Histogram
}

func newServerMetrics(r *obs.Registry) serverMetrics {
	const jobsHelp = "Job submissions by admission path: computed (split into units and queued for execution), coalesced (attached to an in-flight duplicate), cached (served from the report cache)."
	const rejHelp = "Rejected submissions by reason: queue_full (429), draining (503)."
	const journalHelp = "Job journal failures by operation: append (accept/done/lease record writes), compact (log rewrites)."
	return serverMetrics{
		jobsComputed:  r.Counter("battsched_jobs_total", jobsHelp, "admission", "computed"),
		jobsCoalesced: r.Counter("battsched_jobs_total", jobsHelp, "admission", "coalesced"),
		jobsCached:    r.Counter("battsched_jobs_total", jobsHelp, "admission", "cached"),
		jobsDone:      r.Counter("battsched_jobs_finished_total", "Jobs reaching a terminal state.", "state", "done"),
		jobsFailed:    r.Counter("battsched_jobs_finished_total", "Jobs reaching a terminal state.", "state", "failed"),
		rejectedFull:  r.Counter("battsched_rejected_total", rejHelp, "reason", "queue_full"),
		rejectedDrain: r.Counter("battsched_rejected_total", rejHelp, "reason", "draining"),
		cacheHits:     r.Counter("battsched_cache_hits_total", "Content-addressed report cache hits (complete runs and shard partials)."),
		cacheMisses:   r.Counter("battsched_cache_misses_total", "Content-addressed report cache misses."),
		cacheWriteErr: r.Counter("battsched_cache_write_errors_total", "Report cache write failures (the job still completed from memory)."),
		journalAppend: r.Counter("battsched_journal_errors_total", journalHelp, "op", "append"),
		journalComp:   r.Counter("battsched_journal_errors_total", journalHelp, "op", "compact"),
		unitDur: r.Histogram("battsched_unit_duration_seconds",
			"Shard unit run duration: local execution, or a coordinator's dispatch to delivery.", unitBuckets),
	}
}

// journalError mirrors one journal failure onto the registry, separating
// compaction failures (ErrCompaction) from plain append failures.
func (m *serverMetrics) journalError(err error) {
	if errors.Is(err, journal.ErrCompaction) {
		m.journalComp.Inc()
	} else {
		m.journalAppend.Inc()
	}
}

// registerGauges wires the instantaneous series to the same server fields
// /healthz reports, so the two endpoints agree by construction. Called from
// NewWithExecutor before anything runs; callbacks take s.mu at render time.
func (s *Server) registerGauges() {
	r := s.metrics
	read := func(f func() float64) func() float64 {
		return func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return f()
		}
	}
	r.GaugeFunc("battsched_queue_depth", "Shard units waiting in the FIFO queue.",
		read(func() float64 { return float64(len(s.queue)) }))
	r.GaugeFunc("battsched_queue_depth_peak", "High-water mark of battsched_queue_depth over the daemon's lifetime.",
		read(func() float64 { return float64(s.queuedPeak) }))
	r.GaugeFunc("battsched_queue_capacity", "Queue bound in shard units.",
		func() float64 { return float64(s.cfg.QueueCapacity) })
	r.GaugeFunc("battsched_in_flight", "Shard units currently executing (on a coordinator: dispatched).",
		read(func() float64 { return float64(s.inFlight) }))
	r.GaugeFunc("battsched_jobs_tracked", "Jobs currently tracked in the job map.",
		read(func() float64 { return float64(len(s.jobs)) }))
	r.GaugeFunc("battsched_cache_entries", "Report cache in-memory entries.",
		func() float64 { return float64(s.cache.Len()) })
	r.GaugeFunc("battsched_mean_unit_seconds", "Recent mean shard-unit duration (EWMA) behind Retry-After estimates.",
		read(func() float64 { return s.meanUnitNs / 1e9 }))
	r.GaugeFunc("battsched_draining", "1 once graceful shutdown has begun, else 0.",
		read(func() float64 {
			if s.draining {
				return 1
			}
			return 0
		}))
	obs.RegisterSim(r, &obs.Sim)
}

// Metrics returns the front end's metrics registry (the /metrics source),
// on which an Executor registers its own series.
func (s *Server) Metrics() *obs.Registry { return s.metrics }
