package service

import (
	"time"

	"battsched/internal/experiments"
)

// Job states, in lifecycle order. A job is terminal in StateDone or
// StateFailed; cached submissions are born StateDone.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// SpecRequest is the JSON wire form of an experiment Spec: the Spec itself,
// whose JSON tags name exactly its output-determining fields (the
// canonical-hash fields). The execution-only knobs the daemon owns
// (worker-pool size, progress callbacks, shard selection — sharding is
// requested per job via JobRequest.Shards and fanned out server-side) have
// no wire name, and admission clears them.
type SpecRequest experiments.Spec

// Spec converts the wire form into the experiment Spec the registry runs.
func (r SpecRequest) Spec() experiments.Spec { return experiments.Spec(r) }

// JobRequest is the POST /v1/jobs payload: one registered experiment, its
// spec, and the number of shards to fan the run out over.
type JobRequest struct {
	// Experiment is the registry name ("table2", "grid", ...).
	Experiment string `json:"experiment"`
	// Spec configures the run; the zero value selects the paper defaults.
	Spec SpecRequest `json:"spec"`
	// Shards fans the run out over this many independent shard units
	// (RunOptions.Shard), auto-merged on completion; 0 or 1 runs unsharded.
	// When > 1 it requires a shardable experiment with fixed set counts
	// (experiments.Definition.Check), and it is at most the queue bound
	// (Config.QueueCapacity), since every unit must fit the queue at once.
	Shards int `json:"shards,omitempty"`
	// Shard, when set ("2/4"), runs exactly that one shard slice as a
	// single-unit job whose artifact is the shard's partial report — the unit
	// of work a federation coordinator dispatches to workers. The job is
	// content-addressed by the partial's hash (experiments.ShardSpecHash), so
	// duplicate dispatches of the same unit coalesce or hit the cache.
	// Mutually exclusive with Shards > 1; requires a shardable experiment
	// with fixed set counts.
	Shard string `json:"shard,omitempty"`
	// TraceID is the submission's fleet-wide trace id. It travels as the
	// X-Trace-Id header (obs.TraceHeader), not in the JSON body — the typed
	// client stamps it on every POST and the HTTP layer folds it back into
	// the decoded request — so the wire body (and therefore nothing
	// output-determining) is unchanged. Empty means the server issues one.
	TraceID string `json:"-"`
}

// ShardStatus reports one shard unit's progress.
type ShardStatus struct {
	// Shard is the CLI form of the unit's shard ("0/2"; "" when the job runs
	// unsharded as a single unit).
	Shard string `json:"shard,omitempty"`
	// State is the unit's state (queued, running, done, failed).
	State string `json:"state"`
	// Done and Total are the unit's completed and total set-level job counts,
	// fed from the experiment driver's progress callbacks. Total is 0 until
	// the first callback fires; under adaptive set counts the pair restarts
	// for each batch.
	Done  int `json:"done"`
	Total int `json:"total"`
}

// JobStatus is the GET /v1/jobs/{id} payload (and the POST response).
type JobStatus struct {
	// ID identifies the job on this daemon.
	ID string `json:"id"`
	// Experiment is the registry name the job runs.
	Experiment string `json:"experiment"`
	// TraceID is the fleet-wide trace id threading this job's records
	// through the JSONL event logs (client-issued, or server-issued for
	// untraced submissions).
	TraceID string `json:"trace_id,omitempty"`
	// Hash is the canonical spec hash (experiments.SpecHash) — the content
	// address of the job's report artifact in the cache.
	Hash string `json:"hash"`
	// State is the job state (queued, running, done, failed).
	State string `json:"state"`
	// Cached reports that the job was served from the content-addressed
	// report cache without recomputation.
	Cached bool `json:"cached"`
	// Coalesced reports that the job attached as a follower to an in-flight
	// job of the same spec hash instead of computing: it resolves — with the
	// identical artifact, or the same failure — when its leader finalises.
	Coalesced bool `json:"coalesced,omitempty"`
	// Shards reports per-unit progress, in shard order.
	Shards []ShardStatus `json:"shards,omitempty"`
	// Error carries the failure message of a failed job.
	Error string `json:"error,omitempty"`
	// Created, Started and Finished timestamp the job's lifecycle (zero when
	// the phase has not been reached).
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`
}

// ExperimentInfo is one entry of GET /v1/experiments.
type ExperimentInfo struct {
	Name      string `json:"name"`
	Title     string `json:"title"`
	Paper     string `json:"paper,omitempty"`
	Shardable bool   `json:"shardable"`
}

// Health is the GET /healthz payload.
type Health struct {
	// Status is "ok" while the daemon accepts jobs, "draining" once Shutdown
	// has begun (the endpoint then answers 503, so load balancers stop
	// routing here).
	Status string `json:"status"`
	// QueueDepth is the number of shard units waiting in the FIFO queue.
	QueueDepth int `json:"queue_depth"`
	// QueueCapacity is the queue bound (units, not jobs).
	QueueCapacity int `json:"queue_capacity"`
	// InFlight is the number of shard units currently executing.
	InFlight int `json:"in_flight"`
	// Workers is the worker-pool size.
	Workers int `json:"workers"`
	// Jobs is the number of jobs currently tracked (the oldest terminal jobs
	// are evicted beyond Config.MaxJobs).
	Jobs int `json:"jobs"`
	// CoalescedJobs counts submissions that attached to an in-flight job of
	// the same spec instead of computing, over the daemon's lifetime.
	CoalescedJobs int `json:"coalesced_jobs"`
	// CacheEntries, CacheHits and CacheMisses describe the report cache's
	// in-memory tier. Hits and misses count the lookups that could reuse a
	// result (admission, journal replay); a report read (GET
	// /v1/jobs/{id}/report) counts as neither.
	CacheEntries int `json:"cache_entries"`
	CacheHits    int `json:"cache_hits"`
	CacheMisses  int `json:"cache_misses"`
	// CacheWriteErrors counts report cache write failures (disk full,
	// permissions); the affected jobs still completed from memory.
	CacheWriteErrors int `json:"cache_write_errors,omitempty"`
	// MeanUnitMs is the recent mean shard-unit execution time (EWMA,
	// milliseconds) — the quantity behind Retry-After estimates. 0 until the
	// first unit completes.
	MeanUnitMs float64 `json:"mean_unit_ms,omitempty"`
	// Fleet carries the federation coordinator's fleet view; nil on plain
	// worker daemons.
	Fleet *FleetHealth `json:"fleet,omitempty"`
}

// FleetHealth is the federation coordinator's view of its worker fleet,
// embedded in Health.
type FleetHealth struct {
	// Workers and LiveWorkers count registered and currently-live (heartbeat
	// passing) workers.
	Workers     int `json:"workers"`
	LiveWorkers int `json:"live_workers"`
	// Slots is the fleet's total execution slots across live workers (each
	// worker's pool size), and FreeSlots the portion no lease holds.
	Slots     int `json:"slots"`
	FreeSlots int `json:"free_slots"`
	// QueuedUnits counts shard units waiting for a slot, and LeasedUnits the
	// slots leases hold on all workers: a lease holds its slot until the
	// unit's copy on that worker ends, after its unit stopped waiting on it
	// too (expired, or overtaken by a late copy), since the coordinator
	// cannot cancel a remote job.
	QueuedUnits int `json:"queued_units"`
	LeasedUnits int `json:"leased_units"`
	// ExpiredRedispatches counts units re-dispatched over the coordinator's
	// lifetime after a lease failed or expired (dead, unreachable or failing
	// workers).
	ExpiredRedispatches int `json:"expired_redispatches"`
}

// apiError is the JSON error envelope every non-2xx response carries.
type apiError struct {
	Error string `json:"error"`
}
