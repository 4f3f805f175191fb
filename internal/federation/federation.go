// Package federation implements the fleet coordinator of the experiment
// service: a daemon that accepts the same POST /v1/jobs API as a single
// battschedd worker (internal/service) but executes nothing itself. Instead
// it keeps a registry of remote battschedd workers — registered at start or
// over POST /v1/workers, health-checked by periodic heartbeat against their
// /healthz — splits every accepted job into shard units, and dispatches the
// units to workers under time-bounded leases through the typed client.
//
// Each unit rides the worker's own machinery: it is submitted as a
// single-shard job (JobRequest.Shard "i/n") content-addressed by the
// partial's hash, so a re-dispatch of a unit another worker already computed
// is a cache hit, and a re-dispatch of a unit the same worker is still
// computing coalesces onto the in-flight run. That idempotence is what makes
// the coordinator's failure handling simple: leases that expire (worker died
// or became unreachable) re-queue their units, stragglers (unit runtime
// beyond StragglerFactor × the fleet's mean unit time) get a speculative
// duplicate on another worker, the first completed copy wins, and duplicates
// are discarded — every copy of a shard partial is bit-exact.
//
// Shard partials fold into the job's report incrementally as they arrive
// (experiments.ReportMerger), so the merged artifact is ready the moment the
// last unit lands and is byte-identical to the local `cmd/experiments run -o`
// file. Accepted jobs and unit leases are journaled through
// internal/service/journal; a restarted coordinator resumes dispatch from the
// journal, folding already-cached partials instead of re-running them and
// preferring each unit's journaled worker (where the result is likely cached
// or still in flight).
package federation

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"battsched/internal/experiments"
	"battsched/internal/obs"
	"battsched/internal/service"
	"battsched/internal/service/cache"
	"battsched/internal/service/client"
	"battsched/internal/service/journal"
)

// shutdownMsg is the terminal failure message of jobs abandoned by
// coordinator shutdown. Their journal records survive for the next start.
const shutdownMsg = "coordinator shut down before the job finished"

// Config configures a Coordinator. The zero value of every field selects a
// sensible default; Workers may be empty when workers register over HTTP.
type Config struct {
	// Workers are the base URLs of the initial worker fleet
	// ("http://127.0.0.1:8345"). More can register over POST /v1/workers.
	Workers []string
	// HeartbeatInterval is the /healthz probe period per worker (<= 0
	// selects 1 s).
	HeartbeatInterval time.Duration
	// DeadAfter is the number of consecutive failed heartbeats after which a
	// worker is considered dead and its leases expire immediately (<= 0
	// selects 3).
	DeadAfter int
	// LeaseDuration bounds each dispatched unit's lease (<= 0 selects 15 s).
	// Every answered status request renews the lease, so a healthy
	// long-running unit keeps its lease alive; the lease only expires when
	// the worker stops answering. Keep it well above PollInterval.
	LeaseDuration time.Duration
	// PollInterval is the longest one remote job status request waits
	// (<= 0 selects 100 ms): the coordinator long-polls each leased unit
	// with GET /v1/jobs/{id}?wait=PollInterval, so it learns of a finished
	// unit at once and renews the lease at least this often.
	PollInterval time.Duration
	// StragglerFactor marks a unit a straggler once its runtime exceeds this
	// multiple of the fleet's mean unit time (EWMA); stragglers get one
	// speculative duplicate dispatch on another worker (<= 0 selects 3).
	StragglerFactor float64
	// StragglerMin is the minimum runtime before a unit can be called a
	// straggler, so short jobs don't speculate on scheduling noise (<= 0
	// selects 2 s).
	StragglerMin time.Duration
	// MaxAttempts bounds dispatch attempts per unit before the job fails
	// (<= 0 selects 3; speculative duplicates count).
	MaxAttempts int
	// CacheDir is the coordinator's content-addressed artifact store: full
	// merged artifacts and shard partials both live here, and a non-empty
	// CacheDir also enables the job journal (accepted jobs + unit leases)
	// that makes restart resume dispatch. "" keeps everything memory-only.
	CacheDir string
	// CacheEntries bounds the cache's in-memory LRU tier (<= 0 selects 64).
	CacheEntries int
	// JournalFsync syncs every journal record to stable storage (see
	// service.Config.JournalFsync).
	JournalFsync bool
	// MaxJobs bounds the job map like service.Config.MaxJobs (<= 0 selects
	// 1024).
	MaxJobs int
	// QueueCapacity bounds the number of shard units queued or leased at
	// once (<= 0 selects 256); submissions beyond it reject with 429 and a
	// Retry-After estimate.
	QueueCapacity int
	// OnDispatch, when non-nil, observes every unit dispatch (job ID, the
	// unit's shard, the worker URL) just before the unit is submitted to the
	// worker. Tests use it to count dispatches and to gate execution; leave
	// nil in production.
	OnDispatch func(jobID string, shard experiments.Shard, worker string)
}

func (cfg *Config) fillDefaults() {
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = time.Second
	}
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = 3
	}
	if cfg.LeaseDuration <= 0 {
		cfg.LeaseDuration = 15 * time.Second
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 100 * time.Millisecond
	}
	if cfg.StragglerFactor <= 0 {
		cfg.StragglerFactor = 3
	}
	if cfg.StragglerMin <= 0 {
		cfg.StragglerMin = 2 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 1024
	}
	if cfg.QueueCapacity <= 0 {
		cfg.QueueCapacity = 256
	}
}

// worker is one registered battschedd.
type worker struct {
	url        string
	sub        *client.Client // submits and polls: a couple of retries absorb restarts
	probe      *client.Client // heartbeats: fail fast, the heartbeat loop is the retry
	live       bool
	fails      int     // consecutive failed heartbeats
	slots      int     // the worker's pool size, from its last health snapshot
	leased     int     // units this coordinator currently leases to it
	meanUnitNs float64 // per-worker EWMA of dispatch-to-delivery unit time
}

// fedJob is one accepted coordinator job.
type fedJob struct {
	id         string
	trace      string // fleet-wide trace id, forwarded on every unit dispatch
	experiment string
	hash       string // the complete run's content address
	specReq    service.SpecRequest
	spec       experiments.Spec
	shards     int // requested fan-out (0/1 = unsharded single unit)
	state      string
	cached     bool
	coalesced  bool
	errMsg     string
	created    time.Time
	started    time.Time
	finished   time.Time
	units      []*funit
	merger     *experiments.ReportMerger // nil for unsharded jobs
	remaining  int
	followers  []*fedJob
	artifact   []byte
	done       chan struct{} // closed when the job turns terminal; wakes ?wait= holds
}

// funit is one dispatchable shard unit of a job.
type funit struct {
	job      *fedJob
	shard    experiments.Shard // disabled for the single unit of an unsharded job
	state    string
	finished bool // a partial was delivered (first completion won)
	queued   bool // currently waiting in the dispatch queue
	attempts int  // dispatches so far (speculative duplicates count)
	leases   []*lease
	prefer   string // journaled worker URL to prefer on restart replay
	started  time.Time
}

// lease is one outstanding dispatch of a unit to a worker.
type lease struct {
	unit      *funit
	w         *worker
	remote    string // the worker's job ID, once known
	started   time.Time
	expires   time.Time
	cancelled bool // expired or superseded; the poll goroutine stops
}

// Coordinator is the federation daemon. Construct with New, expose with
// Handler, stop with Shutdown (drain) or Close (immediate).
type Coordinator struct {
	cfg          Config
	cache        *cache.Cache
	ctx          context.Context
	cancel       context.CancelFunc
	wg           sync.WaitGroup
	mu           sync.Mutex
	cond         *sync.Cond // signalled when the queue or fleet capacity changes
	workers      map[string]*worker
	jobs         map[string]*fedJob
	inflight     map[string]*fedJob // complete-run hash -> leader job
	journal      *journal.Journal
	terminal     []string
	queue        []*funit // FIFO dispatch queue
	queuedPeak   int      // high-water mark of len(queue)
	seq          int
	draining     bool
	shutdownOnce sync.Once
	shutdownDone chan struct{}

	metrics *obs.Registry
	met     fedMetrics
	events  *obs.EventLog // nil without CacheDir

	meanUnitNs float64 // EWMA of dispatch-to-delivery unit time
}

// New constructs a coordinator, replays its journal (when CacheDir is set)
// and starts the heartbeat, dispatcher and lease-monitor loops.
func New(cfg Config) (*Coordinator, error) {
	cfg.fillDefaults()
	c, err := cache.New(cfg.CacheDir, cfg.CacheEntries)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	co := &Coordinator{
		cfg:          cfg,
		cache:        c,
		ctx:          ctx,
		cancel:       cancel,
		workers:      make(map[string]*worker),
		jobs:         make(map[string]*fedJob),
		inflight:     make(map[string]*fedJob),
		shutdownDone: make(chan struct{}),
	}
	co.cond = sync.NewCond(&co.mu)
	co.metrics = obs.NewRegistry()
	co.met = newFedMetrics(co.metrics)
	co.registerGauges()
	for _, url := range cfg.Workers {
		co.addWorkerLocked(url)
		co.registerWorkerMetrics(url)
	}
	var backlog []journal.Accept
	if cfg.CacheDir != "" {
		co.journal, backlog, err = journal.Open(filepath.Join(cfg.CacheDir, "journal.jsonl"), cfg.JournalFsync)
		if err != nil {
			cancel()
			return nil, err
		}
		co.events, err = obs.OpenEventLog(filepath.Join(cfg.CacheDir, "events.jsonl"))
		if err != nil {
			// Observability must not take the coordinator down: run without
			// the event log (Emit on nil is a no-op).
			log.Printf("federation: opening event log: %v", err)
			co.events = nil
		}
	}
	co.mu.Lock()
	for _, rec := range backlog {
		co.replayLocked(rec)
	}
	co.mu.Unlock()
	co.wg.Add(3)
	go co.heartbeatLoop()
	go co.dispatcher()
	go co.leaseMonitor()
	return co, nil
}

// AddWorker registers one worker URL (idempotent). The next heartbeat
// round-trip makes it live and dispatchable.
func (co *Coordinator) AddWorker(url string) {
	// Per-worker gauges register BEFORE co.mu is taken: registration takes the
	// registry write lock, and a concurrent /metrics render holds the registry
	// read lock while its callbacks take co.mu — registering under co.mu would
	// be a lock-order inversion (see the obs locking contract).
	co.registerWorkerMetrics(url)
	co.mu.Lock()
	defer co.mu.Unlock()
	co.addWorkerLocked(url)
}

func (co *Coordinator) addWorkerLocked(url string) {
	if _, ok := co.workers[url]; ok {
		return
	}
	sub := client.New(url)
	sub.MaxRetries = 2
	sub.RetryBaseDelay = 100 * time.Millisecond
	co.workers[url] = &worker{url: url, sub: sub, probe: client.New(url)}
	co.cond.Broadcast()
}

// WorkerStatus is one registry entry of GET /v1/workers.
type WorkerStatus struct {
	URL    string `json:"url"`
	Live   bool   `json:"live"`
	Slots  int    `json:"slots"`
	Leased int    `json:"leased"`
}

// Workers snapshots the registry, sorted by URL.
func (co *Coordinator) Workers() []WorkerStatus {
	co.mu.Lock()
	defer co.mu.Unlock()
	out := make([]WorkerStatus, 0, len(co.workers))
	for _, w := range co.workers {
		out = append(out, WorkerStatus{URL: w.url, Live: w.live, Slots: w.slots, Leased: w.leased})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// fleetBusyError is the coordinator's ErrQueueFull: the unit backlog would
// exceed QueueCapacity.
type fleetBusyError struct {
	units, capacity, backlog int
	retryAfter               time.Duration
}

func (e *fleetBusyError) Error() string {
	return fmt.Sprintf("%v: %d unit(s) do not fit (capacity %d, backlog %d); retry in %s",
		service.ErrQueueFull, e.units, e.capacity, e.backlog, e.retryAfter.Round(time.Second))
}

func (e *fleetBusyError) Unwrap() error { return service.ErrQueueFull }

// retryAfter implements the backpressure hint like the worker daemon's:
// backlog over fleet capacity at the recent mean unit time.
func (e *fleetBusyError) RetryAfter() time.Duration { return e.retryAfter }

// Submit validates and admits one job, exactly like service.Server.Submit: a
// cached hash answers immediately, an in-flight duplicate coalesces, anything
// else splits into shard units and queues for dispatch.
func (co *Coordinator) Submit(req service.JobRequest) (service.JobStatus, error) {
	def, err := experiments.Lookup(req.Experiment)
	if err != nil {
		return service.JobStatus{}, err
	}
	if req.Shard != "" {
		// Unit-level jobs are the coordinator's *output*, not its input:
		// a coordinator fronting coordinators is not supported.
		return service.JobStatus{}, fmt.Errorf("%w: the coordinator does not accept shard-unit jobs", experiments.ErrBadConfig)
	}
	if req.Shards < 0 {
		return service.JobStatus{}, fmt.Errorf("%w: negative shard count %d", experiments.ErrBadConfig, req.Shards)
	}
	if req.Shards > 1 && !def.Shardable {
		return service.JobStatus{}, fmt.Errorf("%w: experiment %q is deterministic and does not shard",
			experiments.ErrBadConfig, req.Experiment)
	}
	spec := req.Spec.Spec()
	if spec.Battery != "" {
		if _, err := experiments.NamedBatteryFactory(spec.Battery); err != nil {
			return service.JobStatus{}, err
		}
	}
	hash := experiments.SpecHash(req.Experiment, spec)

	co.mu.Lock()
	defer co.mu.Unlock()
	if co.draining {
		co.met.rejectedDrain.Inc()
		return service.JobStatus{}, service.ErrDraining
	}
	co.seq++
	j := &fedJob{
		id:         fmt.Sprintf("job-%06d", co.seq),
		trace:      req.TraceID,
		experiment: req.Experiment,
		hash:       hash,
		specReq:    req.Spec,
		spec:       spec,
		shards:     req.Shards,
		created:    time.Now(),
		done:       make(chan struct{}),
	}
	if j.trace == "" {
		j.trace = obs.NewTraceID()
	}
	if artifact, ok := co.cacheGetLocked(j, hash); ok {
		j.cached = true
		j.artifact = artifact
		co.jobs[j.id] = j
		co.met.jobsCached.Inc()
		co.emitAcceptLocked(j, "cached")
		co.finishLocked(j, service.StateDone, "")
		co.evictLocked()
		return co.statusLocked(j), nil
	}
	if leader := co.inflight[hash]; leader != nil {
		j.coalesced = true
		j.state = leader.state
		j.started = leader.started
		leader.followers = append(leader.followers, j)
		co.met.jobsCoalesced.Inc()
		co.emitAcceptLocked(j, "coalesced")
		co.jobs[j.id] = j
		co.journalAcceptLocked(j)
		co.evictLocked()
		return co.statusLocked(j), nil
	}
	units := co.buildUnits(j)
	if backlog := co.backlogLocked(); backlog+len(units) > co.cfg.QueueCapacity {
		co.met.rejectedFull.Inc()
		return service.JobStatus{}, &fleetBusyError{
			units: len(units), capacity: co.cfg.QueueCapacity, backlog: backlog,
			retryAfter: co.retryAfterLocked(),
		}
	}
	j.units = units
	j.state = service.StateQueued
	j.remaining = len(units)
	co.jobs[j.id] = j
	co.inflight[hash] = j
	co.met.jobsComputed.Inc()
	co.emitAcceptLocked(j, "computed")
	co.journalAcceptLocked(j)
	co.evictLocked()
	for _, u := range units {
		co.enqueueLocked(u)
	}
	return co.statusLocked(j), nil
}

// cacheGetLocked looks up one content address for job j, counting the hit or
// miss on the registry and mirroring it into the event log. Callers hold
// co.mu.
func (co *Coordinator) cacheGetLocked(j *fedJob, hash string) ([]byte, bool) {
	artifact, ok := co.cache.Get(hash)
	name := obs.EventCacheMiss
	if ok {
		co.met.cacheHits.Inc()
		name = obs.EventCacheHit
	} else {
		co.met.cacheMisses.Inc()
	}
	co.events.Emit(obs.Event{
		Event: name, Trace: j.trace, Job: j.id, Experiment: j.experiment,
		Detail: hash,
	})
	return artifact, ok
}

// emitAcceptLocked records one job admission in the event log; detail is the
// admission path (computed, coalesced, cached, replayed). Callers hold co.mu.
func (co *Coordinator) emitAcceptLocked(j *fedJob, detail string) {
	co.events.Emit(obs.Event{
		Event: obs.EventJobAccepted, Trace: j.trace, Job: j.id,
		Experiment: j.experiment, Detail: detail,
	})
}

// buildUnits constructs a job's units and, for sharded jobs, its incremental
// merger.
func (co *Coordinator) buildUnits(j *fedJob) []*funit {
	if j.shards <= 1 {
		return []*funit{{job: j, state: service.StateQueued}}
	}
	m, _ := experiments.NewReportMerger(j.shards)
	j.merger = m
	units := make([]*funit, 0, j.shards)
	for i := 0; i < j.shards; i++ {
		units = append(units, &funit{
			job:   j,
			shard: experiments.Shard{Index: i, Count: j.shards},
			state: service.StateQueued,
		})
	}
	return units
}

// backlogLocked counts units queued or under lease. Callers hold co.mu.
func (co *Coordinator) backlogLocked() int {
	n := 0
	for _, j := range co.jobs {
		for _, u := range j.units {
			if !u.finished && (u.queued || len(u.leases) > 0 || u.state == service.StateQueued) {
				n++
			}
		}
	}
	return n
}

// retryAfterLocked estimates the backpressure hint: backlog across fleet
// slots at the mean unit time, clamped to [1 s, 5 min]. Callers hold co.mu.
func (co *Coordinator) retryAfterLocked() time.Duration {
	mean := time.Duration(co.meanUnitNs)
	if mean <= 0 {
		mean = time.Second
	}
	slots := 0
	for _, w := range co.workers {
		if w.live {
			slots += w.slots
		}
	}
	if slots <= 0 {
		slots = 1
	}
	d := mean * time.Duration(co.backlogLocked()) / time.Duration(slots)
	if d < time.Second {
		d = time.Second
	}
	if d > 5*time.Minute {
		d = 5 * time.Minute
	}
	return d
}

// enqueueLocked appends a unit to the dispatch queue (idempotent per unit)
// and wakes the dispatcher. Callers hold co.mu.
func (co *Coordinator) enqueueLocked(u *funit) {
	if u.queued || u.finished {
		return
	}
	u.queued = true
	co.queue = append(co.queue, u)
	if len(co.queue) > co.queuedPeak {
		co.queuedPeak = len(co.queue)
	}
	co.cond.Broadcast()
}

// replayLocked re-admits one journaled job on start: cached partials fold
// immediately (never re-dispatched), the rest queue with the journaled worker
// preferred. Callers hold co.mu.
func (co *Coordinator) replayLocked(rec journal.Accept) {
	if n, ok := jobSeq(rec.ID); ok {
		if n > co.seq {
			co.seq = n
		}
	} else {
		co.seq++
		rec.ID = fmt.Sprintf("job-%06d", co.seq)
	}
	created := rec.Created
	if created.IsZero() {
		created = time.Now()
	}
	j := &fedJob{
		id: rec.ID, trace: rec.Trace, experiment: rec.Experiment, shards: rec.Shards,
		created: created, done: make(chan struct{}),
	}
	if j.trace == "" {
		j.trace = obs.NewTraceID()
	}
	co.jobs[j.id] = j
	co.emitAcceptLocked(j, "replayed")
	fail := func(msg string) {
		j.state = service.StateRunning
		co.completeLocked(j, service.StateFailed, "journal replay: "+msg, true)
	}
	def, err := experiments.Lookup(rec.Experiment)
	if err != nil {
		fail(err.Error())
		return
	}
	if err := json.Unmarshal(rec.Spec, &j.specReq); err != nil {
		fail("decoding spec: " + err.Error())
		return
	}
	if rec.Shards > 1 && !def.Shardable {
		fail(fmt.Sprintf("experiment %q does not shard", rec.Experiment))
		return
	}
	j.spec = j.specReq.Spec()
	j.hash = experiments.SpecHash(rec.Experiment, j.spec)
	if artifact, ok := co.cacheGetLocked(j, j.hash); ok {
		j.cached = true
		j.artifact = artifact
		j.state = service.StateRunning
		co.met.jobsCached.Inc()
		co.completeLocked(j, service.StateDone, "", true)
		return
	}
	if leader := co.inflight[j.hash]; leader != nil {
		j.coalesced = true
		j.state = leader.state
		leader.followers = append(leader.followers, j)
		co.met.jobsCoalesced.Inc()
		return
	}
	prefer := make(map[string]string, len(rec.Leases))
	for _, l := range rec.Leases {
		prefer[l.Unit] = l.Worker
	}
	j.units = co.buildUnits(j)
	j.state = service.StateQueued
	j.remaining = len(j.units)
	co.inflight[j.hash] = j
	co.met.jobsComputed.Inc()
	for _, u := range j.units {
		// A partial the previous coordinator already cached folds without a
		// dispatch — this is what "resumes from the journal without
		// re-running cached units" means.
		if u.shard.Enabled() {
			if raw, ok := co.cacheGetLocked(j, experiments.ShardSpecHash(j.experiment, j.spec, u.shard)); ok {
				if rep, err := decodePartial(raw); err == nil {
					if err := co.foldLocked(u, rep); err == nil {
						continue
					}
				}
			}
		}
		u.prefer = prefer[u.shard.String()]
		co.enqueueLocked(u)
	}
}

// jobSeq extracts the numeric sequence of a coordinator-issued job ID.
func jobSeq(id string) (int, bool) {
	var n int
	if _, err := fmt.Sscanf(id, "job-%d", &n); err != nil || n <= 0 {
		return 0, false
	}
	return n, true
}

// decodePartial decodes a single-report artifact.
func decodePartial(raw []byte) (*experiments.Report, error) {
	reports, err := experiments.ReadArtifact(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	if len(reports) != 1 {
		return nil, fmt.Errorf("federation: artifact holds %d reports, want 1", len(reports))
	}
	return reports[0], nil
}

// journalAcceptLocked journals one accepted job. Callers hold co.mu.
func (co *Coordinator) journalAcceptLocked(j *fedJob) {
	if co.journal == nil {
		return
	}
	raw, err := json.Marshal(j.specReq)
	if err == nil {
		err = co.journal.Accept(journal.Accept{
			ID: j.id, Experiment: j.experiment, Spec: raw,
			Shards: j.shards, Hash: j.hash, Created: j.created, Trace: j.trace,
		})
	}
	if err != nil {
		co.met.journalError(err)
		log.Printf("federation: journaling job %s failed (job runs, restart will not resume it): %v", j.id, err)
	}
}

// journalLeaseLocked journals one unit lease. Callers hold co.mu.
func (co *Coordinator) journalLeaseLocked(l *lease) {
	if co.journal == nil {
		return
	}
	err := co.journal.Lease(l.unit.job.id, journal.Lease{
		Unit: l.unit.shard.String(), Worker: l.w.url, Remote: l.remote, Expires: l.expires,
	})
	if err != nil {
		co.met.journalError(err)
		log.Printf("federation: journaling lease of %s %s: %v", l.unit.job.id, l.unit.shard.String(), err)
	}
}

// finishLocked marks a job terminal exactly once, counting and logging the
// terminal transition and waking its held status requests. Callers hold
// co.mu.
func (co *Coordinator) finishLocked(j *fedJob, state, errMsg string) {
	j.state = state
	j.errMsg = errMsg
	j.finished = time.Now()
	close(j.done)
	co.terminal = append(co.terminal, j.id)
	if state == service.StateDone {
		co.met.jobsDone.Inc()
		co.events.Emit(obs.Event{
			Event: obs.EventJobDone, Trace: j.trace, Job: j.id, Experiment: j.experiment,
		})
	} else {
		co.met.jobsFailed.Inc()
		co.events.Emit(obs.Event{
			Event: obs.EventJobFailed, Trace: j.trace, Job: j.id, Experiment: j.experiment,
			Detail: errMsg,
		})
	}
}

// completeLocked finishes a non-terminal job and its followers, cancels any
// outstanding leases of its units, and (unless abandoning for shutdown) marks
// the journal record done. Callers hold co.mu.
func (co *Coordinator) completeLocked(j *fedJob, state, errMsg string, journalDone bool) {
	if j.state == service.StateDone || j.state == service.StateFailed {
		return
	}
	co.finishLocked(j, state, errMsg)
	if co.inflight[j.hash] == j {
		delete(co.inflight, j.hash)
	}
	for _, u := range j.units {
		u.queued = false
		for _, l := range u.leases {
			co.releaseLocked(l)
		}
		u.leases = nil
	}
	if journalDone && co.journal != nil {
		if err := co.journal.Done(j.id); err != nil {
			co.met.journalError(err)
			log.Printf("federation: journaling completion of %s: %v", j.id, err)
		}
	}
	for _, f := range j.followers {
		if f.state == service.StateDone || f.state == service.StateFailed {
			continue
		}
		if state == service.StateDone {
			f.artifact = j.artifact
		}
		co.finishLocked(f, state, errMsg)
		if journalDone && co.journal != nil {
			if err := co.journal.Done(f.id); err != nil {
				co.met.journalError(err)
				log.Printf("federation: journaling completion of %s: %v", f.id, err)
			}
		}
	}
}

// releaseLocked cancels one lease and returns its slot. Callers hold co.mu.
func (co *Coordinator) releaseLocked(l *lease) {
	if l.cancelled {
		return
	}
	l.cancelled = true
	l.w.leased--
	co.cond.Broadcast()
}

// evictLocked drops the oldest terminal jobs beyond MaxJobs. Callers hold
// co.mu.
func (co *Coordinator) evictLocked() {
	for len(co.jobs) > co.cfg.MaxJobs && len(co.terminal) > 0 {
		id := co.terminal[0]
		co.terminal = co.terminal[1:]
		delete(co.jobs, id)
	}
}

// Job returns one job's status.
func (co *Coordinator) Job(id string) (service.JobStatus, error) {
	return co.JobWait(context.Background(), id, 0)
}

// JobWait returns one job's status, first holding up to wait while the job
// is queued or running, exactly like service.Server.JobWait.
func (co *Coordinator) JobWait(ctx context.Context, id string, wait time.Duration) (service.JobStatus, error) {
	co.mu.Lock()
	j, ok := co.jobs[id]
	co.mu.Unlock()
	if !ok {
		return service.JobStatus{}, fmt.Errorf("%w %q", service.ErrUnknownJob, id)
	}
	if wait > 0 {
		service.AwaitTerminal(ctx, j.done, wait)
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.statusLocked(j), nil
}

// Artifact returns a finished job's merged artifact — byte-identical to the
// local `cmd/experiments run -o` file.
func (co *Coordinator) Artifact(id string) ([]byte, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	j, ok := co.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w %q", service.ErrUnknownJob, id)
	}
	switch j.state {
	case service.StateDone:
		return j.artifact, nil
	case service.StateFailed:
		return nil, fmt.Errorf("federation: job %s failed: %s", id, j.errMsg)
	default:
		return nil, fmt.Errorf("%w: job %s is %s", service.ErrJobNotFinished, id, j.state)
	}
}

// statusLocked builds a JobStatus snapshot. Callers hold co.mu.
func (co *Coordinator) statusLocked(j *fedJob) service.JobStatus {
	st := service.JobStatus{
		ID:         j.id,
		Experiment: j.experiment,
		TraceID:    j.trace,
		Hash:       j.hash,
		State:      j.state,
		Cached:     j.cached,
		Coalesced:  j.coalesced,
		Error:      j.errMsg,
		Created:    j.created,
		Started:    j.started,
		Finished:   j.finished,
	}
	for _, u := range j.units {
		st.Shards = append(st.Shards, service.ShardStatus{
			Shard: u.shard.String(),
			State: u.state,
		})
	}
	return st
}

// Health snapshots the coordinator: the shared Health shape with the Fleet
// section filled in.
func (co *Coordinator) Health() service.Health {
	co.mu.Lock()
	defer co.mu.Unlock()
	status := "ok"
	if co.draining {
		status = "draining"
	}
	// Lifetime counters are read back from the metrics registry, so /healthz
	// and /metrics cannot disagree (pinned by TestFleetHealthMatchesMetrics).
	fleet := &service.FleetHealth{
		Workers:               len(co.workers),
		ExpiredRedispatches:   int(co.met.expiredRe.Value()),
		SpeculativeDispatches: int(co.met.speculative.Value()),
		MeanUnitMs:            co.meanUnitNs / 1e6,
	}
	leased := 0
	for _, w := range co.workers {
		if w.live {
			fleet.LiveWorkers++
			fleet.Slots += w.slots
			free := w.slots - w.leased
			if free > 0 {
				fleet.FreeSlots += free
			}
		}
		leased += w.leased
	}
	fleet.LeasedUnits = leased
	fleet.QueuedUnits = len(co.queue)
	return service.Health{
		Status:           status,
		QueueDepth:       len(co.queue),
		QueueCapacity:    co.cfg.QueueCapacity,
		InFlight:         leased,
		Workers:          fleet.Slots,
		Jobs:             len(co.jobs),
		CoalescedJobs:    int(co.met.jobsCoalesced.Value()),
		CacheEntries:     co.cache.Len(),
		CacheHits:        int(co.met.cacheHits.Value()),
		CacheMisses:      int(co.met.cacheMisses.Value()),
		CacheWriteErrors: int(co.met.cacheWriteErr.Value()),
		MeanUnitMs:       co.meanUnitNs / 1e6,
		Fleet:            fleet,
	}
}

// Close stops the coordinator immediately; in-flight leases are abandoned
// (their journal records survive for the next start).
func (co *Coordinator) Close() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = co.Shutdown(ctx)
}

// Shutdown drains gracefully: new submissions reject with ErrDraining,
// outstanding jobs run to completion until ctx expires, then everything still
// pending is abandoned (terminal-failed in memory, journal records retained
// for the next coordinator). Safe to call concurrently and repeatedly.
func (co *Coordinator) Shutdown(ctx context.Context) error {
	ran := false
	co.shutdownOnce.Do(func() {
		ran = true
		co.doShutdown(ctx)
	})
	if !ran {
		<-co.shutdownDone
	}
	return nil
}

func (co *Coordinator) doShutdown(ctx context.Context) {
	co.mu.Lock()
	co.draining = true
	co.cond.Broadcast()
	co.mu.Unlock()
	// Drain: wait until no job is live or the deadline passes. Dispatch of
	// already-accepted units continues while draining.
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
drain:
	for {
		co.mu.Lock()
		live := false
		for _, j := range co.jobs {
			if j.state == service.StateQueued || j.state == service.StateRunning {
				live = true
				break
			}
		}
		co.mu.Unlock()
		if !live {
			break
		}
		select {
		case <-ctx.Done():
			break drain
		case <-tick.C:
		}
	}
	co.cancel()
	co.mu.Lock()
	co.cond.Broadcast()
	co.mu.Unlock()
	co.wg.Wait()
	co.mu.Lock()
	for _, j := range co.jobs {
		if j.state == service.StateQueued || j.state == service.StateRunning {
			co.completeLocked(j, service.StateFailed, shutdownMsg, false)
		}
	}
	if co.journal != nil {
		if err := co.journal.Close(); err != nil {
			co.met.journalError(err)
			log.Printf("federation: closing journal: %v", err)
		}
		co.journal = nil
	}
	co.mu.Unlock()
	co.events.Close()
	close(co.shutdownDone)
}
