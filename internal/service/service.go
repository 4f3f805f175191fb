// Package service implements the experiment daemon behind cmd/battschedd: a
// long-running HTTP server over the experiment registry with an asynchronous
// bounded FIFO job queue, server-side shard fan-out, and a content-addressed
// report cache.
//
// A submitted job names a registered experiment and a SpecRequest. Jobs enter
// the queue as shard units — one unit for an unsharded run, or Shards
// independent units each executing its RunOptions.Shard slice — and a bounded
// worker pool drains the queue in FIFO order. When the last unit of a job
// completes, the partial reports are recombined with experiments.MergeReports
// and the complete run's artifact (exactly the bytes `cmd/experiments run -o`
// writes) is stored in the cache under the canonical spec hash
// (experiments.SpecHash). A later submission of an equal spec — sharded or
// not — is answered from the cache without recomputation and marked Cached.
//
// Under heavy identical traffic the daemon additionally coalesces in-flight
// work: a submission whose spec hash matches a job that is still queued or
// running attaches to it as a follower (JobStatus.Coalesced) instead of
// recomputing — it resolves, with the identical artifact, the moment the
// leader finalises, and inherits the leader's failure otherwise. With a
// CacheDir configured, accepted jobs are journaled to a JSONL write-ahead log
// (internal/service/journal) and replayed on daemon start, so a restart
// resumes accepted-but-unfinished work instead of dropping it. A full queue
// rejects with ErrQueueFull carrying a Retry-After estimate (queue backlog ×
// recent mean unit duration), which the HTTP layer maps to 429; Shutdown
// drains gracefully (admissions stop, in-flight units finish, queued units
// stay journaled for the next daemon).
//
// Byte-identity to the CLI is the correctness contract: per-set experiments
// merge shard partials bit-for-bit (sample replay), so their served artifacts
// equal the local unsharded `run -o` artifact byte-for-byte at any shard
// count; the scenario grid's chunk-merged cells carry the documented Welford
// reassociation bound instead, so its sharded artifacts equal the equivalent
// local shard+merge pipeline.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"battsched/internal/experiments"
	"battsched/internal/obs"
	"battsched/internal/service/cache"
	"battsched/internal/service/journal"
)

// Sentinel errors the HTTP layer maps onto status codes.
var (
	// ErrQueueFull reports that admitting the job's shard units would exceed
	// the queue bound. The concrete error carries a Retry-After estimate;
	// the HTTP layer maps it to 429 with a Retry-After header.
	ErrQueueFull = errors.New("service: job queue is full")
	// ErrUnknownJob reports a job ID this daemon never issued.
	ErrUnknownJob = errors.New("service: unknown job")
	// ErrJobNotFinished reports a report request for a job still in flight.
	ErrJobNotFinished = errors.New("service: job not finished")
	// ErrDraining reports a submission to a daemon that is shutting down.
	ErrDraining = errors.New("service: daemon is draining")
)

// shutdownMsg is the terminal failure message of jobs abandoned by daemon
// shutdown. Their journal accept records are retained, so a restart over the
// same CacheDir resumes them instead of reporting zombies.
const shutdownMsg = "daemon shut down before the job finished"

// queueFullError is the concrete ErrQueueFull: it carries the backpressure
// hint the HTTP layer surfaces as a Retry-After header.
type queueFullError struct {
	units, capacity, queued int
	retryAfter              time.Duration
}

func (e *queueFullError) Error() string {
	return fmt.Sprintf("%v: %d unit(s) would exceed the %d-unit bound (%d queued); retry in ~%s",
		ErrQueueFull, e.units, e.capacity, e.queued, e.retryAfter.Round(time.Second))
}

func (e *queueFullError) Unwrap() error { return ErrQueueFull }

// Config tunes one daemon instance. The zero value is usable: two workers, a
// 64-unit queue, a memory-only 64-entry cache, full per-run parallelism.
type Config struct {
	// Workers is the worker-pool size: how many shard units execute
	// concurrently (<= 0 selects 2).
	Workers int
	// QueueCapacity bounds the FIFO queue in shard units (<= 0 selects 64).
	// Submissions whose units do not fit are rejected with ErrQueueFull.
	QueueCapacity int
	// Parallel is the RunOptions.Parallel passed to every unit's run: the
	// job-grid worker count inside one experiment run (0 selects all cores).
	// With several service workers, bound this to avoid oversubscription.
	Parallel int
	// CacheDir is the on-disk content-addressed report store; "" keeps the
	// cache memory-only. A non-empty CacheDir also enables the durable job
	// journal (journal.jsonl in the same directory): accepted jobs are
	// logged before they enqueue and replayed on daemon start, so a restart
	// resumes accepted-but-unfinished work under the original job IDs.
	CacheDir string
	// CacheEntries bounds the cache's in-memory LRU tier (<= 0 selects 64).
	CacheEntries int
	// JournalFsync syncs every journal record to stable storage before the
	// append returns, upgrading the journal from process-kill durability (the
	// default: records ride the OS page cache) to power-loss durability. See
	// the -journal-fsync flag for the measured per-record cost.
	JournalFsync bool
	// MaxJobs bounds the job map (<= 0 selects 1024): when a submission
	// would exceed it, the oldest *terminal* jobs (done or failed, in
	// completion order) are evicted so the long-running daemon's memory stays
	// bounded; their IDs then answer 404. Queued and running jobs are never
	// evicted. Finished artifacts stay retrievable by resubmitting the spec —
	// the report cache, not the job map, is the artifact store.
	MaxJobs int
	// FaultHook, when non-nil, runs before every shard unit's execution with
	// the daemon context; a non-nil return fails the unit with that error,
	// and blocking (on ctx or an external gate) injects delay. Fault
	// injection only — tests and load harnesses use it to drive retry,
	// coalescing and kill/restart paths deterministically; leave nil in
	// production.
	FaultHook func(ctx context.Context, experiment string, shard experiments.Shard) error
}

// Server is the experiment daemon. Construct with New, expose over HTTP with
// Handler, and stop with Close (immediate) or Shutdown (graceful drain).
// Submit and Job are also usable directly for in-process embedding.
type Server struct {
	cfg     Config
	cache   *cache.Cache
	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	queue   chan *unit
	metrics *obs.Registry
	met     serverMetrics
	events  *obs.EventLog // nil without CacheDir; Emit is nil-safe

	drainIdle    chan struct{} // closed when draining and no unit is in flight
	drainOnce    sync.Once
	shutdownOnce sync.Once
	shutdownDone chan struct{} // closed when shutdown has fully completed

	mu           sync.Mutex
	jobs         map[string]*job
	inflight     map[string]*job // spec hash -> queued/running leader job
	journal      *journal.Journal
	terminal     []string // terminal job IDs in completion order (eviction queue)
	queued       int      // units in the queue
	queuedPeak   int      // high-water mark of queued
	inFlight     int      // units executing
	seq          int
	draining     bool
	cacheErrSeen map[string]bool // distinct cache write errors already logged
	meanUnitNs   float64         // EWMA of unit execution duration
}

// job is one accepted submission.
type job struct {
	id         string
	experiment string
	trace      string // fleet-wide trace id (obs.TraceHeader)
	hash       string
	spec       experiments.Spec
	state      string
	cached     bool
	coalesced  bool
	errMsg     string
	created    time.Time
	started    time.Time
	finished   time.Time
	units      []*unit
	followers  []*job // coalesced submissions resolving with this leader
	remaining  int
	artifact   []byte
	done       chan struct{} // closed when the job turns terminal; wakes ?wait= holds
}

// unit is one queued/executing shard of a job.
type unit struct {
	job   *job
	shard experiments.Shard
	state string
	done  int
	total int
	rep   *experiments.Report
}

// New constructs a daemon, replays the job journal (when CacheDir is set)
// and starts its worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueCapacity <= 0 {
		cfg.QueueCapacity = 64
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 1024
	}
	c, err := cache.New(cfg.CacheDir, cfg.CacheEntries)
	if err != nil {
		return nil, err
	}
	var jr *journal.Journal
	var backlog []journal.Accept
	if cfg.CacheDir != "" {
		jr, backlog, err = journal.Open(filepath.Join(cfg.CacheDir, "journal.jsonl"), cfg.JournalFsync)
		if err != nil {
			return nil, err
		}
	}
	// The queue must admit the entire replayed backlog even when it exceeds
	// the configured bound (the previous daemon admitted it under its own
	// bound); new submissions still reject against cfg.QueueCapacity until
	// the backlog drains below it.
	queueCap := cfg.QueueCapacity
	if n := backlogUnits(backlog); n > queueCap {
		queueCap = n
	}
	ctx, cancel := context.WithCancel(context.Background())
	reg := obs.NewRegistry()
	s := &Server{
		cfg:          cfg,
		cache:        c,
		ctx:          ctx,
		cancel:       cancel,
		queue:        make(chan *unit, queueCap),
		metrics:      reg,
		met:          newServerMetrics(reg),
		drainIdle:    make(chan struct{}),
		shutdownDone: make(chan struct{}),
		jobs:         make(map[string]*job),
		inflight:     make(map[string]*job),
		journal:      jr,
		cacheErrSeen: make(map[string]bool),
	}
	s.registerGauges()
	if cfg.CacheDir != "" {
		// The event log is telemetry, never availability: a failed open is
		// logged and the daemon runs without it (Emit is nil-safe).
		ev, err := obs.OpenEventLog(filepath.Join(cfg.CacheDir, "events.jsonl"))
		if err != nil {
			log.Printf("service: opening event log: %v", err)
		} else {
			s.events = ev
		}
	}
	s.mu.Lock()
	for _, rec := range backlog {
		s.replayLocked(rec)
	}
	s.mu.Unlock()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// backlogUnits counts the shard units a journal backlog expands to.
func backlogUnits(backlog []journal.Accept) int {
	n := 0
	for _, rec := range backlog {
		if rec.Shards > 1 {
			n += rec.Shards
		} else {
			n++
		}
	}
	return n
}

// jobSeq extracts the numeric sequence of a daemon-issued job ID.
func jobSeq(id string) (int, bool) {
	rest, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n <= 0 {
		return 0, false
	}
	return n, true
}

// Close stops the daemon immediately: admissions stop, in-flight runs are
// cancelled through their context, and every job still queued or running is
// terminal-marked failed ("daemon shut down ...") so no job ID ever reports
// a zombie queued state. Journaled accept records of abandoned jobs are
// retained for the next daemon to resume. Safe to call more than once.
func (s *Server) Close() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // an already-expired deadline: drain nothing, abandon in flight
	_ = s.Shutdown(ctx)
}

// Shutdown drains the daemon gracefully: new submissions are rejected with
// ErrDraining and Health reports "draining" (so /healthz answers 503 and
// load balancers stop routing here); in-flight units run to completion —
// their jobs finalise normally — until ctx expires, at which point they are
// cancelled; still-queued units never start (their journal records persist
// for the next daemon) and their jobs are terminal-marked failed with a
// shutdown message. Safe to call concurrently and more than once; every call
// returns once shutdown has fully completed.
func (s *Server) Shutdown(ctx context.Context) error {
	ran := false
	s.shutdownOnce.Do(func() {
		ran = true
		s.doShutdown(ctx)
	})
	if !ran {
		<-s.shutdownDone
	}
	return nil
}

func (s *Server) doShutdown(ctx context.Context) {
	s.mu.Lock()
	s.draining = true
	idle := s.inFlight == 0
	s.mu.Unlock()
	if !idle {
		select {
		case <-s.drainIdle:
		case <-ctx.Done():
		}
	}
	s.cancel()
	s.wg.Wait()
	s.mu.Lock()
	for _, j := range s.jobs {
		if j.state == StateQueued || j.state == StateRunning {
			s.completeLocked(j, StateFailed, shutdownMsg, false)
		}
	}
	if s.journal != nil {
		if err := s.journal.Close(); err != nil {
			s.met.journalError(err)
			log.Printf("service: closing job journal: %v", err)
		}
		s.journal = nil
	}
	s.mu.Unlock()
	if err := s.events.Close(); err != nil {
		log.Printf("service: closing event log: %v", err)
	}
	close(s.shutdownDone)
}

// Submit validates and admits one job. A spec whose canonical hash is
// already in the report cache completes immediately with Cached set; a spec
// matching a job still queued or running coalesces onto it as a follower
// (Coalesced set) and resolves when the leader does; anything else enqueues
// the job's shard units, failing with ErrQueueFull (Retry-After estimate
// attached) when they do not fit the queue bound, or ErrDraining during
// shutdown.
func (s *Server) Submit(req JobRequest) (JobStatus, error) {
	def, err := experiments.Lookup(req.Experiment)
	if err != nil {
		return JobStatus{}, err
	}
	if req.Shards < 0 {
		return JobStatus{}, fmt.Errorf("%w: negative shard count %d", experiments.ErrBadConfig, req.Shards)
	}
	if req.Shards > 1 && !def.Shardable {
		return JobStatus{}, fmt.Errorf("%w: experiment %q is deterministic and does not shard",
			experiments.ErrBadConfig, req.Experiment)
	}
	unitShard, err := experiments.ParseShard(req.Shard)
	if err != nil {
		return JobStatus{}, err
	}
	if unitShard.Enabled() {
		if req.Shards > 1 {
			return JobStatus{}, fmt.Errorf("%w: shard %q and shards=%d are mutually exclusive",
				experiments.ErrBadConfig, req.Shard, req.Shards)
		}
		if !def.Shardable {
			return JobStatus{}, fmt.Errorf("%w: experiment %q is deterministic and does not shard",
				experiments.ErrBadConfig, req.Experiment)
		}
	}
	spec := req.Spec.Spec()
	if spec.Battery != "" {
		// Fail a bad battery name at submission instead of asynchronously.
		if _, err := experiments.NamedBatteryFactory(spec.Battery); err != nil {
			return JobStatus{}, err
		}
	}
	spec.Parallel = s.cfg.Parallel
	// A shard-unit job is content-addressed by its partial's hash (the
	// complete run's hash when unsharded), so duplicate dispatches of one
	// unit dedupe exactly like duplicate complete submissions.
	hash := experiments.ShardSpecHash(req.Experiment, spec, unitShard)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.met.rejectedDrain.Inc()
		return JobStatus{}, ErrDraining
	}
	s.seq++
	j := &job{
		id:         fmt.Sprintf("job-%06d", s.seq),
		experiment: req.Experiment,
		trace:      req.TraceID,
		hash:       hash,
		spec:       spec,
		created:    time.Now(),
		done:       make(chan struct{}),
	}
	if j.trace == "" {
		// Untraced submission (raw curl): issue a server-side id so the
		// event log still threads this job's records together.
		j.trace = obs.NewTraceID()
	}
	if artifact, ok := s.cacheGetLocked(j, hash); ok {
		j.cached = true
		j.artifact = artifact
		s.jobs[j.id] = j
		s.met.jobsCached.Inc()
		s.events.Emit(obs.Event{Event: obs.EventJobAccepted, Trace: j.trace, Job: j.id,
			Experiment: j.experiment, Detail: "cached"})
		s.finishLocked(j, StateDone, "")
		s.evictLocked()
		return s.statusLocked(j), nil
	}
	if leader := s.inflight[hash]; leader != nil {
		// Singleflight coalescing: attach to the in-flight computation of
		// the same spec instead of queueing a duplicate. Followers consume
		// no queue capacity and resolve when the leader finalises.
		j.coalesced = true
		j.state = leader.state
		j.started = leader.started
		leader.followers = append(leader.followers, j)
		s.met.jobsCoalesced.Inc()
		s.jobs[j.id] = j
		s.events.Emit(obs.Event{Event: obs.EventJobAccepted, Trace: j.trace, Job: j.id,
			Experiment: j.experiment, Detail: "coalesced"})
		s.journalAcceptLocked(j, req.Spec, req.Shards, req.Shard)
		s.evictLocked()
		return s.statusLocked(j), nil
	}
	units := makeUnits(j, req.Shards, unitShard)
	if s.queued+len(units) > s.cfg.QueueCapacity {
		s.met.rejectedFull.Inc()
		return JobStatus{}, &queueFullError{
			units: len(units), capacity: s.cfg.QueueCapacity, queued: s.queued,
			retryAfter: s.retryAfterLocked(),
		}
	}
	j.units = units
	j.state = StateQueued
	j.remaining = len(j.units)
	s.jobs[j.id] = j
	s.inflight[hash] = j
	s.met.jobsComputed.Inc()
	s.events.Emit(obs.Event{Event: obs.EventJobAccepted, Trace: j.trace, Job: j.id,
		Experiment: j.experiment, Detail: "computed"})
	s.journalAcceptLocked(j, req.Spec, req.Shards, req.Shard)
	s.evictLocked()
	s.enqueueLocked(j)
	return s.statusLocked(j), nil
}

// enqueueLocked queues every unit of a newly-admitted job, tracking the
// queue-depth high-water mark. Callers hold s.mu and have verified capacity
// (admission bound, or a backlog-sized queue on replay).
func (s *Server) enqueueLocked(j *job) {
	for _, u := range j.units {
		s.queued++
		s.events.Emit(obs.Event{Event: obs.EventUnitQueued, Trace: j.trace, Job: j.id,
			Experiment: j.experiment, Unit: u.shard.String()})
		s.queue <- u // never blocks: queued <= QueueCapacity <= cap(queue)
	}
	if s.queued > s.queuedPeak {
		s.queuedPeak = s.queued
	}
}

// cacheGetLocked wraps the report cache lookup, mirroring hit/miss onto the
// registry and the event log. Callers hold s.mu.
func (s *Server) cacheGetLocked(j *job, hash string) ([]byte, bool) {
	artifact, ok := s.cache.Get(hash)
	if ok {
		s.met.cacheHits.Inc()
		s.events.Emit(obs.Event{Event: obs.EventCacheHit, Trace: j.trace, Job: j.id,
			Experiment: j.experiment, Detail: hash})
	} else {
		s.met.cacheMisses.Inc()
		s.events.Emit(obs.Event{Event: obs.EventCacheMiss, Trace: j.trace, Job: j.id,
			Experiment: j.experiment, Detail: hash})
	}
	return artifact, ok
}

// makeUnits builds a job's shard units: one unit carrying unitShard for a
// shard-unit job, one unsharded unit for shards <= 1, one unit per shard
// otherwise.
func makeUnits(j *job, shards int, unitShard experiments.Shard) []*unit {
	if unitShard.Enabled() {
		return []*unit{{job: j, shard: unitShard, state: StateQueued}}
	}
	if shards <= 1 {
		return []*unit{{job: j, state: StateQueued}}
	}
	units := make([]*unit, 0, shards)
	for i := 0; i < shards; i++ {
		units = append(units, &unit{
			job:   j,
			shard: experiments.Shard{Index: i, Count: shards},
			state: StateQueued,
		})
	}
	return units
}

// replayLocked re-admits one journaled job under its original ID on daemon
// start. A spec that became cache-resolvable (the previous daemon finished a
// sibling of the same hash) completes immediately; duplicates of a job
// replayed earlier in the backlog coalesce onto it; anything else enqueues.
// Records that no longer decode or validate are terminal-marked failed and
// compacted away rather than wedging the restart. Callers hold s.mu.
func (s *Server) replayLocked(rec journal.Accept) {
	if n, ok := jobSeq(rec.ID); ok {
		if n > s.seq {
			s.seq = n
		}
	} else {
		s.seq++
		rec.ID = fmt.Sprintf("job-%06d", s.seq)
	}
	created := rec.Created
	if created.IsZero() {
		created = time.Now()
	}
	j := &job{
		id: rec.ID, experiment: rec.Experiment, trace: rec.Trace, created: created,
		done: make(chan struct{}),
	}
	if j.trace == "" {
		j.trace = obs.NewTraceID()
	}
	s.jobs[j.id] = j
	fail := func(msg string) {
		j.state = StateRunning // completeLocked requires a non-terminal state
		s.completeLocked(j, StateFailed, "journal replay: "+msg, true)
	}
	def, err := experiments.Lookup(rec.Experiment)
	if err != nil {
		fail(err.Error())
		return
	}
	var sreq SpecRequest
	if err := json.Unmarshal(rec.Spec, &sreq); err != nil {
		fail("decoding spec: " + err.Error())
		return
	}
	if rec.Shards > 1 && !def.Shardable {
		fail(fmt.Sprintf("experiment %q does not shard", rec.Experiment))
		return
	}
	unitShard, err := experiments.ParseShard(rec.Shard)
	if err != nil {
		fail(err.Error())
		return
	}
	if unitShard.Enabled() && !def.Shardable {
		fail(fmt.Sprintf("experiment %q does not shard", rec.Experiment))
		return
	}
	spec := sreq.Spec()
	spec.Parallel = s.cfg.Parallel
	j.spec = spec
	// Recompute the content address instead of trusting the journaled one:
	// a ReportVersion/ResultsVersion bump between restarts must re-run.
	j.hash = experiments.ShardSpecHash(rec.Experiment, spec, unitShard)
	if artifact, ok := s.cacheGetLocked(j, j.hash); ok {
		j.cached = true
		j.artifact = artifact
		j.state = StateRunning
		s.met.jobsCached.Inc()
		s.completeLocked(j, StateDone, "", true)
		return
	}
	if leader := s.inflight[j.hash]; leader != nil {
		j.coalesced = true
		j.state = leader.state
		leader.followers = append(leader.followers, j)
		s.met.jobsCoalesced.Inc()
		return
	}
	j.units = makeUnits(j, rec.Shards, unitShard)
	j.state = StateQueued
	j.remaining = len(j.units)
	s.inflight[j.hash] = j
	s.met.jobsComputed.Inc()
	s.events.Emit(obs.Event{Event: obs.EventJobAccepted, Trace: j.trace, Job: j.id,
		Experiment: j.experiment, Detail: "replayed"})
	s.enqueueLocked(j) // the queue is sized to hold the whole backlog
}

// journalAcceptLocked appends one accepted job to the WAL. Journal failures
// degrade durability, not availability: they are logged and the job still
// runs. Callers hold s.mu.
func (s *Server) journalAcceptLocked(j *job, spec SpecRequest, shards int, shard string) {
	if s.journal == nil {
		return
	}
	raw, err := json.Marshal(spec)
	if err == nil {
		err = s.journal.Accept(journal.Accept{
			ID: j.id, Experiment: j.experiment, Spec: raw,
			Shards: shards, Shard: shard, Hash: j.hash, Created: j.created,
			Trace: j.trace,
		})
	}
	if err != nil {
		s.met.journalError(err)
		log.Printf("service: journaling job %s failed (job runs, restart will not resume it): %v", j.id, err)
	}
}

// journalDoneLocked marks one job finished in the WAL. Callers hold s.mu.
func (s *Server) journalDoneLocked(id string) {
	if s.journal == nil {
		return
	}
	if err := s.journal.Done(id); err != nil {
		s.met.journalError(err)
		log.Printf("service: journaling completion of %s: %v", id, err)
	}
}

// finishLocked marks j terminal, records it in the eviction queue and wakes
// its held status requests (a job reaches a terminal state exactly once).
// Callers hold s.mu.
func (s *Server) finishLocked(j *job, state, errMsg string) {
	j.state = state
	j.errMsg = errMsg
	j.finished = time.Now()
	close(j.done)
	s.terminal = append(s.terminal, j.id)
	if state == StateDone {
		s.met.jobsDone.Inc()
		s.events.Emit(obs.Event{Event: obs.EventJobDone, Trace: j.trace, Job: j.id,
			Experiment: j.experiment})
	} else {
		s.met.jobsFailed.Inc()
		s.events.Emit(obs.Event{Event: obs.EventJobFailed, Trace: j.trace, Job: j.id,
			Experiment: j.experiment, Detail: errMsg})
	}
}

// completeLocked finishes a non-terminal job and all its still-pending
// followers with the same terminal state (followers of a done leader share
// its artifact), deregisters the in-flight hash entry, and — unless the job
// is being abandoned by shutdown — marks the journal records done so they
// compact away instead of replaying. Callers hold s.mu.
func (s *Server) completeLocked(j *job, state, errMsg string, journalDone bool) {
	if j.state == StateDone || j.state == StateFailed {
		return
	}
	s.finishLocked(j, state, errMsg)
	if s.inflight[j.hash] == j {
		delete(s.inflight, j.hash)
	}
	if journalDone {
		s.journalDoneLocked(j.id)
	}
	for _, f := range j.followers {
		if f.state == StateDone || f.state == StateFailed {
			continue
		}
		if state == StateDone {
			f.artifact = j.artifact
		}
		s.finishLocked(f, state, errMsg)
		if journalDone {
			s.journalDoneLocked(f.id)
		}
	}
}

// evictLocked drops the oldest terminal jobs beyond the MaxJobs bound, so a
// long-running daemon's job map cannot grow without limit. Callers hold s.mu.
func (s *Server) evictLocked() {
	for len(s.jobs) > s.cfg.MaxJobs && len(s.terminal) > 0 {
		id := s.terminal[0]
		s.terminal = s.terminal[1:]
		delete(s.jobs, id)
	}
}

// retryAfterLocked estimates when a rejected submitter should retry: the
// current unit backlog divided across the worker pool at the recent mean
// unit duration (1 s floor before any unit has completed), clamped to
// [1 s, 5 min]. Callers hold s.mu.
func (s *Server) retryAfterLocked() time.Duration {
	mean := time.Duration(s.meanUnitNs)
	if mean <= 0 {
		mean = time.Second
	}
	backlog := s.queued + s.inFlight
	d := mean * time.Duration(backlog) / time.Duration(s.cfg.Workers)
	if d < time.Second {
		d = time.Second
	}
	if d > 5*time.Minute {
		d = 5 * time.Minute
	}
	return d
}

// Job returns the status of one job.
func (s *Server) Job(id string) (JobStatus, error) {
	return s.JobWait(context.Background(), id, 0)
}

// JobWait returns the status of one job, first holding up to wait while the
// job is queued or running: it answers as soon as the job turns terminal
// (done, failed, or failed by the shutdown sweep), the wait elapses or ctx
// ends. An unknown job fails at once with ErrUnknownJob.
func (s *Server) JobWait(ctx context.Context, id string, wait time.Duration) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, fmt.Errorf("%w %q", ErrUnknownJob, id)
	}
	if wait > 0 {
		AwaitTerminal(ctx, j.done, wait)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statusLocked(j), nil
}

// Artifact returns the finished job's report artifact: exactly the bytes the
// equivalent local `cmd/experiments run -o` writes. ErrJobNotFinished while
// the job is queued or running; the job's failure message once failed.
func (s *Server) Artifact(id string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownJob, id)
	}
	switch j.state {
	case StateDone:
		return j.artifact, nil
	case StateFailed:
		return nil, fmt.Errorf("service: job %s failed: %s", id, j.errMsg)
	default:
		return nil, fmt.Errorf("%w: job %s is %s", ErrJobNotFinished, id, j.state)
	}
}

// Health snapshots the daemon's load. Status is "draining" once Shutdown or
// Close has begun, "ok" otherwise.
func (s *Server) Health() Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	status := "ok"
	if s.draining {
		status = "draining"
	}
	// The lifetime counters read straight off the metrics registry — the
	// same series /metrics renders — so the two endpoints agree by
	// construction (pinned by TestHealthMatchesMetrics).
	return Health{
		Status:           status,
		QueueDepth:       s.queued,
		QueueCapacity:    s.cfg.QueueCapacity,
		InFlight:         s.inFlight,
		Workers:          s.cfg.Workers,
		Jobs:             len(s.jobs),
		CoalescedJobs:    int(s.met.jobsCoalesced.Value()),
		CacheEntries:     s.cache.Len(),
		CacheHits:        int(s.met.cacheHits.Value()),
		CacheMisses:      int(s.met.cacheMisses.Value()),
		CacheWriteErrors: int(s.met.cacheWriteErr.Value()),
		MeanUnitMs:       s.meanUnitNs / 1e6,
	}
}

// statusLocked builds a JobStatus snapshot. Callers hold s.mu.
func (s *Server) statusLocked(j *job) JobStatus {
	st := JobStatus{
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
		st.Shards = append(st.Shards, ShardStatus{
			Shard: u.shard.String(),
			State: u.state,
			Done:  u.done,
			Total: u.total,
		})
	}
	return st
}

// worker drains the unit queue until the daemon closes.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		case u := <-s.queue:
			s.runUnit(u)
		}
	}
}

// runUnit executes one shard unit and finalises its job when it is the last.
func (s *Server) runUnit(u *unit) {
	j := u.job
	s.mu.Lock()
	s.queued--
	if s.draining || s.ctx.Err() != nil {
		// The daemon is draining: leave the unit unstarted. Its job is
		// terminal-marked by the shutdown sweep, and its journal record
		// survives for the next daemon to resume.
		s.mu.Unlock()
		return
	}
	if j.state == StateFailed {
		// A sibling shard already failed the job: don't burn a worker on a
		// result nobody will merge.
		u.state = StateFailed
		s.mu.Unlock()
		return
	}
	s.inFlight++
	u.state = StateRunning
	s.events.Emit(obs.Event{Event: obs.EventUnitStarted, Trace: j.trace, Job: j.id,
		Experiment: j.experiment, Unit: u.shard.String()})
	if j.state == StateQueued {
		j.state = StateRunning
		j.started = time.Now()
		for _, f := range j.followers {
			if f.state == StateQueued {
				f.state = StateRunning
				f.started = j.started
			}
		}
	}
	s.mu.Unlock()

	start := time.Now()
	var rep *experiments.Report
	var err error
	if hook := s.cfg.FaultHook; hook != nil {
		err = hook(s.ctx, j.experiment, u.shard)
	}
	if err == nil {
		spec := j.spec
		spec.Shard = u.shard
		spec.Progress = func(done, total int) {
			s.mu.Lock()
			u.done, u.total = done, total
			s.mu.Unlock()
		}
		rep, err = experiments.Run(s.ctx, j.experiment, spec)
	}
	dur := time.Since(start)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.inFlight--
	s.met.unitDur.Observe(dur.Seconds())
	// EWMA of unit duration feeds the Retry-After backpressure estimate.
	if s.meanUnitNs == 0 {
		s.meanUnitNs = float64(dur)
	} else {
		s.meanUnitNs = 0.8*s.meanUnitNs + 0.2*float64(dur)
	}
	if err != nil {
		u.state = StateFailed
		s.events.Emit(obs.Event{Event: obs.EventUnitFailed, Trace: j.trace, Job: j.id,
			Experiment: j.experiment, Unit: u.shard.String(), Detail: err.Error()})
		if s.ctx.Err() != nil {
			// Cancelled by Close/expired drain: abandon without journaling
			// completion, so a restart resumes the job.
			s.completeLocked(j, StateFailed, shutdownMsg, false)
		} else {
			s.completeLocked(j, StateFailed, err.Error(), true)
		}
	} else {
		u.state = StateDone
		u.rep = rep
		s.events.Emit(obs.Event{Event: obs.EventUnitFinished, Trace: j.trace, Job: j.id,
			Experiment: j.experiment, Unit: u.shard.String(), Detail: dur.Round(time.Millisecond).String()})
		j.remaining--
		if j.remaining == 0 {
			s.finalizeLocked(j)
		}
	}
	if s.draining && s.inFlight == 0 {
		s.drainOnce.Do(func() { close(s.drainIdle) })
	}
}

// finalizeLocked merges a job's shard partials, renders the artifact, stores
// it in the report cache and resolves the job with all its coalesced
// followers. Callers hold s.mu.
func (s *Server) finalizeLocked(j *job) {
	rep := j.units[0].rep
	if len(j.units) > 1 {
		parts := make([]*experiments.Report, len(j.units))
		for i, u := range j.units {
			parts[i] = u.rep
		}
		merged, err := experiments.MergeReports(parts)
		if err != nil {
			s.completeLocked(j, StateFailed, err.Error(), true)
			return
		}
		rep = merged
		s.events.Emit(obs.Event{Event: obs.EventMerge, Trace: j.trace, Job: j.id,
			Experiment: j.experiment, Detail: fmt.Sprintf("%d shard partials", len(j.units))})
	}
	var buf bytes.Buffer
	if err := experiments.WriteArtifact(&buf, []*experiments.Report{rep}); err != nil {
		s.completeLocked(j, StateFailed, err.Error(), true)
		return
	}
	j.artifact = buf.Bytes()
	// A cache write failure (disk full, permissions) must not fail the job:
	// the artifact is already in memory; only future resubmissions lose the
	// shortcut. It is counted in Health and logged once per distinct error.
	if err := s.cache.Put(j.hash, j.artifact); err != nil {
		s.met.cacheWriteErr.Inc()
		if !s.cacheErrSeen[err.Error()] {
			s.cacheErrSeen[err.Error()] = true
			log.Printf("service: report cache write failed (artifact kept in memory): %v", err)
		}
	}
	s.completeLocked(j, StateDone, "", true)
}
