// Package service implements the job front end of cmd/battschedd: a
// long-running HTTP server over the experiment registry with an asynchronous
// bounded FIFO unit queue, server-side shard fan-out, and a content-addressed
// report cache. Both battschedd modes are one Server: the worker daemon runs
// its units on a local worker pool (New), the federation coordinator leases
// them to remote workers through an Executor of its own (NewWithExecutor,
// internal/federation).
//
// A submitted job names a registered experiment and a SpecRequest. Jobs enter
// the queue as shard units — one unit for an unsharded run, or Shards
// independent units each executing its RunOptions.Shard slice — and the
// executor takes them in FIFO order as it has room. The job keeps each
// delivered shard partial by shard index; when the last unit lands,
// experiments.MergeReports folds them in shard order, and the complete run's
// artifact (exactly the bytes `cmd/experiments run -o` writes) is stored in
// the cache under the canonical spec hash (experiments.SpecHash). A later
// submission of an equal spec — sharded or not — is answered from the cache
// without recomputation and marked Cached.
//
// The report cache is the only artifact store: a finished job keeps its
// content address, not its artifact's bytes, and Artifact (GET
// /v1/jobs/{id}/report) reads them from the cache — its memory tier, or one
// positioned read of the pack — without counting a cache hit or miss. A
// report the cache no longer holds answers ErrArtifactEvicted (HTTP 410):
// on a memory-only daemon once CacheEntries later artifacts pushed it out,
// or after a failed pack write. Resubmitting the spec recomputes the
// identical bytes.
//
// Under heavy identical traffic the server additionally coalesces in-flight
// work: a submission whose spec hash matches a job that is still queued or
// running attaches to it as a follower (JobStatus.Coalesced) instead of
// recomputing — it resolves, with the identical artifact, the moment the
// leader finalises, and inherits the leader's failure otherwise. With a
// CacheDir configured, accepted jobs are journaled to a JSONL write-ahead log
// (internal/service/journal) and replayed on start, so a restart resumes
// accepted-but-unfinished work instead of dropping it. A full queue rejects
// with ErrQueueFull carrying a Retry-After estimate (queue backlog × recent
// mean unit duration), which the HTTP layer maps to 429; Shutdown drains
// gracefully (admissions stop, in-flight units finish, queued units stay
// journaled for the next start).
//
// Byte-identity to the CLI is the correctness contract: every shardable
// experiment merges shard partials bit-for-bit (sample replay), so a served
// artifact equals the local unsharded `run -o` artifact byte-for-byte at any
// shard count. Adaptive set counts do not shard
// (experiments.Definition.Check), so a spec names one artifact.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"path/filepath"
	"slices"
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
	// ErrArtifactEvicted reports a report request for a done job whose
	// artifact the report cache no longer holds; the HTTP layer maps it to
	// 410. Resubmitting the job's spec recomputes the identical artifact.
	ErrArtifactEvicted = errors.New("service: report artifact evicted from the cache; resubmit the spec")
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
	// CacheEntries bounds the cache's in-memory LRU tier (<= 0 selects 64;
	// never fewer than Workers, so units that finish together cannot push
	// each other's reports out before a coordinator's long-poll reads them).
	// Without CacheDir it also bounds how long a done job's report stays
	// readable: once CacheEntries later artifacts have pushed it out, the
	// report answers ErrArtifactEvicted until the spec is resubmitted.
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
	// evicted. A terminal job holds its status and content address, not its
	// artifact: the report cache is the only artifact store, so MaxJobs
	// bounds no artifact bytes, and an evicted job's artifact stays
	// retrievable by resubmitting the spec.
	MaxJobs int
	// FaultHook, when non-nil, runs before every shard unit's execution with
	// the daemon context; a non-nil return fails the unit with that error,
	// and blocking (on ctx or an external gate) injects delay. Fault
	// injection only — tests and load harnesses use it to drive retry,
	// coalescing and kill/restart paths deterministically; leave nil in
	// production.
	FaultHook func(ctx context.Context, experiment string, shard experiments.Shard) error
}

// Server is the job front end. Construct with New (local worker pool) or
// NewWithExecutor, expose over HTTP with Handler, and stop with Close
// (immediate) or Shutdown (graceful drain). Submit and Job are also usable
// directly for in-process embedding.
type Server struct {
	cfg     Config
	ex      Executor
	cache   *cache.Cache
	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	metrics *obs.Registry
	met     serverMetrics
	events  *obs.EventLog // nil without CacheDir; Emit is nil-safe

	drainIdle    chan struct{} // closed when draining and no unit is in flight
	drainOnce    sync.Once
	shutdownOnce sync.Once
	shutdownDone chan struct{} // closed when shutdown has fully completed

	mu           sync.Mutex
	wake         *sync.Cond // signalled when the queue or the executor's capacity changes
	jobs         map[string]*job
	inflight     map[string]*job // spec hash -> queued/running leader job
	journal      *journal.Journal
	terminal     []string // terminal job IDs in completion order (eviction queue)
	queue        []*Unit  // units waiting for the executor, FIFO
	queuedPeak   int      // high-water mark of len(queue)
	inFlight     int      // unit runs the executor holds
	seq          int
	draining     bool
	cacheErrSeen map[string]bool // distinct cache write errors already logged
	meanUnitNs   float64         // EWMA of unit run duration
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
	units      []*Unit
	followers  []*job // coalesced submissions resolving with this leader
	remaining  int
	parts      []*experiments.Report // multi-unit jobs only: delivered partials by shard index
	done       chan struct{}         // closed when the job turns terminal; wakes ?wait= holds
}

func (j *job) terminal() bool { return j.state == StateDone || j.state == StateFailed }

// Unit is one shard unit of a job: the work item an Executor runs.
type Unit struct {
	job    *job
	shard  experiments.Shard
	state  string // StateDone or StateFailed once settled, else ""
	queued bool   // waiting in the queue
	runs   int    // runs the executor holds
	done   int    // progress callbacks of a local run
	total  int
}

// Job returns the ID of the unit's job.
func (u *Unit) Job() string { return u.job.id }

// Shard returns the unit's slice of the run (disabled for the single unit of
// an unsharded job).
func (u *Unit) Shard() experiments.Shard { return u.shard }

// Request returns the single-unit job that runs u on another daemon: the
// job's experiment, wire spec and trace id, with Shard set for a shard unit.
func (u *Unit) Request() JobRequest {
	r := JobRequest{Experiment: u.job.experiment, Spec: SpecRequest(u.job.spec), TraceID: u.job.trace}
	if u.shard.Enabled() {
		r.Shard = u.shard.String()
	}
	return r
}

// New constructs a daemon that runs its units on a local worker pool of
// cfg.Workers, replays the job journal (when CacheDir is set) and starts it.
func New(cfg Config) (*Server, error) {
	return NewWithExecutor(cfg, &pool{})
}

// NewWithExecutor constructs a front end whose units ex runs, replays the job
// journal (when CacheDir is set) and starts it.
func NewWithExecutor(cfg Config, ex Executor) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueCapacity <= 0 {
		cfg.QueueCapacity = 64
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 1024
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 64
	}
	cfg.CacheEntries = max(cfg.CacheEntries, cfg.Workers)
	c, err := cache.New(cfg.CacheDir, cfg.CacheEntries)
	if err != nil {
		return nil, err
	}
	var jr *journal.Journal
	var backlog []journal.Accept
	if cfg.CacheDir != "" {
		jr, backlog, err = journal.Open(filepath.Join(cfg.CacheDir, "journal.jsonl"), cfg.JournalFsync)
		if err != nil {
			c.Close()
			return nil, err
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	reg := obs.NewRegistry()
	s := &Server{
		cfg:          cfg,
		ex:           ex,
		cache:        c,
		ctx:          ctx,
		cancel:       cancel,
		metrics:      reg,
		met:          newServerMetrics(reg),
		drainIdle:    make(chan struct{}),
		shutdownDone: make(chan struct{}),
		jobs:         make(map[string]*job),
		inflight:     make(map[string]*job),
		journal:      jr,
		cacheErrSeen: make(map[string]bool),
	}
	s.wake = sync.NewCond(&s.mu)
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
	ex.Start(ctx, &s.wg, s)
	s.mu.Lock()
	for _, rec := range backlog {
		s.replayLocked(rec)
	}
	s.mu.Unlock()
	s.wg.Add(1)
	go s.dispatch()
	return s, nil
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
	s.mu.Lock()
	s.wake.Broadcast() // the dispatcher observes the cancelled context
	s.mu.Unlock()
	s.wg.Wait()
	s.mu.Lock()
	for _, j := range s.jobs {
		if !j.terminal() {
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
	if err := s.cache.Close(); err != nil {
		log.Printf("service: closing report cache: %v", err)
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
// shutdown. A trace id over 128 bytes or outside [A-Za-z0-9._-], or more
// shards than the queue bound holds, fails with experiments.ErrBadConfig.
func (s *Server) Submit(req JobRequest) (JobStatus, error) {
	if err := checkTraceID(req.TraceID); err != nil {
		return JobStatus{}, err
	}
	spec, unitShard, hash, err := s.check(req)
	if err != nil {
		return JobStatus{}, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.met.rejectedDrain.Inc()
		return JobStatus{}, ErrDraining
	}
	s.seq++
	j := newJob(fmt.Sprintf("job-%06d", s.seq), req, spec, hash, time.Now())
	if _, ok := s.cacheGetLocked(j, hash); ok {
		j.cached = true
		s.jobs[j.id] = j
		s.met.jobsCached.Inc()
		s.emitAcceptLocked(j, "cached")
		s.finishLocked(j, StateDone, "")
		s.evictLocked()
		return s.statusLocked(j), nil
	}
	if leader := s.inflight[hash]; leader != nil {
		// Singleflight coalescing: attach to the in-flight computation of
		// the same spec instead of queueing a duplicate. Followers consume
		// no queue capacity and resolve when the leader finalises.
		s.coalesceLocked(j, leader)
		s.jobs[j.id] = j
		s.emitAcceptLocked(j, "coalesced")
		s.journalAcceptLocked(j, req.Shards, req.Shard)
		s.evictLocked()
		return s.statusLocked(j), nil
	}
	makeUnits(j, req.Shards, unitShard)
	if len(s.queue)+len(j.units) > s.cfg.QueueCapacity {
		s.met.rejectedFull.Inc()
		return JobStatus{}, &queueFullError{
			units: len(j.units), capacity: s.cfg.QueueCapacity, queued: len(s.queue),
			retryAfter: s.retryAfterLocked(),
		}
	}
	s.jobs[j.id] = j
	s.inflight[hash] = j
	s.met.jobsComputed.Inc()
	s.emitAcceptLocked(j, "computed")
	s.journalAcceptLocked(j, req.Shards, req.Shard)
	s.evictLocked()
	for _, u := range j.units {
		s.QueueLocked(u)
	}
	return s.statusLocked(j), nil
}

// check validates a job request, submitted or replayed from the journal,
// and returns the spec it runs, its unit shard (enabled for a shard-unit
// job) and its content address.
func (s *Server) check(req JobRequest) (experiments.Spec, experiments.Shard, string, error) {
	var spec experiments.Spec
	def, err := experiments.Lookup(req.Experiment)
	if err != nil {
		return spec, experiments.Shard{}, "", err
	}
	if err := s.ex.Validate(req); err != nil {
		return spec, experiments.Shard{}, "", err
	}
	if req.Shards < 0 {
		return spec, experiments.Shard{}, "", fmt.Errorf("%w: negative shard count %d", experiments.ErrBadConfig, req.Shards)
	}
	if req.Shards > s.cfg.QueueCapacity {
		// Such a job never fits the queue, and makeUnits allocates per shard.
		return spec, experiments.Shard{}, "", fmt.Errorf("%w: %d shards exceed the queue bound of %d units",
			experiments.ErrBadConfig, req.Shards, s.cfg.QueueCapacity)
	}
	unitShard, err := experiments.ParseShard(req.Shard)
	if err != nil {
		return spec, unitShard, "", err
	}
	if unitShard.Enabled() && req.Shards > 1 {
		return spec, unitShard, "", fmt.Errorf("%w: shard %q and shards=%d are mutually exclusive",
			experiments.ErrBadConfig, req.Shard, req.Shards)
	}
	// The execution-only knobs have no wire name; clearing them makes an
	// in-process Submit run what the same request over HTTP runs.
	spec = req.Spec.Spec()
	spec.Parallel, spec.Progress, spec.Shard = s.cfg.Parallel, nil, experiments.Shard{}
	if err := def.Check(spec, req.Shards > 1 || unitShard.Enabled()); err != nil {
		return spec, unitShard, "", err
	}
	// A shard-unit job is content-addressed by its partial's hash (the
	// complete run's hash when unsharded), so duplicate dispatches of one
	// unit dedupe exactly like duplicate complete submissions.
	return spec, unitShard, experiments.ShardSpecHash(req.Experiment, spec, unitShard), nil
}

// maxTraceID bounds a submitted trace id; obs.NewTraceID issues 32 hex
// digits.
const maxTraceID = 128

// checkTraceID rejects a submitted trace id longer than maxTraceID bytes or
// holding a byte outside [A-Za-z0-9._-]. The id is journaled with the job and
// written into every event of it, so it must stay short and need no escaping.
func checkTraceID(id string) error {
	if len(id) > maxTraceID {
		return fmt.Errorf("%w: %s of %d bytes, want at most %d", experiments.ErrBadConfig, obs.TraceHeader, len(id), maxTraceID)
	}
	for i := 0; i < len(id); i++ {
		switch c := id[i]; {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9', c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("%w: %s byte %d is %q, want one of [A-Za-z0-9._-]", experiments.ErrBadConfig, obs.TraceHeader, i, c)
		}
	}
	return nil
}

// newJob builds one accepted job. An untraced submission (raw curl) gets a
// server-issued trace id, so the event log still threads its records
// together.
func newJob(id string, req JobRequest, spec experiments.Spec, hash string, created time.Time) *job {
	j := &job{
		id: id, experiment: req.Experiment, trace: req.TraceID, hash: hash,
		spec: spec, created: created, done: make(chan struct{}),
	}
	if j.trace == "" {
		j.trace = obs.NewTraceID()
	}
	return j
}

// coalesceLocked attaches follower j to the in-flight leader of its spec.
// Callers hold s.mu.
func (s *Server) coalesceLocked(j, leader *job) {
	j.coalesced = true
	j.state = leader.state
	j.started = leader.started
	leader.followers = append(leader.followers, j)
	s.met.jobsCoalesced.Inc()
}

// emitAcceptLocked records one job admission in the event log; detail is the
// admission path (computed, coalesced, cached, replayed). Callers hold s.mu.
func (s *Server) emitAcceptLocked(j *job, detail string) {
	s.events.Emit(obs.Event{Event: obs.EventJobAccepted, Trace: j.trace, Job: j.id,
		Experiment: j.experiment, Detail: detail})
}

// QueueLocked puts an unfinished unit of a live job at the tail of the queue
// and wakes the dispatcher: a new job's units, and an executor's re-dispatch
// of a unit whose run failed. A unit already waiting there stays where it
// is. Callers hold the lock (see Lock).
func (s *Server) QueueLocked(u *Unit) {
	if u.queued || u.state != "" || u.job.terminal() {
		return
	}
	u.queued = true
	s.queue = append(s.queue, u)
	s.queuedPeak = max(s.queuedPeak, len(s.queue))
	s.events.Emit(obs.Event{Event: obs.EventUnitQueued, Trace: u.job.trace, Job: u.job.id,
		Experiment: u.job.experiment, Unit: u.shard.String()})
	s.wake.Broadcast()
}

// dequeueLocked removes the queued units drop selects. Callers hold s.mu.
func (s *Server) dequeueLocked(drop func(u *Unit) bool) {
	s.queue = slices.DeleteFunc(s.queue, func(u *Unit) bool {
		if drop(u) {
			u.queued = false
			return true
		}
		return false
	})
}

// cacheGetLocked wraps the report cache lookup, mirroring hit/miss onto the
// registry and the event log. A disk hit re-admits the artifact to the memory
// tier, where the job's report read finds it. Callers hold s.mu.
func (s *Server) cacheGetLocked(j *job, hash string) ([]byte, bool) {
	artifact, ok := s.cache.Get(hash)
	e := obs.Event{Event: obs.EventCacheMiss, Trace: j.trace, Job: j.id, Experiment: j.experiment, Detail: hash}
	if ok {
		s.met.cacheHits.Inc()
		e.Event = obs.EventCacheHit
	} else {
		s.met.cacheMisses.Inc()
	}
	s.events.Emit(e)
	return artifact, ok
}

// cachePutLocked stores one artifact. A cache write failure (disk full,
// permissions) must not fail the job: the cache keeps the artifact in its
// memory tier, so resubmissions are still answered from it while it stays
// resident; only a restart or an eviction loses it. The failure is counted
// in Health and logged once per distinct error. Callers hold s.mu.
func (s *Server) cachePutLocked(hash string, artifact []byte) {
	if err := s.cache.Put(hash, artifact); err != nil {
		s.met.cacheWriteErr.Inc()
		if !s.cacheErrSeen[err.Error()] {
			s.cacheErrSeen[err.Error()] = true
			log.Printf("service: report cache write failed (artifact kept in memory): %v", err)
		}
	}
}

// makeUnits builds a job's shard units: one unit carrying unitShard for a
// shard-unit job, one unsharded unit for shards <= 1, one unit per shard
// otherwise, whose partials merge once the last one is delivered.
func makeUnits(j *job, shards int, unitShard experiments.Shard) {
	switch {
	case unitShard.Enabled():
		j.units = []*Unit{{job: j, shard: unitShard}}
	case shards <= 1:
		j.units = []*Unit{{job: j}}
	default:
		for i := range shards {
			j.units = append(j.units, &Unit{job: j, shard: experiments.Shard{Index: i, Count: shards}})
		}
		j.parts = make([]*experiments.Report, shards)
	}
	j.state = StateQueued
	j.remaining = len(j.units)
}

// replayLocked re-admits one journaled job under its original ID on start. A
// spec that became cache-resolvable (the previous daemon finished a sibling
// of the same hash) completes immediately; duplicates of a job replayed
// earlier in the backlog coalesce onto it; anything else offers each unit to
// the executor's Resume and queues the rest. Records that no longer decode
// or validate are terminal-marked failed and compacted away rather than
// wedging the restart. Callers hold s.mu.
func (s *Server) replayLocked(rec journal.Accept) {
	if n, ok := jobSeq(rec.ID); ok {
		s.seq = max(s.seq, n)
	} else {
		s.seq++
		rec.ID = fmt.Sprintf("job-%06d", s.seq)
	}
	created := rec.Created
	if created.IsZero() {
		created = time.Now()
	}
	var spec experiments.Spec
	var unitShard experiments.Shard
	var hash string
	req, err := replayRequest(rec)
	if err == nil {
		// Recompute the content address instead of trusting the journaled
		// one: a ReportVersion/ResultsVersion bump between restarts must
		// re-run.
		spec, unitShard, hash, err = s.check(req)
	}
	j := newJob(rec.ID, req, spec, hash, created)
	s.jobs[j.id] = j
	if err != nil {
		j.state = StateRunning // completeLocked requires a non-terminal state
		s.completeLocked(j, StateFailed, "journal replay: "+err.Error(), true)
		return
	}
	if _, ok := s.cacheGetLocked(j, j.hash); ok {
		j.cached = true
		j.state = StateRunning
		s.met.jobsCached.Inc()
		s.completeLocked(j, StateDone, "", true)
		return
	}
	if leader := s.inflight[j.hash]; leader != nil {
		s.coalesceLocked(j, leader)
		return
	}
	makeUnits(j, rec.Shards, unitShard)
	s.inflight[j.hash] = j
	s.met.jobsComputed.Inc()
	s.emitAcceptLocked(j, "replayed")
	for _, u := range j.units {
		if !s.ex.Resume(u, rec.Leases) {
			s.QueueLocked(u)
		}
	}
}

// replayRequest rebuilds the request a journal record was accepted from
// (the inverse of acceptRecord). On a spec that no longer decodes it returns
// the request as far as it got, with the error.
func replayRequest(rec journal.Accept) (JobRequest, error) {
	req := JobRequest{Experiment: rec.Experiment, Shards: rec.Shards, Shard: rec.Shard, TraceID: rec.Trace}
	if checkTraceID(req.TraceID) != nil {
		// An older daemon journaled any trace id; a fresh one keeps the
		// job's units dispatchable to workers that check it.
		req.TraceID = ""
	}
	if err := json.Unmarshal(rec.Spec, &req.Spec); err != nil {
		return req, fmt.Errorf("decoding spec: %w", err)
	}
	return req, nil
}

// acceptRecord is the journal record of one accepted job: its wire spec, as
// the job's units forward it to workers, and the shard fan-out it was
// submitted with.
func acceptRecord(j *job, shards int, shard string) (journal.Accept, error) {
	raw, err := json.Marshal(SpecRequest(j.spec))
	if err != nil {
		return journal.Accept{}, err
	}
	return journal.Accept{
		ID: j.id, Experiment: j.experiment, Spec: raw,
		Shards: shards, Shard: shard, Hash: j.hash, Created: j.created,
		Trace: j.trace,
	}, nil
}

// journalAcceptLocked appends one accepted job to the WAL. Journal failures
// degrade durability, not availability: they are logged and the job still
// runs. Callers hold s.mu.
func (s *Server) journalAcceptLocked(j *job, shards int, shard string) {
	if s.journal == nil {
		return
	}
	rec, err := acceptRecord(j, shards, shard)
	if err == nil {
		err = s.journal.Accept(rec)
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
	j.parts = nil // a terminal job keeps its content address, not its artifact
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
// its content address, so its cached artifact), deregisters the in-flight
// hash entry, takes its units off the queue and out of the executor, and —
// unless the job is being abandoned by shutdown — marks the journal records
// done so they compact away instead of replaying. Callers hold s.mu.
func (s *Server) completeLocked(j *job, state, errMsg string, journalDone bool) {
	if j.terminal() {
		return
	}
	s.finishLocked(j, state, errMsg)
	if s.inflight[j.hash] == j {
		delete(s.inflight, j.hash)
	}
	s.dequeueLocked(func(u *Unit) bool { return u.job == j })
	for _, u := range j.units {
		s.ex.Settle(u)
	}
	if journalDone {
		s.journalDoneLocked(j.id)
	}
	for _, f := range j.followers {
		if f.terminal() {
			continue
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
// current unit backlog divided across the executor's slots at the recent
// mean unit duration (1 s floor before any unit has completed), clamped to
// [1 s, 5 min]. Callers hold s.mu.
func (s *Server) retryAfterLocked() time.Duration {
	mean := time.Duration(s.meanUnitNs)
	if mean <= 0 {
		mean = time.Second
	}
	var h Health
	s.ex.Health(&h)
	d := mean * time.Duration(len(s.queue)+s.inFlight) / time.Duration(max(h.Workers, 1))
	return min(max(d, time.Second), 5*time.Minute)
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
	j, err := s.await(ctx, id, wait)
	if err != nil {
		return JobStatus{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statusLocked(j), nil
}

// await looks job id up and holds up to wait while it is queued or running,
// until it turns terminal, the wait elapses or ctx ends. An unknown job
// fails at once with ErrUnknownJob.
func (s *Server) await(ctx context.Context, id string, wait time.Duration) (*job, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownJob, id)
	}
	if wait > 0 {
		t := time.NewTimer(wait)
		defer t.Stop()
		select {
		case <-j.done:
		case <-ctx.Done():
		case <-t.C:
		}
	}
	return j, nil
}

// Artifact returns the finished job's report artifact: exactly the bytes the
// equivalent local `cmd/experiments run -o` writes. ErrJobNotFinished while
// the job is queued or running; the job's failure message once failed;
// ErrArtifactEvicted once the report cache no longer holds the artifact.
// The returned bytes are shared and must not be modified.
func (s *Server) Artifact(id string) ([]byte, error) {
	return s.artifactWait(context.Background(), id, 0)
}

// artifactWait is Artifact after first holding up to wait while the job is
// queued or running, as JobWait does: ErrJobNotFinished only when the wait
// elapses (or ctx ends) first. A done job's bytes come from the report
// cache, read outside s.mu and counted as neither a hit nor a miss; a pack
// read re-admits them to the memory tier, so a report read again is served
// from memory.
func (s *Server) artifactWait(ctx context.Context, id string, wait time.Duration) ([]byte, error) {
	j, err := s.await(ctx, id, wait)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	state, errMsg := j.state, j.errMsg
	s.mu.Unlock()
	switch state {
	case StateDone:
		if artifact, ok := s.cache.Get(j.hash); ok {
			return artifact, nil
		}
		return nil, fmt.Errorf("%w: job %s, content address %s", ErrArtifactEvicted, id, j.hash)
	case StateFailed:
		return nil, fmt.Errorf("service: job %s failed: %s", id, errMsg)
	default:
		return nil, fmt.Errorf("%w: job %s is %s", ErrJobNotFinished, id, state)
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
	h := Health{
		Status:           status,
		QueueDepth:       len(s.queue),
		QueueCapacity:    s.cfg.QueueCapacity,
		InFlight:         s.inFlight,
		Jobs:             len(s.jobs),
		CoalescedJobs:    int(s.met.jobsCoalesced.Value()),
		CacheEntries:     s.cache.Len(),
		CacheHits:        int(s.met.cacheHits.Value()),
		CacheMisses:      int(s.met.cacheMisses.Value()),
		CacheWriteErrors: int(s.met.cacheWriteErr.Value()),
		MeanUnitMs:       s.meanUnitNs / 1e6,
	}
	s.ex.Health(&h)
	return h
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
		state := u.state
		switch {
		case state != "":
		case u.runs > 0:
			state = StateRunning
		default:
			state = StateQueued
		}
		st.Shards = append(st.Shards, ShardStatus{Shard: u.shard.String(), State: state, Done: u.done, Total: u.total})
	}
	return st
}

// dispatch hands queued units to the executor in FIFO order as it has room,
// until the daemon closes. While draining it starts nothing: queued units
// stay journaled for the next start.
func (s *Server) dispatch() {
	defer s.wg.Done()
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.ctx.Err() == nil {
		if s.draining || !s.placeLocked() {
			s.wake.Wait()
		}
	}
}

// placeLocked starts the first queued unit the executor takes, reporting
// whether there was one. Callers hold s.mu.
func (s *Server) placeLocked() bool {
	for i, u := range s.queue {
		run := s.ex.Place(u)
		if run == nil {
			continue
		}
		s.queue = slices.Delete(s.queue, i, i+1)
		u.queued = false
		u.runs++
		s.inFlight++
		if j := u.job; j.state == StateQueued {
			j.state = StateRunning
			j.started = time.Now()
			for _, f := range j.followers {
				if f.state == StateQueued {
					f.state = StateRunning
					f.started = j.started
				}
			}
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			settle := run(s.ctx)
			s.mu.Lock()
			defer s.mu.Unlock()
			if settle != nil {
				settle()
			}
			u.runs--
			s.inFlight--
			if s.draining && s.inFlight == 0 {
				s.drainOnce.Do(func() { close(s.drainIdle) })
			}
			s.wake.Broadcast()
		}()
		return true
	}
	return false
}

// DeliverLocked hands the Server one finished run of u: its report, and for
// a run on another daemon also the artifact bytes it arrived as (nil
// otherwise). The first delivery of a unit wins: the job keeps it, finalising
// after the last unit, and DeliverLocked reports true; a unit already done or
// of a terminal job reports false. dur is the run's duration (0 for a result
// taken from the cache), worker the remote worker's URL ("" for a local run).
// A single-unit job's artifact is the delivered bytes when given, else rep's
// encoding, and goes straight to the report cache; a multi-unit job needs
// rep, and fails when the last unit lands if its partials do not merge.
// Callers hold the lock (see Lock).
func (s *Server) DeliverLocked(u *Unit, rep *experiments.Report, artifact []byte, dur time.Duration, worker string) bool {
	j := u.job
	if u.state != "" || j.terminal() {
		return false
	}
	if dur > 0 {
		s.met.unitDur.Observe(dur.Seconds())
		// EWMA of unit duration feeds the Retry-After backpressure estimate.
		if s.meanUnitNs == 0 {
			s.meanUnitNs = float64(dur)
		} else {
			s.meanUnitNs = 0.8*s.meanUnitNs + 0.2*float64(dur)
		}
	}
	s.events.Emit(obs.Event{Event: obs.EventUnitFinished, Trace: j.trace, Job: j.id,
		Experiment: j.experiment, Unit: u.shard.String(), Worker: worker, Detail: dur.Round(time.Millisecond).String()})
	u.state = StateDone
	if u.queued {
		s.dequeueLocked(func(q *Unit) bool { return q == u })
	}
	j.remaining--
	if j.parts == nil {
		s.finalizeLocked(j, rep, artifact)
		return true
	}
	j.parts[u.shard.Index] = rep
	if j.remaining == 0 {
		// MergeReports folds in shard order, whatever the arrival order, so
		// the merged bytes never depend on which unit finished first.
		merged, err := experiments.MergeReports(j.parts)
		if err != nil {
			s.completeLocked(j, StateFailed, err.Error(), true)
			return true
		}
		s.events.Emit(obs.Event{Event: obs.EventMerge, Trace: j.trace, Job: j.id,
			Experiment: j.experiment, Detail: fmt.Sprintf("%d shard partials", len(j.units))})
		s.finalizeLocked(j, merged, nil)
	}
	return true
}

// finalizeLocked renders the job's artifact from rep unless it arrived as
// bytes, stores it in the report cache under the job's content address and
// resolves the job with all its coalesced followers. Callers hold s.mu.
func (s *Server) finalizeLocked(j *job, rep *experiments.Report, artifact []byte) {
	if artifact == nil {
		var buf bytes.Buffer
		if err := experiments.WriteArtifact(&buf, []*experiments.Report{rep}); err != nil {
			s.completeLocked(j, StateFailed, err.Error(), true)
			return
		}
		artifact = buf.Bytes()
	}
	s.cachePutLocked(j.hash, artifact)
	s.completeLocked(j, StateDone, "", true)
}

// FailLocked fails u and with it u's job, unless the job is already terminal.
// A failure while the daemon is closing abandons the job instead, keeping
// its journal record for the next start. worker is the remote worker's URL
// ("" for a local run). Callers hold the lock (see Lock).
func (s *Server) FailLocked(u *Unit, worker string, err error) {
	j := u.job
	if u.state != "" || j.terminal() {
		return
	}
	u.state = StateFailed
	s.events.Emit(obs.Event{Event: obs.EventUnitFailed, Trace: j.trace, Job: j.id,
		Experiment: j.experiment, Unit: u.shard.String(), Worker: worker, Detail: err.Error()})
	if s.ctx.Err() != nil {
		s.completeLocked(j, StateFailed, shutdownMsg, false)
	} else {
		s.completeLocked(j, StateFailed, err.Error(), true)
	}
}

// CacheGetLocked looks up u's own result in the report cache under the
// unit's content address (experiments.ShardSpecHash), counting the hit or
// miss. Callers hold the lock (see Lock).
func (s *Server) CacheGetLocked(u *Unit) ([]byte, bool) {
	return s.cacheGetLocked(u.job, experiments.ShardSpecHash(u.job.experiment, u.job.spec, u.shard))
}

// CachePutLocked stores u's own result artifact in the report cache under
// the unit's content address. Callers hold the lock (see Lock).
func (s *Server) CachePutLocked(u *Unit, artifact []byte) {
	s.cachePutLocked(experiments.ShardSpecHash(u.job.experiment, u.job.spec, u.shard), artifact)
}

// JournalLeaseLocked journals one dispatch of u (l.Unit is filled in), so a
// restart can prefer the same worker. Callers hold the lock (see Lock).
func (s *Server) JournalLeaseLocked(u *Unit, l journal.Lease) {
	if s.journal == nil {
		return
	}
	l.Unit = u.shard.String()
	if err := s.journal.Lease(u.job.id, l); err != nil {
		s.met.journalError(err)
		log.Printf("service: journaling lease of %s %s: %v", u.job.id, l.Unit, err)
	}
}

// Emit appends one record to the event log (a no-op without CacheDir).
func (s *Server) Emit(e obs.Event) { s.events.Emit(e) }

// Lock takes the Server's lock. An Executor guards its own state with it and
// holds it around every *Locked call; the Server holds it around every
// Executor call except Start and Validate.
func (s *Server) Lock() { s.mu.Lock() }

// Unlock releases the Server's lock.
func (s *Server) Unlock() { s.mu.Unlock() }

// Wake tells the dispatcher that the executor may take a queued unit it
// refused before (a slot freed up or a worker came up).
func (s *Server) Wake() { s.wake.Broadcast() }
