// Package federation implements the fleet coordinator of the experiment
// service: a service.Server whose Executor runs nothing itself but leases
// every shard unit to a remote battschedd worker. The job front end —
// admission, caching, coalescing, the journal, the unit queue and its bound,
// merging, drain and the /v1 API — is the worker daemon's own
// (internal/service); this package adds only what a fleet needs. It keeps a
// registry of workers — registered at start or over POST /v1/workers,
// health-checked by periodic heartbeat against their /healthz — and
// dispatches queued units to workers with free slots under time-bounded
// leases through the typed client.
//
// Each unit rides the worker's own machinery: it is submitted as a
// single-shard job (JobRequest.Shard "i/n") content-addressed by the
// partial's hash, so a re-dispatch of a unit another worker already computed
// is a cache hit, and a re-dispatch of a unit the same worker is still
// computing coalesces onto the in-flight run. That idempotence is what makes
// the coordinator's failure handling simple: leases that expire (worker died
// or became unreachable) re-queue their units, the first completed copy
// wins, and a late copy is discarded — every copy of a shard partial is
// bit-exact. A unit whose worker keeps answering finishes where it runs.
//
// Delivered shard partials are cached under their content address, and
// leases are journaled next to the front end's job records; a restarted
// coordinator resumes dispatch from the journal, folding already-cached
// partials instead of re-running them and preferring each unit's journaled
// worker (where the result is likely cached or still in flight).
package federation

import (
	"fmt"
	"log"
	"net/url"
	"sort"
	"strings"
	"time"

	"battsched/internal/experiments"
	"battsched/internal/service"
	"battsched/internal/service/client"
)

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
	// Every report poll the worker answers with 409 (the unit still runs)
	// renews the lease, so a healthy long-running unit keeps its lease
	// alive; the lease only expires when the worker stops answering. An
	// expired lease re-queues its unit but keeps its worker's slot until
	// its copy ends. Keep it well above PollInterval.
	LeaseDuration time.Duration
	// PollInterval is the longest one remote report request waits (<= 0
	// selects 100 ms): after submitting a unit the coordinator long-polls
	// GET /v1/jobs/{id}/report?wait=PollInterval, so the partial arrives
	// the moment the unit finishes and the lease renews at least this often.
	PollInterval time.Duration
	// MaxAttempts bounds dispatch attempts per unit before the job fails
	// (<= 0 selects 3).
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
	// QueueCapacity bounds the number of shard units waiting for a worker
	// slot (<= 0 selects 256); submissions beyond it reject with 429 and a
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
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.QueueCapacity <= 0 {
		cfg.QueueCapacity = 256
	}
}

// Coordinator is the federation daemon: the job front end (Submit, Job,
// JobWait, Artifact, Health, Handler, Shutdown, Close) of a service.Server
// whose units run on the worker fleet. Construct with New.
type Coordinator struct {
	*service.Server
	fleet *fleet
}

// New constructs a coordinator, replays its journal (when CacheDir is set)
// and starts the heartbeat, dispatch and lease-monitor loops. It fails on a
// Workers entry that is not an absolute http or https URL.
func New(cfg Config) (*Coordinator, error) {
	cfg.fillDefaults()
	f := &fleet{cfg: cfg, workers: make(map[string]*worker), units: make(map[*service.Unit]*unitState)}
	for _, raw := range cfg.Workers {
		u, err := workerURL(raw)
		if err != nil {
			return nil, err
		}
		f.addLocked(u)
	}
	s, err := service.NewWithExecutor(service.Config{
		QueueCapacity: cfg.QueueCapacity,
		CacheDir:      cfg.CacheDir,
		CacheEntries:  cfg.CacheEntries,
		JournalFsync:  cfg.JournalFsync,
		MaxJobs:       cfg.MaxJobs,
	}, f)
	if err != nil {
		return nil, err
	}
	return &Coordinator{Server: s, fleet: f}, nil
}

// workerURL normalises a worker base URL: an absolute http or https URL with
// a host, trailing slashes trimmed, so one worker registers once however its
// URL is spelled.
func workerURL(raw string) (string, error) {
	u, err := url.Parse(raw)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return "", fmt.Errorf("%w: worker URL %q is not an absolute http(s) URL with a host",
			experiments.ErrBadConfig, raw)
	}
	return strings.TrimRight(raw, "/"), nil
}

// AddWorker registers one worker URL (idempotent; an invalid URL is logged
// and ignored). The next heartbeat round-trip makes it live and
// dispatchable.
func (co *Coordinator) AddWorker(raw string) {
	if err := co.fleet.addWorker(raw); err != nil {
		log.Printf("federation: %v", err)
	}
}

// WorkerStatus is one registry entry of GET /v1/workers.
type WorkerStatus struct {
	URL    string `json:"url"`
	Live   bool   `json:"live"`
	Slots  int    `json:"slots"`
	Leased int    `json:"leased"`
}

// Workers snapshots the registry, sorted by URL.
func (co *Coordinator) Workers() []WorkerStatus { return co.fleet.snapshot() }

// addWorker validates, normalises and registers one worker URL.
func (f *fleet) addWorker(raw string) error {
	u, err := workerURL(raw)
	if err != nil {
		return err
	}
	// Per-worker gauges register BEFORE the lock is taken: registration takes
	// the registry write lock, and a concurrent /metrics render holds the
	// registry read lock while its callbacks take the lock — registering
	// under it would be a lock-order inversion (see the obs locking
	// contract).
	f.registerWorkerMetrics(u)
	f.s.Lock()
	defer f.s.Unlock()
	f.addLocked(u)
	return nil
}

// addLocked registers a normalised worker URL (idempotent). Callers hold the
// lock, or own f before it starts.
func (f *fleet) addLocked(u string) {
	if _, ok := f.workers[u]; ok {
		return
	}
	sub := client.New(u)
	sub.MaxRetries = 2
	sub.RetryBaseDelay = 100 * time.Millisecond
	f.workers[u] = &worker{url: u, sub: sub, probe: client.New(u)}
}

func (f *fleet) snapshot() []WorkerStatus {
	f.s.Lock()
	defer f.s.Unlock()
	out := make([]WorkerStatus, 0, len(f.workers))
	for _, w := range f.workers {
		out = append(out, WorkerStatus{URL: w.url, Live: w.live, Slots: w.slots, Leased: w.leased})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}
