package service

import (
	"context"
	"net/http"
	"sync"
	"time"

	"battsched/internal/experiments"
	"battsched/internal/obs"
	"battsched/internal/service/journal"
)

// Executor runs the shard units a Server queues: the worker daemon's local
// pool (New), or a coordinator's remote fleet (internal/federation). The
// Server calls Place, Resume, Settle and Health with its lock held (see
// Server.Lock).
type Executor interface {
	// Start is called once, before journal replay: the executor registers
	// its metrics on s.Metrics() and starts its background goroutines, which
	// stop when ctx ends and are counted in wg.
	Start(ctx context.Context, wg *sync.WaitGroup, s *Server)
	// Validate rejects, with an experiments.ErrBadConfig error, a request
	// this executor cannot run. It reads nothing but req: the Server calls
	// it with and without its lock.
	Validate(req JobRequest) error
	// Place returns the run of u when the executor has room for it now, nil
	// otherwise. The Server calls the run without its lock, on a goroutine of
	// its own, with the Server's context; the run returns the step that
	// records its outcome (Server.DeliverLocked, FailLocked or
	// QueueLocked), which the Server calls with the lock held.
	Place(u *Unit) func(ctx context.Context) func()
	// Resume offers each unit of a job replayed from the journal, with the
	// job's journaled leases, before it queues; true means the executor
	// resolved it (say, delivered a cached result) and it needs no run.
	Resume(u *Unit, leases []journal.Lease) bool
	// Settle is called for each unit of a job that turned terminal: any run
	// still holding it is no longer wanted.
	Settle(u *Unit)
	// Health fills the executor's part of a health snapshot: Workers (the
	// slots units run in) and, on a coordinator, Fleet.
	Health(h *Health)
	// Routes returns the executor's own API routes by ServeMux pattern. The
	// Server serves each handler's value as JSON, and its error like those of
	// the /v1 job routes.
	Routes() map[string]func(r *http.Request) (any, error)
}

// pool is the worker daemon's Executor: up to Config.Workers units run at
// once in this process, each through experiments.Run.
type pool struct {
	s *Server
}

func (p *pool) Start(_ context.Context, _ *sync.WaitGroup, s *Server) {
	p.s = s
	s.metrics.GaugeFunc("battsched_workers", "Worker-pool size.",
		func() float64 { return float64(s.cfg.Workers) })
}

func (p *pool) Validate(JobRequest) error { return nil }

func (p *pool) Place(u *Unit) func(context.Context) func() {
	s := p.s
	if s.inFlight >= s.cfg.Workers {
		return nil
	}
	j := u.job
	s.events.Emit(obs.Event{Event: obs.EventUnitStarted, Trace: j.trace, Job: j.id,
		Experiment: j.experiment, Unit: u.shard.String()})
	spec := j.spec
	spec.Shard = u.shard
	spec.Progress = func(done, total int) {
		s.mu.Lock()
		u.done, u.total = done, total
		s.mu.Unlock()
	}
	return func(ctx context.Context) func() {
		start := time.Now()
		var rep *experiments.Report
		var err error
		if hook := s.cfg.FaultHook; hook != nil {
			err = hook(ctx, j.experiment, u.shard)
		}
		if err == nil {
			rep, err = experiments.Run(ctx, j.experiment, spec)
		}
		dur := time.Since(start)
		return func() {
			if err != nil {
				s.FailLocked(u, "", err)
			} else {
				s.DeliverLocked(u, rep, nil, dur, "")
			}
		}
	}
}

func (p *pool) Resume(*Unit, []journal.Lease) bool { return false }

func (p *pool) Settle(*Unit) {}

func (p *pool) Health(h *Health) { h.Workers = p.s.cfg.Workers }

func (p *pool) Routes() map[string]func(*http.Request) (any, error) { return nil }
