package federation

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sync"
	"syscall"
	"time"

	"battsched/internal/experiments"
	"battsched/internal/obs"
	"battsched/internal/service"
	"battsched/internal/service/client"
	"battsched/internal/service/journal"
)

// fleet is the coordinator's service.Executor: it leases each unit the front
// end queues to a live worker with a free slot. All its state is guarded by
// the Server's lock (service.Server.Lock).
type fleet struct {
	cfg     Config
	s       *service.Server
	ctx     context.Context
	met     fleetMetrics
	workers map[string]*worker
	units   map[*service.Unit]*unitState // units dispatched or resumed, until their job ends
}

// worker is one registered battschedd.
type worker struct {
	url        string
	sub        *client.Client // submits and polls: a couple of retries absorb restarts
	probe      *client.Client // heartbeats: fail fast, the heartbeat loop is the retry
	live       bool
	fails      int     // consecutive failed heartbeats
	slots      int     // the worker's pool size, from its last health snapshot
	leased     int     // slots held by this coordinator's lease pollers, cancelled or not
	meanUnitNs float64 // per-worker EWMA of dispatch-to-delivery unit time
}

// unitState is the fleet's view of one unit.
type unitState struct {
	attempts int    // dispatches so far
	lease    *lease // the unit's current dispatch, nil while it waits for one
	prefer   string // journaled worker URL to prefer on restart replay
}

// lease is one dispatch of a unit to a worker. It holds a slot of its worker
// from Place until its poller ends, cancelled or not: the coordinator cannot
// stop a remote job, so a copy its unit no longer waits on still occupies
// the worker until it ends.
type lease struct {
	u         *service.Unit
	st        *unitState
	w         *worker
	remote    string // the worker's job ID, once known
	started   time.Time
	expires   time.Time
	cancelled bool // failed, expired, superseded or settled: no longer renewed or expired
}

// unitName names a unit for logs and errors.
func unitName(u *service.Unit) string {
	if u.Shard().Enabled() {
		return u.Shard().String()
	}
	return "0/1"
}

// event builds an event record of u on worker w.
func event(name string, u *service.Unit, w *worker) obs.Event {
	req := u.Request()
	return obs.Event{Event: name, Trace: req.TraceID, Job: u.Job(), Experiment: req.Experiment,
		Unit: u.Shard().String(), Worker: w.url}
}

func (f *fleet) Start(ctx context.Context, wg *sync.WaitGroup, s *service.Server) {
	f.s, f.ctx = s, ctx
	f.met = newFleetMetrics(s.Metrics())
	f.registerGauges()
	for u := range f.workers {
		f.registerWorkerMetrics(u)
	}
	wg.Add(2)
	go f.heartbeatLoop(wg)
	go f.leaseMonitor(wg)
}

// Validate rejects unit-level jobs: they are the coordinator's output, not
// its input — a coordinator fronting coordinators is not supported.
func (f *fleet) Validate(req service.JobRequest) error {
	if req.Shard != "" {
		return fmt.Errorf("%w: the coordinator does not accept shard-unit jobs", experiments.ErrBadConfig)
	}
	return nil
}

// Place leases u to its preferred worker when that one is live with a free
// slot (the journaled lease target on restart — the result is likely cached
// or still in flight there), otherwise to the live worker with the most free
// slots.
func (f *fleet) Place(u *service.Unit) func(context.Context) func() {
	st := f.state(u)
	free := func(w *worker) bool { return w.live && w.leased < w.slots }
	w := f.workers[st.prefer]
	if w == nil || !free(w) {
		w = nil
		for _, c := range f.workers {
			if free(c) && (w == nil || c.slots-c.leased > w.slots-w.leased) {
				w = c
			}
		}
	}
	if w == nil {
		return nil
	}
	st.attempts++
	now := time.Now()
	l := &lease{u: u, st: st, w: w, started: now, expires: now.Add(f.cfg.LeaseDuration)}
	st.lease = l
	w.leased++
	f.s.JournalLeaseLocked(u, journal.Lease{Worker: w.url, Expires: l.expires})
	return func(ctx context.Context) func() { return f.runLease(ctx, l) }
}

// state returns u's fleet state, creating it on first use. Callers hold the
// lock.
func (f *fleet) state(u *service.Unit) *unitState {
	st := f.units[u]
	if st == nil {
		st = &unitState{}
		f.units[u] = st
	}
	return st
}

// Resume folds a shard partial the previous coordinator already cached
// without a dispatch, and otherwise prefers the unit's journaled worker.
func (f *fleet) Resume(u *service.Unit, leases []journal.Lease) bool {
	if u.Shard().Enabled() {
		if raw, ok := f.s.CacheGetLocked(u); ok {
			if rep, err := decodePartial(raw); err == nil && f.s.DeliverLocked(u, rep, raw, 0, "") {
				return true
			}
		}
	}
	for _, l := range leases {
		if l.Unit == u.Shard().String() {
			f.state(u).prefer = l.Worker
		}
	}
	return false
}

// Settle cancels u's lease and forgets it.
func (f *fleet) Settle(u *service.Unit) {
	if st := f.units[u]; st != nil {
		cancelLocked(st.lease)
		delete(f.units, u)
	}
}

func (f *fleet) Health(h *service.Health) {
	// Lifetime counters are read back from the metrics registry, so /healthz
	// and /metrics cannot disagree (pinned by TestFleetHealthMatchesMetrics).
	fl := &service.FleetHealth{
		Workers:             len(f.workers),
		QueuedUnits:         h.QueueDepth,
		ExpiredRedispatches: int(f.met.expiredRe.Value()),
	}
	for _, w := range f.workers {
		if w.live {
			fl.LiveWorkers++
			fl.Slots += w.slots
			fl.FreeSlots += max(w.slots-w.leased, 0)
		}
		fl.LeasedUnits += w.leased
	}
	h.Workers = fl.Slots
	h.Fleet = fl
}

// maxRequestBody bounds POST /v1/workers payloads.
const maxRequestBody = 1 << 20

// Routes serves the worker registry:
//
//	GET  /v1/workers  the registry with liveness and leases
//	POST /v1/workers  register a worker {"url": "http://host:port"}; 400 on
//	                  anything but an absolute http(s) URL with a host
func (f *fleet) Routes() map[string]func(*http.Request) (any, error) {
	return map[string]func(*http.Request) (any, error){
		"GET /v1/workers": func(*http.Request) (any, error) { return f.snapshot(), nil },
		"POST /v1/workers": func(r *http.Request) (any, error) {
			var req struct {
				URL string `json:"url"`
			}
			if err := service.DecodeJSON(io.LimitReader(r.Body, maxRequestBody), &req); err != nil {
				return nil, fmt.Errorf(`%w: registration needs {"url": "http://host:port"}: %v`, experiments.ErrBadConfig, err)
			}
			if err := f.addWorker(req.URL); err != nil {
				return nil, err
			}
			return f.snapshot(), nil
		},
	}
}

// heartbeatLoop probes every worker's /healthz each interval. A passing probe
// makes the worker live and refreshes its slot count (the worker's pool
// size); DeadAfter consecutive failures mark it dead, which expires all its
// leases immediately — their units re-queue without waiting for the lease
// deadline.
func (f *fleet) heartbeatLoop(wg *sync.WaitGroup) {
	defer wg.Done()
	tick := time.NewTicker(f.cfg.HeartbeatInterval)
	defer tick.Stop()
	for {
		f.heartbeatRound()
		select {
		case <-f.ctx.Done():
			return
		case <-tick.C:
		}
	}
}

func (f *fleet) heartbeatRound() {
	f.s.Lock()
	probes := make([]*worker, 0, len(f.workers))
	for _, w := range f.workers {
		probes = append(probes, w)
	}
	f.s.Unlock()

	type result struct {
		w     *worker
		slots int
		ok    bool
	}
	results := make(chan result, len(probes))
	// The probe deadline gets a 1 s floor above the interval: a busy worker
	// saturating its cores on shard units can take tens of milliseconds to
	// answer /healthz, and a short -heartbeat must not turn that latency
	// into a death verdict (dead workers are detected fast regardless —
	// their sockets refuse instantly).
	timeout := max(f.cfg.HeartbeatInterval, time.Second)
	for _, w := range probes {
		go func(w *worker) {
			ctx, cancel := context.WithTimeout(f.ctx, timeout)
			defer cancel()
			h, err := w.probe.Health(ctx)
			// A draining worker answers 503 with a full snapshot, but it is
			// shutting down: treat it like a failed probe so no new units
			// route there and its leases expire on the usual schedule.
			results <- result{w: w, slots: h.Workers, ok: err == nil && h.Status == "ok"}
		}(w)
	}
	collected := make([]result, 0, len(probes))
	for range probes {
		collected = append(collected, <-results)
	}
	f.s.Lock()
	defer f.s.Unlock()
	for _, r := range collected {
		if r.ok {
			if !r.w.live {
				f.s.Emit(obs.Event{Event: obs.EventWorkerUp, Worker: r.w.url})
			}
			r.w.live = true
			r.w.fails = 0
			r.w.slots = r.slots
			f.s.Wake()
			continue
		}
		r.w.fails++
		if r.w.fails >= f.cfg.DeadAfter && r.w.live {
			f.markWorkerDownLocked(r.w, obs.ReasonHeartbeatMiss,
				fmt.Sprintf("%d consecutive heartbeat probes failed", r.w.fails))
		}
	}
}

// markWorkerDownLocked takes a worker out of dispatch rotation and expires
// its outstanding leases, recording the verdict — reason is the structured
// cause (obs.ReasonHeartbeatMiss or obs.ReasonTransportError), why the
// free-form one. The next passing heartbeat probe revives it. Callers hold
// the lock.
func (f *fleet) markWorkerDownLocked(w *worker, reason, why string) {
	if !w.live {
		return
	}
	log.Printf("federation: marking worker %s down (%s): %s", w.url, reason, why)
	if reason == obs.ReasonTransportError {
		f.met.downTransport.Inc()
	} else {
		f.met.downHeartbeat.Inc()
	}
	f.s.Emit(obs.Event{Event: obs.EventWorkerDown, Worker: w.url, Reason: reason, Detail: why})
	w.live = false
	w.fails = f.cfg.DeadAfter
	for _, st := range f.units {
		if l := st.lease; l != nil && l.w == w && !l.cancelled {
			f.met.leaseExpiries.Inc()
			f.failLeaseLocked(l, fmt.Sprintf("worker %s stopped answering heartbeats", w.url))
		}
	}
}

// runLease drives one dispatched unit on its worker: submit the shard-unit
// job, then long-poll its report (each request holds up to PollInterval and
// answers the artifact the moment the unit finishes; each 409, the unit
// still running, renews the lease) and return the step that delivers the
// artifact. Every failure path funnels into failLeaseLocked, which re-queues
// or fails the unit. A cancelled lease keeps polling until its copy ends,
// and the step returns the worker's slot when the poller ends, whatever
// ended it.
func (f *fleet) runLease(ctx context.Context, l *lease) func() {
	settle := f.pollLease(ctx, l)
	return func() {
		if settle != nil {
			settle()
		}
		l.w.leased--
	}
}

// pollLease runs runLease's requests and returns the step that records
// their outcome; nil when shutdown ended them.
func (f *fleet) pollLease(ctx context.Context, l *lease) func() {
	u := l.u
	if hook := f.cfg.OnDispatch; hook != nil {
		hook(u.Job(), u.Shard(), l.w.url)
	}
	f.s.Emit(event(obs.EventUnitLeased, u, l.w))
	// The job's trace id rides the X-Trace-Id header of every unit dispatch,
	// so the worker's event log carries the same trace as the coordinator's.
	st, err := l.w.sub.Submit(ctx, u.Request())
	if err != nil {
		return f.leaseFailed(l, fmt.Sprintf("submitting to %s: %v", l.w.url, err), err)
	}
	f.s.Lock()
	l.remote = st.ID
	l.expires = time.Now().Add(f.cfg.LeaseDuration)
	f.s.JournalLeaseLocked(u, journal.Lease{Worker: l.w.url, Remote: l.remote, Expires: l.expires})
	f.s.Unlock()

	for {
		raw, err := l.w.sub.ReportWait(ctx, st.ID, f.cfg.PollInterval)
		var ae *client.APIError
		switch {
		case err == nil:
			return f.deliver(l, raw)
		case ctx.Err() != nil:
			return nil // shutdown abandons the lease; its journal record survives
		case errors.As(err, &ae) && ae.Status == http.StatusConflict:
			// The worker is answering and the unit still runs: renew the
			// lease.
			f.s.Lock()
			if !l.cancelled {
				l.expires = time.Now().Add(f.cfg.LeaseDuration)
				f.met.leaseRenewals.Inc()
			}
			f.s.Unlock()
		case errors.As(err, &ae):
			// Worker-reported failure. It may be deterministic (a bad spec —
			// rare, the coordinator validates upfront) or transient (the
			// worker was shutting down and abandoned the job, or restarted
			// and forgot it); all re-queue until MaxAttempts, which bounds
			// the deterministic case.
			return f.leaseFailed(l, fmt.Sprintf("worker %s: %s", l.w.url, ae.Message), nil)
		default:
			return f.leaseFailed(l, fmt.Sprintf("polling %s: %v", l.w.url, err), err)
		}
	}
}

// leaseFailed returns the step that fails one lease and, when err is a
// connection-level transport error (refused, reset, timed out — the daemon
// is not answering at the socket level), marks the worker down immediately.
// Waiting for DeadAfter missed heartbeats instead would keep routing the
// re-queued unit back to the corpse: a dead worker holds zero leases, so it
// wins the most-free-slots pick every time and burns through MaxAttempts in
// the sub-second window before the heartbeat verdict lands. API-level errors
// (an unknown remote job after a worker restart, a decode failure) leave the
// worker up — its socket answered.
func (f *fleet) leaseFailed(l *lease, msg string, err error) func() {
	return func() {
		f.failLeaseLocked(l, msg)
		var ne net.Error
		if errors.As(err, &ne) || errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET) {
			f.markWorkerDownLocked(l.w, obs.ReasonTransportError, msg)
		}
	}
}

// failLeaseLocked handles every way a lease ends without delivering: cancel
// it and re-queue the unit (below MaxAttempts) or fail the job. Callers hold
// the lock.
func (f *fleet) failLeaseLocked(l *lease, msg string) {
	if l.cancelled {
		return // already expired, superseded or settled
	}
	cancelLocked(l)
	st := l.st
	st.lease = nil
	u := l.u
	if st.attempts >= f.cfg.MaxAttempts {
		f.s.FailLocked(u, l.w.url, fmt.Errorf("unit %s failed after %d attempts: %s", unitName(u), st.attempts, msg))
		return
	}
	// Every path here — an expired lease, a dead worker, a transport error, a
	// worker-reported failure — ends in the same re-dispatch, counted once.
	f.met.expiredRe.Inc()
	e := event(obs.EventUnitRedispatched, u, l.w)
	e.Detail = msg
	f.s.Emit(e)
	log.Printf("federation: re-queueing %s unit %s (attempt %d): %s", u.Job(), unitName(u), st.attempts, msg)
	f.s.QueueLocked(u)
}

// cancelLocked cancels one lease, if any: its unit no longer waits on it.
// Its poller keeps the worker's slot until the copy ends. Callers hold the
// lock.
func cancelLocked(l *lease) {
	if l != nil {
		l.cancelled = true
	}
}

// leaseMonitor expires overdue leases.
func (f *fleet) leaseMonitor(wg *sync.WaitGroup) {
	defer wg.Done()
	period := min(max(f.cfg.LeaseDuration/4, 10*time.Millisecond), time.Second)
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-f.ctx.Done():
			return
		case <-tick.C:
		}
		f.monitorRound()
	}
}

// monitorRound re-queues the unit of every expired lease: its worker
// stopped renewing (died, wedged, or unreachable). A unit whose worker keeps
// answering is never re-dispatched, however long it runs.
func (f *fleet) monitorRound() {
	f.s.Lock()
	defer f.s.Unlock()
	now := time.Now()
	for _, st := range f.units {
		if l := st.lease; l != nil && !l.cancelled && now.After(l.expires) {
			f.met.leaseExpiries.Inc()
			f.failLeaseLocked(l, fmt.Sprintf("lease on %s expired", l.w.url))
		}
	}
}

// deliver decodes one completed unit's artifact (a shard partial) and
// returns the step that hands it to the front end: the first copy wins,
// later duplicates are discarded (bit-exact by construction), and a
// delivered shard partial is cached under its content address. An expired
// lease whose worker finishes after all still delivers, and cancels the
// unit's re-dispatch.
func (f *fleet) deliver(l *lease, raw []byte) func() {
	u := l.u
	var rep *experiments.Report
	if u.Shard().Enabled() {
		var err error
		if rep, err = decodePartial(raw); err != nil {
			return f.leaseFailed(l, fmt.Sprintf("decoding partial from %s: %v", l.w.url, err), nil)
		}
	}
	dur := time.Since(l.started)
	return func() {
		cancelLocked(l)
		if !f.s.DeliverLocked(u, rep, raw, dur, l.w.url) {
			return // the other side of an expiry re-dispatch already delivered
		}
		if l.w.meanUnitNs == 0 {
			l.w.meanUnitNs = float64(dur)
		} else {
			l.w.meanUnitNs = 0.8*l.w.meanUnitNs + 0.2*float64(dur)
		}
		if u.Shard().Enabled() {
			f.s.CachePutLocked(u, raw)
		}
		// Cancel the re-dispatch a late delivery overtook; its poller keeps
		// its slot until that copy ends too.
		cancelLocked(l.st.lease)
		l.st.lease = nil
	}
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
