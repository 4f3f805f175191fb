package federation

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"syscall"
	"time"

	"battsched/internal/experiments"
	"battsched/internal/obs"
	"battsched/internal/service"
)

// heartbeatLoop probes every worker's /healthz each interval. A passing probe
// makes the worker live and refreshes its slot count (the worker's pool
// size); DeadAfter consecutive failures mark it dead, which expires all its
// leases immediately — their units re-queue without waiting for the lease
// deadline.
func (co *Coordinator) heartbeatLoop() {
	defer co.wg.Done()
	tick := time.NewTicker(co.cfg.HeartbeatInterval)
	defer tick.Stop()
	for {
		co.heartbeatRound()
		select {
		case <-co.ctx.Done():
			return
		case <-tick.C:
		}
	}
}

func (co *Coordinator) heartbeatRound() {
	co.mu.Lock()
	probes := make([]*worker, 0, len(co.workers))
	for _, w := range co.workers {
		probes = append(probes, w)
	}
	co.mu.Unlock()

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
	timeout := co.cfg.HeartbeatInterval
	if timeout < time.Second {
		timeout = time.Second
	}
	for _, w := range probes {
		go func(w *worker) {
			ctx, cancel := context.WithTimeout(co.ctx, timeout)
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
	co.mu.Lock()
	defer co.mu.Unlock()
	for _, r := range collected {
		if r.ok {
			if !r.w.live {
				co.events.Emit(obs.Event{Event: obs.EventWorkerUp, Worker: r.w.url})
			}
			r.w.live = true
			r.w.fails = 0
			r.w.slots = r.slots
			co.cond.Broadcast()
			continue
		}
		r.w.fails++
		if r.w.fails >= co.cfg.DeadAfter && r.w.live {
			co.markWorkerDownLocked(r.w, obs.ReasonHeartbeatMiss,
				fmt.Sprintf("%d consecutive heartbeat probes failed", r.w.fails))
		}
	}
}

// leaseFailed fails one lease and, when the underlying error is a
// connection-level transport error (refused, reset, timed out — the daemon
// is not answering at the socket level), marks the worker down immediately.
// Waiting for DeadAfter missed heartbeats instead would keep routing the
// re-queued unit back to the corpse: a dead worker holds zero leases, so it
// wins the most-free-slots pick every time and burns through MaxAttempts in
// the sub-second window before the heartbeat verdict lands. API-level errors
// (an unknown remote job after a worker restart, a decode failure) leave the
// worker up — its socket answered.
func (co *Coordinator) leaseFailed(l *lease, msg string, err error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.failLeaseLocked(l, msg)
	var ne net.Error
	if errors.As(err, &ne) || errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET) {
		co.markWorkerDownLocked(l.w, obs.ReasonTransportError, msg)
	}
}

// markWorkerDownLocked takes a worker out of dispatch rotation and expires
// its outstanding leases, recording the verdict — reason is the structured
// cause (obs.ReasonHeartbeatMiss or obs.ReasonTransportError), why the
// free-form one. The next passing heartbeat probe revives it. Callers hold
// co.mu.
func (co *Coordinator) markWorkerDownLocked(w *worker, reason, why string) {
	if !w.live {
		return
	}
	log.Printf("federation: marking worker %s down (%s): %s", w.url, reason, why)
	if reason == obs.ReasonTransportError {
		co.met.downTransport.Inc()
	} else {
		co.met.downHeartbeat.Inc()
	}
	co.events.Emit(obs.Event{
		Event: obs.EventWorkerDown, Worker: w.url, Reason: reason, Detail: why,
	})
	w.live = false
	w.fails = co.cfg.DeadAfter
	co.expireWorkerLeasesLocked(w)
}

// expireWorkerLeasesLocked expires every outstanding lease held by a dead
// worker. Callers hold co.mu.
func (co *Coordinator) expireWorkerLeasesLocked(w *worker) {
	for _, j := range co.jobs {
		for _, u := range j.units {
			for _, l := range u.leases {
				if l.w == w && !l.cancelled {
					co.met.leaseExpiries.Inc()
					co.failLeaseLocked(l, fmt.Sprintf("worker %s stopped answering heartbeats", w.url))
				}
			}
		}
	}
}

// dispatcher pairs queued units with free worker slots and spawns one lease
// goroutine per dispatch. It sleeps on the cond var whenever nothing is
// dispatchable (empty queue, no live capacity).
func (co *Coordinator) dispatcher() {
	defer co.wg.Done()
	co.mu.Lock()
	defer co.mu.Unlock()
	for {
		if co.ctx.Err() != nil {
			return
		}
		l := co.pickLocked()
		if l == nil {
			co.cond.Wait()
			continue
		}
		co.wg.Add(1)
		go co.runLease(l)
	}
}

// pickLocked pops the first dispatchable (unit, worker) pair off the queue
// and leases it: the unit's preferred worker when live with a free slot (the
// journaled lease target on restart — the result is likely cached or still
// in flight there), otherwise the live worker with the most free slots that
// is not already running this unit. Finished or terminal units are dropped
// from the queue in passing. Returns nil when nothing is dispatchable.
// Callers hold co.mu.
func (co *Coordinator) pickLocked() *lease {
	for qi := 0; qi < len(co.queue); qi++ {
		u := co.queue[qi]
		if u.finished || u.job.state == service.StateDone || u.job.state == service.StateFailed {
			u.queued = false
			co.queue = append(co.queue[:qi], co.queue[qi+1:]...)
			qi--
			continue
		}
		w := co.workerForLocked(u)
		if w == nil {
			continue // no capacity for this unit right now; try the next
		}
		co.queue = append(co.queue[:qi], co.queue[qi+1:]...)
		u.queued = false
		u.attempts++
		now := time.Now()
		if u.started.IsZero() {
			u.started = now
		}
		u.state = service.StateRunning
		j := u.job
		if j.state == service.StateQueued {
			j.state = service.StateRunning
			j.started = now
			for _, f := range j.followers {
				if f.state == service.StateQueued {
					f.state = service.StateRunning
					f.started = now
				}
			}
		}
		l := &lease{unit: u, w: w, started: now, expires: now.Add(co.cfg.LeaseDuration)}
		u.leases = append(u.leases, l)
		w.leased++
		co.journalLeaseLocked(l)
		return l
	}
	return nil
}

// workerForLocked picks the dispatch target for one unit. Callers hold co.mu.
func (co *Coordinator) workerForLocked(u *funit) *worker {
	eligible := func(w *worker) bool {
		if !w.live || w.leased >= w.slots {
			return false
		}
		for _, l := range u.leases {
			if l.w == w && !l.cancelled {
				return false // already running this unit (speculation targets another worker)
			}
		}
		return true
	}
	if u.prefer != "" {
		if w := co.workers[u.prefer]; w != nil && eligible(w) {
			return w
		}
	}
	var best *worker
	for _, w := range co.workers {
		if !eligible(w) {
			continue
		}
		if best == nil || w.slots-w.leased > best.slots-best.leased {
			best = w
		}
	}
	return best
}

// runLease drives one dispatched unit on its worker: submit the shard-unit
// job, long-poll its status (each request holds up to PollInterval and
// answers the moment the unit finishes; each answer renews the lease), fetch
// the artifact on completion and deliver it. Every failure path funnels into
// failLeaseLocked, which re-queues or fails the unit.
func (co *Coordinator) runLease(l *lease) {
	defer co.wg.Done()
	u := l.unit
	j := u.job
	if hook := co.cfg.OnDispatch; hook != nil {
		hook(j.id, u.shard, l.w.url)
	}
	co.events.Emit(obs.Event{
		Event: obs.EventUnitLeased, Trace: j.trace, Job: j.id,
		Experiment: j.experiment, Unit: unitName(u), Worker: l.w.url,
	})
	// The job's trace id rides the X-Trace-Id header of every unit dispatch,
	// so the worker's event log carries the same trace as the coordinator's.
	req := service.JobRequest{Experiment: j.experiment, Spec: j.specReq, TraceID: j.trace}
	if u.shard.Enabled() {
		req.Shard = u.shard.String()
	}
	st, err := l.w.sub.Submit(co.ctx, req)
	if err != nil {
		co.leaseFailed(l, fmt.Sprintf("submitting to %s: %v", l.w.url, err), err)
		return
	}
	co.mu.Lock()
	l.remote = st.ID
	l.expires = time.Now().Add(co.cfg.LeaseDuration)
	co.journalLeaseLocked(l)
	cancelled := l.cancelled
	co.mu.Unlock()

	for !cancelled {
		if st.State == service.StateDone {
			raw, err := l.w.sub.ReportArtifact(co.ctx, st.ID)
			if err != nil {
				co.leaseFailed(l, fmt.Sprintf("fetching artifact from %s: %v", l.w.url, err), err)
				return
			}
			co.deliver(l, raw)
			return
		}
		if st.State == service.StateFailed {
			// Worker-reported failure. It may be deterministic (a bad spec —
			// rare, the coordinator validates upfront) or transient (the
			// worker was shutting down and abandoned the job); both re-queue
			// until MaxAttempts, which bounds the deterministic case.
			co.mu.Lock()
			co.failLeaseLocked(l, fmt.Sprintf("worker %s: %s", l.w.url, st.Error))
			co.mu.Unlock()
			return
		}
		st, err = l.w.sub.JobWait(co.ctx, st.ID, co.cfg.PollInterval)
		if err != nil {
			if co.ctx.Err() != nil {
				return // shutdown abandons the lease; its journal record survives
			}
			co.leaseFailed(l, fmt.Sprintf("polling %s: %v", l.w.url, err), err)
			return
		}
		co.mu.Lock()
		if !l.cancelled {
			// The worker is answering: renew the lease.
			l.expires = time.Now().Add(co.cfg.LeaseDuration)
			co.met.leaseRenewals.Inc()
		}
		cancelled = l.cancelled
		co.mu.Unlock()
	}
}

// failLeaseLocked handles every way a lease ends without delivering: release
// the slot and, when this was the unit's last active lease, re-queue the unit
// (below MaxAttempts) or fail the job. A unit whose speculative duplicate is
// still running is left to that copy. Callers hold co.mu.
func (co *Coordinator) failLeaseLocked(l *lease, msg string) {
	if l.cancelled {
		return // already expired/superseded; the monitor handled the unit
	}
	co.releaseLocked(l)
	u := l.unit
	u.leases = dropLease(u.leases, l)
	j := u.job
	if u.finished || j.state == service.StateDone || j.state == service.StateFailed {
		return
	}
	if len(u.leases) > 0 {
		return // a speculative copy is still in flight
	}
	if u.attempts >= co.cfg.MaxAttempts {
		u.state = service.StateFailed
		co.events.Emit(obs.Event{
			Event: obs.EventUnitFailed, Trace: j.trace, Job: j.id,
			Experiment: j.experiment, Unit: unitName(u), Worker: l.w.url, Detail: msg,
		})
		co.completeLocked(j, service.StateFailed,
			fmt.Sprintf("unit %s failed after %d attempts: %s", unitName(u), u.attempts, msg), true)
		return
	}
	// Every path here — an expired lease, a dead worker, a transport error, a
	// worker-reported failure — ends in the same re-dispatch, counted once.
	co.met.expiredRe.Inc()
	co.events.Emit(obs.Event{
		Event: obs.EventUnitRedispatched, Trace: j.trace, Job: j.id,
		Experiment: j.experiment, Unit: unitName(u), Worker: l.w.url, Detail: msg,
	})
	log.Printf("federation: re-queueing %s unit %s (attempt %d): %s", j.id, unitName(u), u.attempts, msg)
	u.state = service.StateQueued
	co.enqueueLocked(u)
}

// unitName names a unit for logs and errors.
func unitName(u *funit) string {
	if u.shard.Enabled() {
		return u.shard.String()
	}
	return "0/1"
}

// dropLease removes one lease from a slice.
func dropLease(ls []*lease, l *lease) []*lease {
	out := ls[:0]
	for _, x := range ls {
		if x != l {
			out = append(out, x)
		}
	}
	return out
}

// leaseMonitor expires overdue leases and speculatively re-dispatches
// stragglers.
func (co *Coordinator) leaseMonitor() {
	defer co.wg.Done()
	period := co.cfg.LeaseDuration / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	if period > time.Second {
		period = time.Second
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-co.ctx.Done():
			return
		case <-tick.C:
		}
		co.monitorRound()
	}
}

func (co *Coordinator) monitorRound() {
	co.mu.Lock()
	defer co.mu.Unlock()
	now := time.Now()
	for _, j := range co.jobs {
		if j.state != service.StateRunning && j.state != service.StateQueued {
			continue
		}
		for _, u := range j.units {
			if u.finished {
				continue
			}
			// Expired leases: the worker stopped renewing (died, wedged, or
			// unreachable) — re-queue elsewhere.
			for _, l := range u.leases {
				if !l.cancelled && now.After(l.expires) {
					co.met.leaseExpiries.Inc()
					co.failLeaseLocked(l, fmt.Sprintf("lease on %s expired", l.w.url))
				}
			}
			// Stragglers: one active lease, runtime far beyond the fleet
			// mean — dispatch a speculative duplicate; first completion wins.
			if len(u.leases) == 1 && !u.queued && u.attempts < co.cfg.MaxAttempts {
				l := u.leases[0]
				threshold := co.cfg.StragglerMin
				if mean := time.Duration(co.cfg.StragglerFactor * co.meanUnitNs); mean > threshold {
					threshold = mean
				}
				if now.Sub(l.started) > threshold {
					co.met.speculative.Inc()
					co.events.Emit(obs.Event{
						Event: obs.EventSpeculative, Trace: j.trace, Job: j.id,
						Experiment: j.experiment, Unit: unitName(u), Worker: l.w.url,
						Detail: fmt.Sprintf("%.1fs > %.1fs threshold", now.Sub(l.started).Seconds(), threshold.Seconds()),
					})
					log.Printf("federation: %s unit %s is a straggler on %s (%.1fs > %.1fs); dispatching a duplicate",
						j.id, unitName(u), l.w.url, now.Sub(l.started).Seconds(), threshold.Seconds())
					co.enqueueLocked(u)
				}
			}
		}
	}
}

// deliver folds one completed unit's artifact into its job: the first copy
// wins, later duplicates are discarded (bit-exact by construction), shard
// partials are cached under their content address and merged incrementally,
// and the last unit finalises the job.
func (co *Coordinator) deliver(l *lease, raw []byte) {
	u := l.unit
	j := u.job
	var rep *experiments.Report
	if u.shard.Enabled() {
		var err error
		rep, err = decodePartial(raw)
		if err != nil {
			co.mu.Lock()
			co.failLeaseLocked(l, fmt.Sprintf("decoding partial from %s: %v", l.w.url, err))
			co.mu.Unlock()
			return
		}
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	dur := time.Since(l.started)
	if !l.cancelled {
		co.releaseLocked(l)
	}
	u.leases = dropLease(u.leases, l)
	if u.finished || j.state == service.StateDone || j.state == service.StateFailed {
		return // a duplicate (speculation or expiry re-dispatch) already delivered
	}
	if co.meanUnitNs == 0 {
		co.meanUnitNs = float64(dur)
	} else {
		co.meanUnitNs = 0.8*co.meanUnitNs + 0.2*float64(dur)
	}
	if l.w.meanUnitNs == 0 {
		l.w.meanUnitNs = float64(dur)
	} else {
		l.w.meanUnitNs = 0.8*l.w.meanUnitNs + 0.2*float64(dur)
	}
	co.met.unitDur.Observe(dur.Seconds())
	co.events.Emit(obs.Event{
		Event: obs.EventUnitFinished, Trace: j.trace, Job: j.id,
		Experiment: j.experiment, Unit: unitName(u), Worker: l.w.url,
		Detail: dur.Round(time.Millisecond).String(),
	})
	// Cancel any other outstanding copies of this unit; their pollers exit.
	for _, ol := range u.leases {
		co.releaseLocked(ol)
	}
	u.leases = nil
	if !u.shard.Enabled() {
		// Unsharded: the worker's complete artifact is proxied verbatim, so
		// the coordinator's bytes are the worker's bytes are the local run's.
		u.finished = true
		u.state = service.StateDone
		j.remaining--
		j.artifact = raw
		co.putCacheLocked(j.hash, raw)
		co.completeLocked(j, service.StateDone, "", true)
		return
	}
	co.putCacheLocked(experiments.ShardSpecHash(j.experiment, j.spec, u.shard), raw)
	if err := co.foldLocked(u, rep); err != nil {
		u.state = service.StateFailed
		co.completeLocked(j, service.StateFailed, err.Error(), true)
	}
}

// foldLocked merges one shard partial into its job, finalising the job when
// it was the last. Callers hold co.mu.
func (co *Coordinator) foldLocked(u *funit, rep *experiments.Report) error {
	j := u.job
	if err := j.merger.Add(rep); err != nil {
		return err
	}
	u.finished = true
	u.state = service.StateDone
	j.remaining--
	if j.remaining == 0 {
		co.finalizeLocked(j)
	}
	return nil
}

// finalizeLocked renders the merged artifact and completes the job. The
// merger's exact-path refold makes the bytes identical to a local
// `cmd/experiments run -o`. Callers hold co.mu.
func (co *Coordinator) finalizeLocked(j *fedJob) {
	rep, err := j.merger.Report()
	if err != nil {
		co.completeLocked(j, service.StateFailed, err.Error(), true)
		return
	}
	var buf bytes.Buffer
	if err := experiments.WriteArtifact(&buf, []*experiments.Report{rep}); err != nil {
		co.completeLocked(j, service.StateFailed, err.Error(), true)
		return
	}
	j.artifact = buf.Bytes()
	co.events.Emit(obs.Event{
		Event: obs.EventMerge, Trace: j.trace, Job: j.id, Experiment: j.experiment,
		Detail: fmt.Sprintf("%d shard partials", len(j.units)),
	})
	co.putCacheLocked(j.hash, j.artifact)
	co.completeLocked(j, service.StateDone, "", true)
}

// putCacheLocked stores one artifact, counting and logging (not failing) on
// error. Callers hold co.mu.
func (co *Coordinator) putCacheLocked(hash string, raw []byte) {
	if err := co.cache.Put(hash, raw); err != nil {
		co.met.cacheWriteErr.Inc()
		log.Printf("federation: artifact cache write failed (kept in memory): %v", err)
	}
}
