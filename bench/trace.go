package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"battsched/internal/obs"
)

// httpTrace times and counts every request the wrapped handlers serve while
// it is on. A nil *httpTrace wraps nothing.
type httpTrace struct {
	on  atomic.Bool
	mu  sync.Mutex
	dur map[string][]time.Duration // "role route" -> handler durations
}

// wrap returns h timed under role ("front" for the endpoint clients talk to,
// "worker" for the daemons behind a coordinator).
func (t *httpTrace) wrap(role string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(start)
		key := role + " " + route(r)
		t.mu.Lock()
		if t.dur == nil {
			t.dur = make(map[string][]time.Duration)
		}
		t.dur[key] = append(t.dur[key], d)
		t.mu.Unlock()
	})
}

// durations returns the recorded handler durations of role and route.
func (t *httpTrace) durations(role, route string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dur[role+" "+route]
}

// route classifies a request of the /v1 API.
func route(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/jobs":
		return "submit"
	case strings.HasPrefix(p, "/v1/jobs/") && strings.HasSuffix(p, "/report"):
		return "report"
	case strings.HasPrefix(p, "/v1/jobs/"):
		return "status"
	default:
		return strings.TrimPrefix(p, "/")
	}
}

// scrape fetches and parses the Prometheus text at url/metrics.
func scrape(ctx context.Context, url string) ([]obs.Sample, error) {
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: HTTP %d", resp.StatusCode)
	}
	return obs.ParseText(text)
}

// sampleValue returns the named series' value, 0 when absent.
func sampleValue(samples []obs.Sample, name string) float64 {
	s, _ := obs.Find(samples, name)
	return s.Value
}

// unitEvents are the event times of one shard unit of a job.
type unitEvents struct {
	leased, delivered         time.Time // coordinator: unit_leased (last), unit_finished
	leases                    int       // coordinator dispatches of the unit
	queued, started, finished time.Time // executing daemon: unit_queued, unit_started, unit_finished
}

// jobEvents are the event times of one job, joined across the stack's logs.
type jobEvents struct {
	done  time.Time // the front end's job_done
	units map[string]*unitEvents
}

// readStackEvents joins the events.jsonl records of every daemon of a closed
// stack by trace id. The front end contributes the job's admission and
// completion (and, on a coordinator, each unit's dispatch and delivery); the
// executing daemons contribute each unit's queueing and execution.
func readStackEvents(st *stack) (map[string]*jobEvents, error) {
	jobs := make(map[string]*jobEvents)
	for di, dir := range st.dirs {
		evs, err := obs.ReadEvents(filepath.Join(dir, "events.jsonl"), "")
		if err != nil {
			return nil, err
		}
		front, executes := di == 0, !st.fleet || di > 0
		for _, e := range evs {
			if e.Trace == "" {
				continue
			}
			j := jobs[e.Trace]
			if j == nil {
				j = &jobEvents{units: make(map[string]*unitEvents)}
				jobs[e.Trace] = j
			}
			unit := func() *unitEvents {
				u := j.units[e.Unit]
				if u == nil {
					u = &unitEvents{}
					j.units[e.Unit] = u
				}
				return u
			}
			switch {
			case front && e.Event == obs.EventJobDone:
				j.done = e.Time
			case front && st.fleet && e.Event == obs.EventUnitLeased:
				unit().leased = e.Time
				unit().leases++
			case front && st.fleet && e.Event == obs.EventUnitFinished:
				unit().delivered = e.Time
			case executes && e.Event == obs.EventUnitQueued:
				unit().queued = e.Time
			case executes && e.Event == obs.EventUnitStarted:
				unit().started = e.Time
			case executes && e.Event == obs.EventUnitFinished:
				unit().finished = e.Time
			}
		}
	}
	return jobs, nil
}

// pathSegments are the consecutive segments a job's submit-to-fetch interval
// is tiled into, with the detail metric (milliseconds) and the per-layer
// share each reports.
var pathSegments = [...]struct{ ms, share string }{
	{"http.submit_ms", "http.submit_share"},               // submit round trip
	{"service.queue_wait_ms", "service.queue_wait_share"}, // until the last-finishing unit starts
	{"service.unit_ms", "service.unit_share"},             // that unit's execution
	{"service.finalize_ms", "service.finalize_share"},     // its unit_finished until job_done
	{"client.notify_lag_ms", "client.notify_share"},       // job_done until the client sees done
	{"http.report_ms", "http.report_share"},               // artifact fetch
}

// tile splits one job's submit-to-fetch interval at the boundaries of
// pathSegments. A boundary earlier than the previous one (a unit that started
// before the submit response arrived) ends an empty segment, so the segments
// always sum to the job's latency. ok is false when the job's events are
// missing from the logs.
func tile(r *jobRun, j *jobEvents) (seg [len(pathSegments)]time.Duration, ok bool) {
	if j == nil || j.done.IsZero() {
		return seg, false
	}
	var last *unitEvents
	for _, u := range j.units {
		if !u.finished.IsZero() && (last == nil || u.finished.After(last.finished)) {
			last = u
		}
	}
	if last == nil || last.started.IsZero() {
		return seg, false
	}
	bounds := [len(pathSegments)]time.Time{r.submitted, last.started, last.finished, j.done, r.done, r.fetched}
	prev := r.submit
	for k, b := range bounds {
		if b.After(prev) {
			seg[k] = b.Sub(prev)
			prev = b
		}
	}
	return seg, true
}

// setPath reports the served path of a traced phase: the job latency shares
// and millisecond percentiles of each path segment, the HTTP, client,
// service and federation counters, and the two trace checks. Coverage is the
// segments' sum over the clients' busy time, so it also exposes time a
// client spent between jobs.
func setPath(m metrics, ph, base phase, ev map[string]*jobEvents, tr *httpTrace, scraped []obs.Sample, fleet bool) {
	var sums [len(pathSegments)]float64
	var segMs [len(pathSegments)][]float64
	total, covered, polls := 0.0, 0.0, 0
	joined := 0
	for i := range ph.runs {
		r := &ph.runs[i]
		total += r.latency().Seconds()
		polls += r.polls
		seg, ok := tile(r, ev[r.trace])
		if !ok {
			continue
		}
		joined++
		for k, d := range seg {
			sums[k] += d.Seconds()
			covered += d.Seconds()
			segMs[k] = append(segMs[k], d.Seconds()*1e3)
		}
	}
	for k, s := range pathSegments {
		m.set(s.share, ratio(sums[k], total), "frac")
		m.set(s.ms+".p50", median(segMs[k]), "ms")
		m.set(s.ms+".p99", percentile(segMs[k], 0.99), "ms")
	}
	m.set("trace.jobs_joined", float64(joined), "count")
	m.set("trace.coverage", ratio(covered, ph.busy.Seconds()), "frac")
	m.set("trace.overhead_frac", ph.hostWall/base.hostWall-1, "frac")

	// Server-side handler times; against the client round trips above they
	// separate the daemon's own work from waiting for a CPU or the network.
	for rt, name := range map[string]string{
		"submit": "http.submit_handler_us.p50",
		"status": "http.status_us.p50",
		"report": "http.report_handler_us.p50",
	} {
		var us []float64
		for _, d := range tr.durations("front", rt) {
			us = append(us, d.Seconds()*1e6)
		}
		m.set(name, median(us), "us")
	}
	m.set("client.polls_per_job", ratio(float64(polls), float64(len(ph.runs))), "count")
	m.set("service.retries_429", float64(ph.retries), "count")
	m.set("service.queue_depth_peak", sampleValue(scraped, "battsched_queue_depth_peak"), "count")
	if !fleet {
		return
	}

	var dispatch, lag, finalize []float64
	leases, delivered := 0, 0
	for i := range ph.runs {
		j := ev[ph.runs[i].trace]
		if j == nil {
			continue
		}
		var lastDelivery time.Time
		for _, u := range j.units {
			leases += u.leases
			if !u.leased.IsZero() && !u.queued.IsZero() {
				dispatch = append(dispatch, u.queued.Sub(u.leased).Seconds()*1e3)
			}
			if u.delivered.IsZero() {
				continue
			}
			delivered++
			if !u.finished.IsZero() {
				lag = append(lag, u.delivered.Sub(u.finished).Seconds()*1e3)
			}
			if u.delivered.After(lastDelivery) {
				lastDelivery = u.delivered
			}
		}
		if !lastDelivery.IsZero() && !j.done.IsZero() {
			finalize = append(finalize, j.done.Sub(lastDelivery).Seconds()*1e3)
		}
	}
	workerRequests := 0
	for _, rt := range []string{"submit", "status", "report"} {
		workerRequests += len(tr.durations("worker", rt))
	}
	m.set("federation.dispatch_ms.p50", median(dispatch), "ms")
	m.set("federation.deliver_lag_ms.p50", median(lag), "ms")
	m.set("federation.deliver_lag_ms.p99", percentile(lag, 0.99), "ms")
	m.set("federation.finalize_ms.p50", median(finalize), "ms")
	m.set("federation.worker_requests_per_unit", ratio(float64(workerRequests), float64(leases)), "count")
	m.set("federation.useful_dispatch_frac", ratio(float64(delivered), float64(leases)), "frac")
}
