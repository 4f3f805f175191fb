package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"battsched/internal/experiments"
	"battsched/internal/federation"
	"battsched/internal/obs"
	"battsched/internal/service"
	"battsched/internal/service/client"
)

const (
	// clients is the number of closed-loop clients, each with its own
	// keep-alive connection, and also the number of compute slots: two
	// daemon workers, or two one-worker daemons behind the coordinator.
	clients = 2
	// pollEvery is the client.Wait status poll interval.
	pollEvery = 2 * time.Millisecond
	// warmupSlot is the first seed slot of the warm-up jobs, so that they
	// never share a spec with a timed job.
	warmupSlot = 900_000
)

// jobRequest returns the served job in the given slot of a workload seed:
// quick Table 2 on the KiBaM battery, fanned out over two shards. Every slot
// has its own spec seed, so no two jobs share a spec.
func jobRequest(seed int64, slot int) service.JobRequest {
	return service.JobRequest{
		Experiment: "table2",
		Spec:       service.SpecRequest{Quick: true, Battery: "kibam", Seed: seed*1_000_000 + int64(slot) + 1},
		Shards:     2,
	}
}

func jobRequests(seed int64, slot, n int) []service.JobRequest {
	reqs := make([]service.JobRequest, n)
	for i := range reqs {
		reqs[i] = jobRequest(seed, slot+i)
	}
	return reqs
}

// stack is one served system under test behind loopback HTTP: a daemon, or a
// coordinator fronting two one-worker daemons.
type stack struct {
	url     string
	dirs    []string // cache dirs holding events.jsonl; dirs[0] is the front end's
	fleet   bool
	closers []func()
}

func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

// startStack starts a daemon {Workers: 2, Parallel: 1}, or a coordinator
// {PollInterval: 10ms, HeartbeatInterval: 200ms} in front of two workers
// {Workers: 1, Parallel: 1}, each with its own cache dir under dir (disk
// cache, journal and event log on), and waits until it is ready: the daemon
// healthy, or the coordinator seeing both workers live. tr, when non-nil,
// wraps every handler.
func startStack(ctx context.Context, fleet bool, dir string, tr *httpTrace) (*stack, error) {
	st := &stack{fleet: fleet}
	serve := func(role string, cfg service.Config) (string, error) {
		srv, err := service.New(cfg)
		if err != nil {
			return "", err
		}
		ts := httptest.NewServer(tr.wrap(role, srv.Handler()))
		st.closers = append(st.closers, srv.Close, ts.Close)
		st.dirs = append(st.dirs, cfg.CacheDir)
		return ts.URL, nil
	}
	if !fleet {
		url, err := serve("front", service.Config{Workers: clients, Parallel: 1, CacheDir: filepath.Join(dir, "daemon")})
		if err != nil {
			return nil, err
		}
		st.url = url
	} else {
		var urls []string
		for i := range clients {
			url, err := serve("worker", service.Config{Workers: 1, Parallel: 1, CacheDir: filepath.Join(dir, fmt.Sprintf("worker%d", i))})
			if err != nil {
				st.close()
				return nil, err
			}
			urls = append(urls, url)
		}
		coDir := filepath.Join(dir, "coordinator")
		co, err := federation.New(federation.Config{
			Workers:           urls,
			PollInterval:      10 * time.Millisecond,
			HeartbeatInterval: 200 * time.Millisecond,
			CacheDir:          coDir,
		})
		if err != nil {
			st.close()
			return nil, err
		}
		ts := httptest.NewServer(tr.wrap("front", co.Handler()))
		st.closers = append(st.closers, co.Close, ts.Close)
		st.dirs = append([]string{coDir}, st.dirs...)
		st.url = ts.URL
	}
	probe := client.New(st.url)
	deadline := time.Now().Add(10 * time.Second)
	for {
		h, err := probe.Health(ctx)
		if err == nil && h.Status == "ok" && (!fleet || (h.Fleet != nil && h.Fleet.LiveWorkers == clients)) {
			return st, nil
		}
		if time.Now().After(deadline) {
			st.close()
			return nil, fmt.Errorf("stack at %s not ready after 10s (last health %+v, err %v)", st.url, h, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// jobRun is one closed-loop job as its client saw it.
type jobRun struct {
	trace     string
	submit    time.Time // request sent
	submitted time.Time // submit response received
	done      time.Time // client saw the job done
	fetched   time.Time // artifact received
	polls     int
	err       error
}

func (r *jobRun) latency() time.Duration { return r.fetched.Sub(r.submit) }

// phase is one closed-loop pass over a job list.
type phase struct {
	runs    []jobRun
	wall    time.Duration
	busy    time.Duration // summed over clients: phase start until the client's last job ended
	retries int           // 429/503 rejections absorbed by client retries
	// The phase's wall time and each job's latency in reference-host seconds
	// (set by served.timed).
	hostWall float64
	hostLat  []float64
}

// drive runs reqs through clients closed-loop clients: each submits a job,
// waits for it (client.Wait), fetches its artifact and only then submits its
// next job. check sees every fetched artifact; its error fails the job. Each
// job carries the trace id tag-index.
func drive(ctx context.Context, url, tag string, reqs []service.JobRequest, check func(i int, art []byte) error) phase {
	ph := phase{runs: make([]jobRun, len(reqs))}
	start := time.Now()
	var next, retries atomic.Int64
	var wg sync.WaitGroup
	ends := make([]time.Time, clients)
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { ends[c] = time.Now() }()
			cl := client.New(url)
			cl.MaxRetries = 8
			cl.RetryBaseDelay = 10 * time.Millisecond
			cl.OnRetry = func(int, int, time.Duration) { retries.Add(1) }
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				r := &ph.runs[i]
				req := reqs[i]
				req.TraceID = fmt.Sprintf("%s-%06d", tag, i)
				r.trace = req.TraceID
				r.submit = time.Now()
				st, err := cl.Submit(ctx, req)
				r.submitted = time.Now()
				if err == nil && st.State != service.StateDone && st.State != service.StateFailed {
					st, err = cl.Wait(ctx, st.ID, pollEvery, func(service.JobStatus) { r.polls++ })
				}
				r.done = time.Now()
				if err == nil && st.State != service.StateDone {
					err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
				}
				var art []byte
				if err == nil {
					art, err = cl.ReportArtifact(ctx, st.ID)
				}
				r.fetched = time.Now()
				if err == nil {
					err = check(i, art)
				}
				r.err = err
			}
		}()
	}
	wg.Wait()
	ph.wall = time.Since(start)
	for _, end := range ends {
		ph.busy += end.Sub(start)
	}
	ph.retries = int(retries.Load())
	return ph
}

// served is one served workload: its generated jobs and what it checks.
type served struct {
	rec         *record
	fleet       bool
	segments    int // closed-loop passes the timed jobs are cut into
	verifyEvery int
	warmup      []service.JobRequest // set-up jobs
	ops         []service.JobRequest // the timed jobs
	kept        [][]byte             // artifacts of every verifyEvery-th timed job
}

// runServed is serve-cold or fleet-cold.
func runServed(ctx context.Context, rec *record, dir string, sz sizes, fleet bool) error {
	n := sz.coldJobs
	switch {
	case rec.Trace:
		n = sz.tracedJobs
	case fleet:
		n = sz.fleetJobs
	}
	s := &served{
		rec: rec, fleet: fleet, segments: sz.pieces, verifyEvery: sz.verifyEvery,
		warmup: jobRequests(rec.Seed, warmupSlot, sz.warmup),
		ops:    jobRequests(rec.Seed, 0, n),
	}
	hc, err := newHostClock()
	if err != nil {
		return err
	}
	defer hc.close()
	if rec.Trace {
		return s.traced(ctx, dir, hc)
	}
	setups := make([]float64, sz.setups)
	var st *stack
	for i := range setups {
		if st != nil {
			st.close()
		}
		start := time.Now()
		if st, err = s.setup(ctx, filepath.Join(dir, fmt.Sprintf("setup%d", i)), nil); err != nil {
			return err
		}
		setups[i] = hc.scale(time.Since(start))
	}
	if err := resetPeakRSS(); err != nil {
		st.close()
		return err
	}
	before := obs.Sim.Snapshot()
	ph := s.timed(ctx, st, hc)
	rec.Work = obs.Sim.Snapshot().Sub(before)
	rss, err := peakRSSMB()
	st.close()
	if err != nil {
		return err
	}
	if _, err := s.verify(ctx, ph); err != nil {
		return err
	}

	sets := float64(len(ph.runs) * experiments.QuickTable2Config().Sets)
	m := rec.Metrics
	setJobTimes(m, sets, ph.hostWall, ph.hostLat)
	m.set("setup_s", median(setups), "s")
	m.set("peak_rss_mb", rss, "MiB")
	m.set("host.probe_ms", hc.probeMs(), "ms")
	m.set("service.retries_429", float64(ph.retries), "count")
	return nil
}

// setup starts a stack in dir and runs the warm-up jobs through it.
func (s *served) setup(ctx context.Context, dir string, tr *httpTrace) (*stack, error) {
	st, err := startStack(ctx, s.fleet, dir, tr)
	if err != nil {
		return nil, err
	}
	ph := drive(ctx, st.url, "setup", s.warmup, func(i int, art []byte) error {
		if len(art) == 0 {
			return errors.New("empty artifact")
		}
		return nil
	})
	for _, r := range ph.runs {
		if r.err != nil {
			st.close()
			return nil, fmt.Errorf("set-up job %s: %w", r.trace, r.err)
		}
	}
	return st, nil
}

// timed runs the timed jobs in s.segments closed-loop passes over
// consecutive jobs. After each pass, with every job of it done, hc reads the
// host probe and converts the pass's times into reference-host seconds.
// Every served artifact must be non-empty; every verifyEvery-th is kept for
// verify.
func (s *served) timed(ctx context.Context, st *stack, hc *hostClock) phase {
	s.kept = make([][]byte, len(s.ops))
	var ph phase
	for k := range s.segments {
		lo, hi := k*len(s.ops)/s.segments, (k+1)*len(s.ops)/s.segments
		if lo == hi {
			continue
		}
		seg := drive(ctx, st.url, fmt.Sprintf("job%d", k), s.ops[lo:hi], func(i int, art []byte) error {
			if len(art) == 0 {
				return errors.New("empty artifact")
			}
			if (lo+i)%s.verifyEvery == 0 {
				s.kept[lo+i] = art
			}
			return nil
		})
		toHost := hc.scale(seg.wall) / seg.wall.Seconds()
		for _, r := range seg.runs {
			ph.hostLat = append(ph.hostLat, r.latency().Seconds()*toHost)
		}
		ph.runs = append(ph.runs, seg.runs...)
		ph.wall += seg.wall
		ph.hostWall += seg.wall.Seconds() * toHost
		ph.busy += seg.busy
		ph.retries += seg.retries
	}
	return ph
}

// localRun is one unsharded reference run of a served spec.
type localRun struct {
	spec experiments.Spec
	rep  *experiments.Report
}

// verify counts the phase's failed jobs and byte-compares the artifact of
// every verifyEvery-th job against experiments.Run + WriteArtifact of the
// unsharded spec. It returns the reference runs.
func (s *served) verify(ctx context.Context, ph phase) ([]localRun, error) {
	s.countFailures(ph)
	var reqs []service.JobRequest
	var arts [][]byte
	for i, art := range s.kept {
		if art != nil && ph.runs[i].err == nil {
			reqs, arts = append(reqs, s.ops[i]), append(arts, art)
		}
	}
	local := make([]localRun, len(reqs))
	for i, req := range reqs {
		spec := req.Spec.Spec()
		spec.Parallel = 1
		rep, err := experiments.Run(ctx, req.Experiment, spec)
		if err != nil {
			return nil, fmt.Errorf("local reference run of seed %d: %w", spec.Seed, err)
		}
		art, err := encodeArtifact(rep)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(art, arts[i]) {
			s.rec.failf("served artifact of seed %d differs from the local run", spec.Seed)
		}
		local[i] = localRun{spec: spec, rep: rep}
	}
	return local, nil
}

// countFailures adds the phase's jobs to the attempted count and fails every
// job that errored, ended failed, or served a wrong artifact.
func (s *served) countFailures(ph phase) {
	s.rec.Attempted += len(ph.runs)
	for _, r := range ph.runs {
		if r.err != nil {
			s.rec.failf("job %s: %v", r.trace, r.err)
		}
	}
}

// traced is the traced run of a served workload. The timed jobs run twice,
// each time on a fresh stack: untraced, then with every handler wrapped by
// an httpTrace and /metrics scraped after. The traced pass's job critical
// paths come from joining the stack's events.jsonl by the trace id drive
// stamps on each job; the compute split comes from the replica re-executing
// the verified specs.
func (s *served) traced(ctx context.Context, dir string, hc *hostClock) error {
	plain, err := s.setup(ctx, filepath.Join(dir, "plain"), nil)
	if err != nil {
		return err
	}
	base := s.timed(ctx, plain, hc)
	plain.close()
	s.countFailures(base)

	tr := &httpTrace{}
	st, err := s.setup(ctx, filepath.Join(dir, "traced"), tr)
	if err != nil {
		return err
	}
	tr.on.Store(true)
	before := obs.Sim.Snapshot()
	ph := s.timed(ctx, st, hc)
	s.rec.Work = obs.Sim.Snapshot().Sub(before)
	tr.on.Store(false)
	scraped, err := scrape(ctx, st.url)
	st.close()
	if err != nil {
		return err
	}
	local, err := s.verify(ctx, ph)
	if err != nil {
		return err
	}
	ev, err := readStackEvents(st)
	if err != nil {
		return err
	}
	m := s.rec.Metrics
	setPath(m, ph, base, ev, tr, scraped, s.fleet)

	var lt layerTimes
	before = obs.Sim.Snapshot()
	reps := make([]*experiments.Report, len(local))
	for i, l := range local {
		cfg := table2Config(l.spec)
		cells, err := replicaTable2(cfg, cfg.Sets, &lt)
		if err != nil {
			return fmt.Errorf("replica of seed %d: %w", l.spec.Seed, err)
		}
		checkReplica(s.rec, l.rep, cells)
		reps[i] = l.rep
	}
	setComputeLayers(m, lt, obs.Sim.Snapshot().Sub(before))
	return setEncode(m, reps...)
}
