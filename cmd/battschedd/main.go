// Command battschedd is the experiment service daemon: a long-running HTTP
// server exposing the experiment registry as an asynchronous job API with
// server-side shard fan-out and a content-addressed report cache.
//
//	battschedd -addr :8344 -workers 2 -cache-dir /var/cache/battsched
//
// API (see internal/service):
//
//	POST /v1/jobs              submit {"experiment": ..., "spec": {...}, "shards": n}
//	GET  /v1/jobs/{id}         job state and per-shard progress (?wait=10s
//	                           holds until the job is terminal)
//	GET  /v1/jobs/{id}/report  the versioned JSON report artifact
//	                           (?format=table renders the plain-text tables;
//	                           ?wait= holds an unfinished job, then answers
//	                           the artifact, its failure, or 409)
//	GET  /v1/experiments       the experiment registry
//	GET  /v1/batteries         the battery model registry
//	GET  /healthz              queue depth, in-flight units, cache stats
//	GET  /metrics              Prometheus text exposition (same counters)
//
// Submitted specs are content-addressed by their canonical hash: a spec whose
// complete report artifact is already cached — computed by any earlier job,
// sharded or not, even before a restart when -cache-dir is set — is answered
// immediately with "cached": true. Fetched artifacts are byte-identical to
// the files the equivalent local `cmd/experiments run -o` writes.
//
// Concurrent submissions of one spec coalesce onto a single in-flight
// computation ("coalesced": true followers). With -cache-dir set, the
// directory holds the report cache's append-only pack (reports.pack, created
// by the first finished job), the job journal (journal.jsonl) and the event
// log (events.jsonl); run one daemon per directory. A restarted daemon
// resumes accepted-but-unfinished work under the original job IDs. A full
// queue answers 429 with a Retry-After estimate, and a job with more shards
// than -queue units is 400; SIGINT/SIGTERM drains gracefully: in-flight
// units finish (-drain-timeout bounds the wait), queued units stay journaled
// for the next start.
//
// Both modes are the same job front end (internal/service): they differ
// only in what runs the shard units. By default a local worker pool of
// -workers slots runs them. With -coordinator, battschedd runs nothing itself
// (see internal/federation): it keeps a registry of remote battschedd
// workers (-fleet, plus POST /v1/workers at runtime), heartbeats their
// /healthz and leases each queued unit to a worker with a free slot: it
// submits the unit, then long-polls its report, so a unit costs its worker
// two requests. Units whose leases expire (dead workers) are re-dispatched;
// a unit whose worker keeps answering finishes where it runs, and a slot
// stays counted until the copy on it ends. Admission, caching,
// coalescing, the journal, the -queue bound and drain behave the same in
// both modes, so `cmd/experiments submit` works unchanged against either.
//
// Both modes serve GET /metrics and, with -cache-dir, append structured
// span records to events.jsonl there; every submission's X-Trace-Id threads
// the logs fleet-wide. -debug-addr opens a second listener with
// net/http/pprof. See EXPERIMENTS.md ("Observability").
//
// `cmd/experiments submit` drives a daemon with the same flags as local
// `run`; see EXPERIMENTS.md ("Serving", "Federation") for walkthroughs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"battsched/internal/federation"
	"battsched/internal/profutil"
	"battsched/internal/service"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "battschedd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("battschedd", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8344", "HTTP listen address")
		workers      = fs.Int("workers", 2, "concurrent shard units (the worker-pool size)")
		queue        = fs.Int("queue", 64, "FIFO queue bound in shard units waiting to run")
		parallel     = fs.Int("parallel", 0, "job-grid worker count inside each unit's run (0: all cores)")
		cacheDir     = fs.String("cache-dir", "", "on-disk content-addressed report store and job journal (default: memory-only, no journal)")
		cacheEntries = fs.Int("cache-entries", 64, "in-memory report cache LRU size")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight units before cancelling them")
		// The journal is process-kill durable by default (records ride the OS
		// page cache). -journal-fsync adds power-loss durability by syncing
		// every record before the append returns, at ~180x the append cost:
		// an accept+done record pair measures ~4.5us unsynced vs ~820us
		// fsynced on the dev container's disk (BenchmarkAppend vs
		// BenchmarkAppendFsync in internal/service/journal).
		journalFsync = fs.Bool("journal-fsync", false, "fsync every journal record (power-loss durability; ~180x slower appends)")

		debugAddr   = fs.String("debug-addr", "", "optional second listener serving net/http/pprof under /debug/pprof/ (e.g. 127.0.0.1:6060); empty disables it")
		coordinator = fs.Bool("coordinator", false, "run as a federation coordinator dispatching to -fleet workers instead of executing locally")
		fleet       = fs.String("fleet", "", "comma-separated worker base URLs for -coordinator (e.g. http://h1:8344,http://h2:8344); more can register over POST /v1/workers")
		lease       = fs.Duration("lease", 15*time.Second, "coordinator: unit lease duration (renewed by every report poll that finds the unit still running; the coordinator long-polls each leased unit's report)")
		heartbeat   = fs.Duration("heartbeat", time.Second, "coordinator: worker /healthz probe interval")
		maxAttempts = fs.Int("max-attempts", 3, "coordinator: dispatch attempts per unit before the job fails")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if dln, err := profutil.DebugServer(*debugAddr); err != nil {
		return fmt.Errorf("debug listener: %w", err)
	} else if dln != nil {
		log.Printf("battschedd: pprof debug endpoints on http://%s/debug/pprof/", dln.Addr())
	}

	var daemon interface {
		Handler() http.Handler
		Shutdown(context.Context) error
		Close()
	}
	if *coordinator {
		var urls []string
		for _, u := range strings.Split(*fleet, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		co, err := federation.New(federation.Config{
			Workers:           urls,
			HeartbeatInterval: *heartbeat,
			LeaseDuration:     *lease,
			MaxAttempts:       *maxAttempts,
			CacheDir:          *cacheDir,
			CacheEntries:      *cacheEntries,
			JournalFsync:      *journalFsync,
			QueueCapacity:     *queue,
		})
		if err != nil {
			return err
		}
		daemon = co
	} else {
		srv, err := service.New(service.Config{
			Workers:       *workers,
			QueueCapacity: *queue,
			Parallel:      *parallel,
			CacheDir:      *cacheDir,
			CacheEntries:  *cacheEntries,
			JournalFsync:  *journalFsync,
		})
		if err != nil {
			return err
		}
		daemon = srv
	}
	defer daemon.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return serve(ctx, daemon, ln, *drainTimeout)
}

// daemon is the common surface of the worker server and the federation
// coordinator that serve() drives.
type daemon interface {
	Handler() http.Handler
	Shutdown(context.Context) error
}

// serve runs the HTTP server on ln until ctx is cancelled, then shuts down
// gracefully: the daemon first drains (admissions answer 503, /healthz turns
// "draining", in-flight work gets drainTimeout to finish, pending jobs stay
// journaled for the next start), then the HTTP server closes. Split from run
// so tests can drive it on an ephemeral port.
func serve(ctx context.Context, d daemon, ln net.Listener, drainTimeout time.Duration) error {
	hs := &http.Server{Handler: d.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	log.Printf("battschedd: serving on %s", ln.Addr())

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	log.Printf("battschedd: draining (up to %s for in-flight work)", drainTimeout)
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), drainTimeout)
	defer cancelDrain()
	if err := d.Shutdown(drainCtx); err != nil {
		log.Printf("battschedd: drain: %v", err)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-errCh; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
