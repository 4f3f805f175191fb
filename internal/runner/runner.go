// Package runner is the generic job-grid harness behind the parallel
// experiment drivers: every experiment of internal/experiments enumerates its
// (set × scheme × sweep-point) grid as a flat list of independent jobs, and
// RunStream executes those jobs on a bounded worker pool.
//
// Determinism is the central contract. Each job derives its own random stream
// from the experiment seed and the job's grid coordinates (SeedFor, a
// SplitMix64-style mixer), never from shared generator state, so the value a
// job computes is independent of scheduling. RunStream delivers results in
// job order, and callers fold them in that order; together these make every
// experiment byte-identical at any worker count.
//
// RunStream hands each result to a callback in strictly increasing job order
// as soon as it (and every lower-indexed job) completes, with memory bounded
// by a small reorder window instead of the whole grid. Experiment drivers
// fold streamed rows into accumulators, which is what lets sweeps grow to
// sizes whose full result grid would not fit in memory. Run is RunStream
// storing each result in its slot of a slice.
package runner

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
)

// Options tune one Run or RunStream call.
type Options struct {
	// Parallelism is the worker-pool size; values <= 0 select
	// runtime.GOMAXPROCS(0).
	Parallelism int
	// Progress, when non-nil, is called after each job completes with the
	// number of completed jobs and the total. Calls are serialised, but they
	// happen on worker goroutines and delay job completion, so the callback
	// must be fast.
	Progress func(done, total int)
}

// Workers resolves the effective worker count for n jobs.
func (o Options) Workers(n int) int {
	w := o.Parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// PanicError reports a job that panicked; the worker pool converts panics
// into errors so one bad job cannot take down the whole sweep unannounced.
type PanicError struct {
	// Job is the flat index of the panicking job.
	Job int
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

// Error implements the error interface.
func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: job %d panicked: %v\n%s", e.Job, e.Value, e.Stack)
}

// errTracker keeps the lowest-index root-cause error of a sweep: the lowest
// job index wins, but a context error (a job honouring the cancellation the
// pool itself triggered) never displaces a real error. Callers must hold
// their pool mutex around record.
type errTracker struct {
	err error
	idx int
}

func (t *errTracker) record(i int, err error) {
	ctxErr := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	firstCtxErr := errors.Is(t.err, context.Canceled) || errors.Is(t.err, context.DeadlineExceeded)
	switch {
	case t.err == nil,
		firstCtxErr && !ctxErr,
		firstCtxErr == ctxErr && i < t.idx:
		t.err, t.idx = err, i
	}
}

// runJob invokes one job, converting panics into *PanicError.
func runJob[T any](ctx context.Context, i int, job func(ctx context.Context, i int) (T, error)) (t T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Job: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return job(ctx, i)
}

// Run executes jobs 0..n-1 and returns their results in job-index order. It
// is RunStream with an emit that stores each result in its slot, so errors,
// panics, cancellation and the reorder window behave as in RunStream. Sweeps
// that fold results as they arrive should call RunStream instead, which does
// not materialise the result grid.
func Run[T any](ctx context.Context, n int, opts Options, job func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("runner: negative job count %d", n)
	}
	results := make([]T, n)
	err := RunStream(ctx, n, opts, job, func(i int, t T) error {
		results[i] = t
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// RunStream executes jobs 0..n-1 on a bounded worker pool and delivers each
// result to emit in strictly increasing job order, as soon as the job and
// every lower-indexed job have completed. emit always runs on the goroutine
// that called RunStream, so callers fold results into local state without
// locking; because delivery order is deterministic, folds are byte-identical
// at any worker count.
//
// RunStream does not materialise the grid: at most a small reorder window of
// results (proportional to the worker count) is buffered while an earlier job
// is still running; workers stall rather than run further ahead. The first
// job error (lowest job index among the errors observed) cancels the
// remaining jobs and is returned, and an error returned by emit aborts the
// sweep like a job error at that index; a cancelled or timed-out ctx aborts
// the sweep with ctx's error. Panics inside jobs are captured as *PanicError.
func RunStream[T any](ctx context.Context, n int, opts Options, job func(ctx context.Context, i int) (T, error), emit func(i int, t T) error) error {
	if n < 0 {
		return fmt.Errorf("runner: negative job count %d", n)
	}
	if n == 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	workers := opts.Workers(n)
	// The reorder window bounds how far completed jobs may run ahead of the
	// next undelivered one, and hence how many results are buffered.
	window := 2 * workers
	if window < 2 {
		window = 2
	}

	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		cond    = sync.NewCond(&mu)
		pending = make(map[int]T, window)
		next    int // next job index to emit (written only by this goroutine)
		done    int
		aborted bool
		tr      errTracker
	)
	fail := func(i int, err error) {
		mu.Lock()
		tr.record(i, err)
		aborted = true
		mu.Unlock()
		cond.Broadcast()
		cancel()
	}

	// Wake the emit loop when the (possibly external) context is cancelled:
	// jobs skipped by draining workers would otherwise never arrive.
	watchDone := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			mu.Lock()
			aborted = true
			mu.Unlock()
			cond.Broadcast()
		case <-watchDone:
		}
	}()
	defer close(watchDone)

	jobs := make(chan int)
	for w := workers; w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if ctx.Err() != nil {
					continue // drain: the sweep is already aborting
				}
				t, err := runJob(ctx, i, job)
				if err != nil {
					fail(i, err)
					continue
				}
				mu.Lock()
				pending[i] = t
				done++
				if opts.Progress != nil {
					opts.Progress(done, n)
				}
				mu.Unlock()
				cond.Broadcast()
			}
		}()
	}

	// Feeder: hands out job indices, never running the pool more than the
	// reorder window ahead of the next undelivered result.
	go func() {
		defer close(jobs)
		for i := 0; i < n; i++ {
			mu.Lock()
			for i >= next+window && !aborted {
				cond.Wait()
			}
			stop := aborted
			mu.Unlock()
			if stop {
				return
			}
			select {
			case jobs <- i:
			case <-ctx.Done():
				return
			}
		}
	}()

	// Emit loop (on the caller's goroutine): deliver results in job order.
	// ctx is consulted directly (not only through the watcher goroutine's
	// aborted flag) so a cancellation triggered from inside emit is observed
	// before the next delivery: no callback ever fires after ctx is
	// cancelled, even for results already buffered in the reorder window.
	for next < n {
		var t T
		mu.Lock()
		for {
			if aborted || ctx.Err() != nil {
				mu.Unlock()
				goto drained
			}
			if v, ok := pending[next]; ok {
				delete(pending, next)
				t = v
				break
			}
			cond.Wait()
		}
		i := next
		mu.Unlock()
		if err := emit(i, t); err != nil {
			fail(i, err)
			break
		}
		mu.Lock()
		next++
		mu.Unlock()
		cond.Broadcast()
	}
drained:
	wg.Wait()
	if tr.err != nil {
		return tr.err
	}
	return ctx.Err()
}

// splitmix64 is the output mixer of the SplitMix64 generator (Steele et al.,
// "Fast splittable pseudorandom number generators").
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// SeedFor derives a well-mixed deterministic seed for the job at the given
// grid coordinates from a base experiment seed. Nearby coordinates yield
// statistically independent seeds, so experiments may use raw loop indices or
// semantic values (task count, set number) as coordinates.
func SeedFor(base int64, coords ...int64) int64 {
	h := splitmix64(uint64(base))
	for _, c := range coords {
		// Rehash the chaining value before folding in the coordinate so the
		// combination is not commutative (base and coordinates must not be
		// interchangeable).
		h = splitmix64(splitmix64(h) ^ uint64(c))
	}
	return int64(h)
}

// RNG returns a fresh generator seeded with SeedFor(base, coords...). Each
// job must own its generator; sharing one across jobs reintroduces
// schedule-dependent results.
func RNG(base int64, coords ...int64) *rand.Rand {
	return rand.New(rand.NewSource(SeedFor(base, coords...)))
}
