package runner

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		got, err := Run(context.Background(), 37, Options{Parallelism: workers}, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 37 {
			t.Fatalf("workers=%d: len = %d", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestRunZeroJobs(t *testing.T) {
	got, err := Run(context.Background(), 0, Options{}, func(_ context.Context, i int) (int, error) {
		t.Fatal("job called")
		return 0, nil
	})
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
	if _, err := Run(context.Background(), -1, Options{}, func(_ context.Context, i int) (int, error) { return 0, nil }); err == nil {
		t.Fatal("negative job count accepted")
	}
}

// TestRunDeterministicAcrossWorkerCounts is the runner's core contract: a job
// function that derives all randomness from its own index produces identical
// results at any parallelism.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	job := func(_ context.Context, i int) (float64, error) {
		rng := RNG(42, int64(i))
		s := 0.0
		for k := 0; k < 100; k++ {
			s += rng.Float64()
		}
		return s, nil
	}
	base, err := Run(context.Background(), 64, Options{Parallelism: 1}, job)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16} {
		got, err := Run(context.Background(), 64, Options{Parallelism: workers}, job)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("workers=%d: results differ from sequential run", workers)
		}
	}
}

func TestRunErrorCancelsRemaining(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	_, err := Run(context.Background(), 1000, Options{Parallelism: 4}, func(ctx context.Context, i int) (int, error) {
		ran.Add(1)
		if i == 3 {
			return 0, fmt.Errorf("job %d: %w", i, boom)
		}
		// Give cancellation time to win the race against the remaining
		// near-instant jobs; without this the pool can legitimately drain
		// all 1000 before the error propagates.
		time.Sleep(time.Millisecond)
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if n := ran.Load(); n == 1000 {
		t.Fatal("error did not cancel remaining jobs")
	}
}

func TestRunPanicCapture(t *testing.T) {
	_, err := Run(context.Background(), 8, Options{Parallelism: 2}, func(_ context.Context, i int) (int, error) {
		if i == 5 {
			panic("kaboom")
		}
		return i, nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Job != 5 || pe.Value != "kaboom" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError = %+v", pe)
	}
	if !strings.Contains(pe.Error(), "kaboom") {
		t.Fatalf("Error() = %q", pe.Error())
	}
}

func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	_, err := Run(ctx, 1000, Options{Parallelism: 2}, func(ctx context.Context, i int) (int, error) {
		if started.Add(1) == 4 {
			cancel()
		}
		select {
		case <-ctx.Done():
		case <-time.After(10 * time.Millisecond):
		}
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if n := started.Load(); n == 1000 {
		t.Fatal("cancellation did not stop the feed")
	}
	// An already-cancelled context must not run any job.
	ran := false
	if _, err := Run(ctx, 10, Options{}, func(_ context.Context, i int) (int, error) {
		ran = true
		return i, nil
	}); !errors.Is(err, context.Canceled) || ran {
		t.Fatalf("pre-cancelled ctx: err = %v ran = %v", err, ran)
	}
}

func TestRunProgress(t *testing.T) {
	var calls []int
	_, err := Run(context.Background(), 20, Options{Parallelism: 4, Progress: func(done, total int) {
		if total != 20 {
			t.Errorf("total = %d", total)
		}
		calls = append(calls, done)
	}}, func(_ context.Context, i int) (int, error) { return i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 20 {
		t.Fatalf("progress calls = %d, want 20", len(calls))
	}
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("progress out of order: %v", calls)
		}
	}
}

func TestOptionsWorkers(t *testing.T) {
	if w := (Options{Parallelism: 8}).Workers(3); w != 3 {
		t.Fatalf("workers capped = %d", w)
	}
	if w := (Options{Parallelism: 2}).Workers(100); w != 2 {
		t.Fatalf("workers = %d", w)
	}
	if w := (Options{}).Workers(100); w < 1 {
		t.Fatalf("default workers = %d", w)
	}
}

func TestSeedFor(t *testing.T) {
	if SeedFor(1, 2, 3) != SeedFor(1, 2, 3) {
		t.Fatal("SeedFor not deterministic")
	}
	// Distinct coordinates and distinct bases give distinct seeds, including
	// the adjacent values typical of loop indices.
	seen := map[int64][]int64{}
	for base := int64(0); base < 4; base++ {
		for a := int64(0); a < 8; a++ {
			for b := int64(0); b < 8; b++ {
				s := SeedFor(base, a, b)
				if prev, dup := seen[s]; dup {
					t.Fatalf("seed collision: (%d,%d,%d) and %v", base, a, b, prev)
				}
				seen[s] = []int64{base, a, b}
			}
		}
	}
	// Coordinate order matters.
	if SeedFor(1, 2, 3) == SeedFor(1, 3, 2) {
		t.Fatal("SeedFor ignores coordinate order")
	}
	// Arity matters: (1) and (1,0) must differ.
	if SeedFor(7, 1) == SeedFor(7, 1, 0) {
		t.Fatal("SeedFor ignores arity")
	}
}

func TestRNGIndependentStreams(t *testing.T) {
	a, b := RNG(1, 0), RNG(1, 1)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same != 0 {
		t.Fatalf("adjacent streams overlap in %d of 64 draws", same)
	}
}

// TestRunRealErrorNotMaskedByCancellation: a job that honours the pool's own
// cancellation (returning ctx.Err()) must not displace the root-cause error,
// even from a lower job index.
func TestRunRealErrorNotMaskedByCancellation(t *testing.T) {
	boom := errors.New("root cause")
	block := make(chan struct{})
	_, err := Run(context.Background(), 8, Options{Parallelism: 2}, func(ctx context.Context, i int) (int, error) {
		if i == 0 {
			// Wait for the failure, then return the context error like a
			// well-behaved cancellation-aware job.
			<-block
			<-ctx.Done()
			return 0, ctx.Err()
		}
		defer close(block)
		return 0, fmt.Errorf("job %d: %w", i, boom)
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the root-cause error", err)
	}
}

func TestRunStreamInOrderDelivery(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		var got []int
		err := RunStream(context.Background(), 37, Options{Parallelism: workers}, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		}, func(i, v int) error {
			got = append(got, v)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 37 {
			t.Fatalf("workers=%d: %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d (out of order?)", workers, i, v, i*i)
			}
		}
	}
}

// TestRunStreamBoundedWindow checks the memory contract: workers never run
// more than the reorder window ahead of the next undelivered result, even
// when the very first job is the slowest.
func TestRunStreamBoundedWindow(t *testing.T) {
	const n, workers = 200, 4
	release := make(chan struct{})
	var started atomic.Int64
	go func() {
		// Let the pool run as far ahead as it will, then unblock job 0.
		time.Sleep(100 * time.Millisecond)
		close(release)
	}()
	emitted := 0
	err := RunStream(context.Background(), n, Options{Parallelism: workers}, func(_ context.Context, i int) (int, error) {
		started.Add(1)
		if i == 0 {
			<-release // job 0 finishes last
		}
		return i, nil
	}, func(i, v int) error {
		if emitted == 0 {
			// Job 0 just completed. While it blocked, the feeder may only
			// hand out indices below next+window = 2*workers, so no more
			// than that many jobs can ever have started.
			if s := started.Load(); s > 2*workers {
				t.Fatalf("%d jobs started while job 0 blocked (window breached)", s)
			}
		}
		emitted++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if emitted != n {
		t.Fatalf("emitted %d of %d", emitted, n)
	}
}

func TestRunStreamEmitErrorAborts(t *testing.T) {
	wantErr := errors.New("emit failed")
	var ran atomic.Int64
	err := RunStream(context.Background(), 100, Options{Parallelism: 4}, func(_ context.Context, i int) (int, error) {
		ran.Add(1)
		return i, nil
	}, func(i, v int) error {
		if i == 3 {
			return wantErr
		}
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	if r := ran.Load(); r == 100 {
		t.Fatal("emit error did not cancel remaining jobs")
	}
}

func TestRunStreamJobErrorLowestIndexWins(t *testing.T) {
	errA := errors.New("job 5 failed")
	errB := errors.New("job 30 failed")
	err := RunStream(context.Background(), 64, Options{Parallelism: 8}, func(_ context.Context, i int) (int, error) {
		switch i {
		case 5:
			time.Sleep(10 * time.Millisecond)
			return 0, errA
		case 30:
			return 0, errB
		}
		return i, nil
	}, func(i, v int) error { return nil })
	if err == nil {
		t.Fatal("no error")
	}
	// Both errors may race, but the lowest-index one must win whenever both
	// were observed; at minimum one of them is reported verbatim.
	if !errors.Is(err, errA) && !errors.Is(err, errB) {
		t.Fatalf("err = %v", err)
	}
}

func TestRunStreamContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var emitted atomic.Int64
	errCh := make(chan error, 1)
	go func() {
		errCh <- RunStream(ctx, 1000, Options{Parallelism: 2}, func(ctx context.Context, i int) (int, error) {
			select {
			case <-time.After(5 * time.Millisecond):
			case <-ctx.Done():
			}
			return i, nil
		}, func(i, v int) error {
			emitted.Add(1)
			return nil
		})
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunStream did not return after cancellation")
	}
	if emitted.Load() == 1000 {
		t.Fatal("cancellation had no effect")
	}
}

func TestRunStreamPanicCapture(t *testing.T) {
	err := RunStream(context.Background(), 16, Options{Parallelism: 4}, func(_ context.Context, i int) (int, error) {
		if i == 7 {
			panic("boom")
		}
		return i, nil
	}, func(i, v int) error { return nil })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Job != 7 || fmt.Sprint(pe.Value) != "boom" {
		t.Fatalf("panic error = %+v", pe)
	}
	if !strings.Contains(pe.Error(), "boom") {
		t.Fatalf("Error() = %q", pe.Error())
	}
}

func TestRunStreamZeroAndNegative(t *testing.T) {
	if err := RunStream(context.Background(), 0, Options{}, func(_ context.Context, i int) (int, error) {
		t.Fatal("job called")
		return 0, nil
	}, func(i, v int) error {
		t.Fatal("emit called")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := RunStream(context.Background(), -3, Options{}, func(_ context.Context, i int) (int, error) { return 0, nil },
		func(i, v int) error { return nil }); err == nil {
		t.Fatal("negative job count accepted")
	}
}

// TestRunStreamCancelAfterKResults pins the mid-stream cancellation contract
// precisely: cancelling the context from inside the emit callback after K
// delivered results stops the stream at exactly K — no further callback ever
// fires (even for results already buffered in the reorder window), every
// worker drains before RunStream returns, the sweep never runs the remaining
// jobs, and the returned error is ctx.Err().
func TestRunStreamCancelAfterKResults(t *testing.T) {
	const n, k = 500, 9
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var inFlight, started, emitted atomic.Int64
	err := RunStream(ctx, n, Options{Parallelism: 4}, func(_ context.Context, i int) (int, error) {
		started.Add(1)
		inFlight.Add(1)
		defer inFlight.Add(-1)
		return i * i, nil
	}, func(i, v int) error {
		if ctx.Err() != nil {
			t.Errorf("emit(%d) fired after cancellation", i)
		}
		if v != i*i {
			t.Errorf("emit(%d) = %d, want %d", i, v, i*i)
		}
		if emitted.Add(1) == k {
			cancel()
		}
		return nil
	})
	if err == nil || err != ctx.Err() {
		t.Fatalf("err = %v, want ctx.Err() (%v)", err, ctx.Err())
	}
	if got := emitted.Load(); got != k {
		t.Fatalf("emitted %d results after cancelling at %d", got, k)
	}
	if inFlight.Load() != 0 {
		t.Fatal("workers did not drain before RunStream returned")
	}
	if got := started.Load(); got >= n {
		t.Fatalf("cancellation did not stop the sweep (all %d jobs started)", got)
	}
}
