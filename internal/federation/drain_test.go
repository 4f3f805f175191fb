package federation_test

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"battsched/internal/experiments"
	"battsched/internal/federation"
	"battsched/internal/service"
)

// TestCoordinatorDrainFinishesLeasedOnly pins the coordinator's drain rule,
// the worker daemon's: Shutdown lets the leased unit finish but dispatches
// nothing new, so the queued job fails with the shutdown message, stays
// journaled, and a new coordinator over the same CacheDir resumes it under
// its original ID.
func TestCoordinatorDrainFinishesLeasedOnly(t *testing.T) {
	specA := experiments.Spec{Quick: true, Battery: "kibam"}
	specB := experiments.Spec{Quick: true, Battery: "kibam", Seed: 5}
	dir := t.TempDir()

	// One 1-slot worker, wedged: job A holds its slot, job B waits queued.
	hook, release := blockingHook()
	defer release()
	_, tsW := startWorker(t, service.Config{Workers: 1, FaultHook: hook})
	cfg := fastConfig(tsW.URL)
	cfg.CacheDir = dir
	co1, err := federation.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer co1.Close()
	waitFor(t, "worker live", func() bool { return co1.Health().Fleet.LiveWorkers == 1 })
	a, err := co1.Submit(service.JobRequest{Experiment: "table2", Spec: service.SpecRequestFrom(specA)})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job A leased", func() bool {
		st, err := co1.Job(a.ID)
		return err == nil && st.State == service.StateRunning
	})
	b, err := co1.Submit(service.JobRequest{Experiment: "table2", Spec: service.SpecRequestFrom(specB)})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- co1.Shutdown(context.Background()) }()
	waitFor(t, "coordinator draining", func() bool { return co1.Health().Status == "draining" })
	release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Shutdown did not return after the leased unit finished")
	}

	stA, err := co1.Job(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if stA.State != service.StateDone {
		t.Fatalf("leased job A after drain = %s (%s), want done", stA.State, stA.Error)
	}
	got, err := co1.Artifact(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, localArtifact(t, "table2", specA)) {
		t.Fatal("drained job A's artifact differs from local run -o")
	}
	stB, err := co1.Job(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if stB.State != service.StateFailed || !strings.Contains(stB.Error, "shut down") {
		t.Fatalf("queued job B after drain = %s (%q), want failed with the shutdown message", stB.State, stB.Error)
	}

	co2, err := federation.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer co2.Close()
	waitFor(t, "job B resumed and done", func() bool {
		st, err := co2.Job(b.ID)
		if err == nil && st.State == service.StateFailed {
			t.Fatalf("resumed job B failed: %s", st.Error)
		}
		return err == nil && st.State == service.StateDone
	})
	got, err = co2.Artifact(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, localArtifact(t, "table2", specB)) {
		t.Fatal("resumed job B's artifact differs from local run -o")
	}
}
