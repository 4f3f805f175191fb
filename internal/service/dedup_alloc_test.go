//go:build !race

// The race detector allocates on its own account (35 allocs against 24 on
// the memory-only cached path), so these budgets hold only without it.

package service_test

import (
	"testing"

	"battsched/internal/service"
)

// TestDedupAdmissionAllocs budgets the allocations of the two admissions
// that run no compute: a resubmission answered from the report cache (Submit
// plus Artifact) and a follower coalescing onto a held leader (Submit). Each
// daemon has a CacheDir, so the journal, the event log and the disk tier are
// on, as under battschedd -cache-dir; a coordinator admits through the same
// Server.Submit. An allocation count does not move with runner speed: each
// budget is floor(1.10 × the count measured with Go 1.24.0 on linux/amd64).
func TestDedupAdmissionAllocs(t *testing.T) {
	const (
		cachedBudget    = 36 // measured 31
		coalescedBudget = 44 // measured 34
	)
	req := service.JobRequest{Experiment: "table2", Spec: service.SpecRequest{Quick: true, Battery: "kibam", Sets: 1}}
	check := func(name string, budget float64, admit func()) {
		t.Helper()
		got := testing.AllocsPerRun(200, admit)
		t.Logf("%s: %v allocs (budget %v)", name, got, budget)
		if got > budget {
			t.Errorf("%s allocates %v times, over its budget of %v", name, got, budget)
		}
	}

	finished, err := service.New(service.Config{Workers: 1, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer finished.Close()
	st, err := finished.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, finished, st.ID, service.StateDone)
	check("cached Submit + Artifact", cachedBudget, func() {
		st, err := finished.Submit(req)
		if err != nil || !st.Cached {
			t.Fatalf("resubmission = %+v, %v; want cached", st, err)
		}
		if _, err := finished.Artifact(st.ID); err != nil {
			t.Fatal(err)
		}
	})

	held, err := service.New(service.Config{Workers: 1, CacheDir: t.TempDir(), FaultHook: gateHook(make(chan struct{}))})
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	if _, err := held.Submit(req); err != nil {
		t.Fatal(err)
	}
	check("coalesced Submit", coalescedBudget, func() {
		if st, err := held.Submit(req); err != nil || !st.Coalesced {
			t.Fatalf("duplicate submission = %+v, %v; want coalesced", st, err)
		}
	})
}
