package federation_test

import (
	"net/http"
	"strings"
	"testing"

	"battsched/internal/federation"
	"battsched/internal/service"
)

// TestWorkerURLNormalised pins that one worker registers once however its
// base URL is spelled: a trailing slash names the same worker, so the fleet
// counts its slots once.
func TestWorkerURLNormalised(t *testing.T) {
	_, tsW := startWorker(t, service.Config{Workers: 2})
	co, _, base := startTracedCoordinator(t, fastConfig(tsW.URL, tsW.URL+"/"))
	co.AddWorker(tsW.URL + "//")
	resp, err := http.Post(base+"/v1/workers", "application/json", strings.NewReader(`{"url":"`+tsW.URL+`/"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/workers: HTTP %d, want 200", resp.StatusCode)
	}
	waitFor(t, "worker live", func() bool { return co.Health().Fleet.LiveWorkers > 0 })
	if ws := co.Workers(); len(ws) != 1 || ws[0].URL != tsW.URL {
		t.Fatalf("registry = %+v, want the one worker %s", ws, tsW.URL)
	}
	if f := co.Health().Fleet; f.Workers != 1 || f.Slots != 2 {
		t.Fatalf("fleet = %+v, want 1 worker with 2 slots", f)
	}
}

// TestWorkerURLValidated pins that only absolute http(s) URLs with a host
// register: a bad -fleet seed fails New, a bad POST /v1/workers answers 400
// (as does a body with data after its value), and neither leaves a registry
// entry or a per-worker series behind.
func TestWorkerURLValidated(t *testing.T) {
	bad := []string{"not a url", "127.0.0.1:8345", "ftp://h:1", "http://", "http:///path", ""}
	for _, raw := range bad {
		if _, err := federation.New(fastConfig(raw)); err == nil {
			t.Errorf("New with worker %q succeeded, want an error", raw)
		}
	}
	co, _, base := startTracedCoordinator(t, fastConfig())
	for _, raw := range bad {
		resp, err := http.Post(base+"/v1/workers", "application/json", strings.NewReader(`{"url":"`+raw+`"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST /v1/workers %q: HTTP %d, want 400", raw, resp.StatusCode)
		}
		co.AddWorker(raw)
	}
	// A valid registration with a second value after it is one body too many.
	resp, err := http.Post(base+"/v1/workers", "application/json",
		strings.NewReader(`{"url":"http://127.0.0.1:1"} {"url":"http://127.0.0.1:2"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("POST /v1/workers with trailing data: HTTP %d, want 400", resp.StatusCode)
	}
	if ws := co.Workers(); len(ws) != 0 {
		t.Fatalf("registry = %+v after invalid registrations, want empty", ws)
	}
	samples := scrape(t, base)
	if got := mustFind(t, samples, "battsched_fleet_workers"); got != 0 {
		t.Errorf("battsched_fleet_workers = %v, want 0", got)
	}
	for _, s := range samples {
		if strings.HasPrefix(s.Name, "battsched_worker_") && s.Name != "battsched_worker_down_total" {
			t.Errorf("per-worker series %s%v exposed for an invalid URL", s.Name, s.Labels)
		}
	}
}
