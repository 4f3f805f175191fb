package client

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestRetriesDrainingAndQueueFull pins the transient-status retry set: 503
// (draining) and 429 (queue full) back off and retry up to MaxRetries,
// honouring Retry-After, while a 400 fails immediately.
func TestRetriesDrainingAndQueueFull(t *testing.T) {
	for _, status := range []int{http.StatusServiceUnavailable, http.StatusTooManyRequests} {
		var calls atomic.Int32
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if calls.Add(1) <= 2 {
				w.Header().Set("Retry-After", "0")
				w.WriteHeader(status)
				w.Write([]byte(`{"error":"transient"}`))
				return
			}
			w.Write([]byte(`{"status":"ok"}`))
		}))
		defer ts.Close()

		c := New(ts.URL)
		c.MaxRetries = 3
		c.RetryBaseDelay = time.Millisecond
		var retries []int
		c.OnRetry = func(st, attempt int, _ time.Duration) { retries = append(retries, st) }
		if _, err := c.Health(context.Background()); err != nil {
			t.Fatalf("status %d: err after retries: %v", status, err)
		}
		if calls.Load() != 3 {
			t.Fatalf("status %d: %d calls, want 3", status, calls.Load())
		}
		if len(retries) != 2 || retries[0] != status || retries[1] != status {
			t.Fatalf("status %d: OnRetry saw %v", status, retries)
		}
	}
}

// TestNoRetryOnPermanentError pins that a 400 is returned immediately even
// with retries configured.
func TestNoRetryOnPermanentError(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":"bad spec"}`))
	}))
	defer ts.Close()
	c := New(ts.URL)
	c.MaxRetries = 3
	c.RetryBaseDelay = time.Millisecond
	_, err := c.Health(context.Background())
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want APIError 400", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("%d calls, want 1 (no retry on 400)", calls.Load())
	}
}

// TestRetriesConnectionRefused pins the restart-gap behaviour: a refused
// connection retries with the same backoff (OnRetry status 0) and succeeds
// once a daemon starts listening again on the address.
func TestRetriesConnectionRefused(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens: connections are refused

	c := New("http://" + addr)
	c.MaxRetries = 50
	c.RetryBaseDelay = 5 * time.Millisecond
	var transportRetries atomic.Int32
	started := make(chan struct{})
	c.OnRetry = func(st, attempt int, _ time.Duration) {
		if st != 0 {
			t.Errorf("OnRetry status = %d, want 0 for refused connection", st)
		}
		if transportRetries.Add(1) == 2 {
			close(started) // bring the daemon up after two refusals
		}
	}
	go func() {
		<-started
		ln2, err := net.Listen("tcp", addr)
		if err != nil {
			return // port raced away; the test will report the retry error
		}
		srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte(`{"status":"ok"}`))
		})}
		go srv.Serve(ln2)
	}()
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatalf("health after restart gap: %v (retries %d)", err, transportRetries.Load())
	}
	if h.Status != "ok" {
		t.Fatalf("health = %+v", h)
	}
	if transportRetries.Load() < 2 {
		t.Fatalf("only %d transport retries observed", transportRetries.Load())
	}
}

// TestZeroRetriesFailsFast pins that the zero configuration keeps failing
// fast on refused connections.
func TestZeroRetriesFailsFast(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	c := New("http://" + addr)
	if _, err := c.Health(context.Background()); err == nil {
		t.Fatal("refused connection succeeded with MaxRetries 0")
	}
}

// TestWaitFloorsPollsAgainstServerIgnoringWait pins Wait's back-compat
// floor: against a server that ignores ?wait= and answers running at once,
// Wait still asks for the long-poll on every request but makes at most one
// request per poll interval instead of hot-looping.
func TestWaitFloorsPollsAgainstServerIgnoringWait(t *testing.T) {
	const poll = 20 * time.Millisecond
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if got := r.URL.Query().Get("wait"); got != poll.String() {
			t.Errorf("request %s: wait = %q, want %q", r.URL, got, poll)
		}
		w.Write([]byte(`{"id":"job-000001","state":"running"}`))
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*poll)
	defer cancel()
	start := time.Now()
	st, err := New(ts.URL).Wait(ctx, "job-000001", poll, nil)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait = %+v, %v; want the context deadline", st, err)
	}
	if max := int32(elapsed/poll) + 1; calls.Load() > max {
		t.Fatalf("%d status requests in %v, want at most %d (one per %v poll)", calls.Load(), elapsed, max, poll)
	}
	if calls.Load() < 2 {
		t.Fatalf("%d status requests in %v, want Wait to keep polling", calls.Load(), elapsed)
	}
}

// TestJobWaitSendsWait pins the wire form of JobWait: a positive wait rides
// as ?wait=<Go duration>, and Job (a zero wait) sends none.
func TestJobWaitSendsWait(t *testing.T) {
	var got []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = append(got, r.URL.RequestURI())
		w.Write([]byte(`{"id":"job-000001","state":"done"}`))
	}))
	defer ts.Close()
	c := New(ts.URL)
	ctx := context.Background()
	if _, err := c.JobWait(ctx, "job-000001", 1500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Job(ctx, "job-000001"); err != nil {
		t.Fatal(err)
	}
	want := []string{"/v1/jobs/job-000001?wait=1.5s", "/v1/jobs/job-000001"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("requests = %q, want %q", got, want)
	}
}
