// Package client is the typed Go client of the experiment service daemon
// (internal/service, cmd/battschedd). It speaks the /v1 JSON API and returns
// the same structured Reports the local experiment registry produces, so a
// program can switch between in-process runs and a remote daemon without
// changing its result handling. `cmd/experiments submit` is built on it; the
// battsched facade re-exports it.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"syscall"
	"time"

	"battsched/internal/experiments"
	"battsched/internal/obs"
	"battsched/internal/service"
)

// Client talks to one experiment daemon. The zero retry configuration fails
// fast; set MaxRetries to make the client absorb transient rejections — 429
// queue-full backpressure, 503 draining (a rolling restart), and refused
// connections (the daemon is down between restarts) — with jittered
// exponential backoff.
type Client struct {
	base string
	hc   *http.Client

	// MaxRetries is the number of times a transiently-failed request — HTTP
	// 429 (queue full), HTTP 503 (daemon draining) or a refused connection
	// (daemon restarting) — is retried before the APIError (or transport
	// error) is returned; 0 disables retries. Each attempt waits the larger
	// of the daemon's Retry-After hint and a jittered exponential backoff
	// from RetryBaseDelay.
	MaxRetries int
	// RetryBaseDelay seeds the exponential backoff (<= 0 selects 100 ms);
	// attempt n waits base·2ⁿ scaled by a random factor in [0.5, 1.5),
	// capped at 30 s — unless Retry-After asks for longer.
	RetryBaseDelay time.Duration
	// OnRetry, when non-nil, observes every backoff: the HTTP status that
	// caused it (0 for a refused connection), the 1-based attempt number,
	// and the chosen delay.
	OnRetry func(status, attempt int, delay time.Duration)
}

// New returns a client for the daemon at baseURL (e.g.
// "http://127.0.0.1:8344"). A trailing slash is stripped. The underlying
// transport keeps up to 256 idle connections per host, so a coordinator's
// concurrent unit dispatches to one worker reuse their connections.
func New(baseURL string) *Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 256
	tr.MaxIdleConnsPerHost = 256
	return &Client{base: strings.TrimRight(baseURL, "/"), hc: &http.Client{Transport: tr}}
}

// APIError is a non-2xx daemon response.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Message is the daemon's error message.
	Message string
}

// Error implements the error interface.
func (e *APIError) Error() string {
	return fmt.Sprintf("experiment service: %s (HTTP %d)", e.Message, e.Status)
}

// do performs one JSON request, retrying transient rejections (429, 503,
// refused connections) up to MaxRetries times. A non-2xx response decodes
// into *APIError; out may be nil to discard the body, or *[]byte to capture
// it verbatim. A non-empty trace is sent as the X-Trace-Id header on every
// attempt, so retries stay attributable to one submission.
func (c *Client) do(ctx context.Context, method, path, trace string, in, out any) error {
	var payload []byte
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		payload = data
	}
	for attempt := 0; ; attempt++ {
		data, status, retryAfter, err := c.once(ctx, method, path, trace, payload)
		if err != nil {
			// A refused connection means no daemon is listening right now —
			// the restart gap of a rolling deploy. Same backoff as 429/503,
			// no Retry-After hint to honour. Anything else (DNS, ctx
			// cancellation, a reset mid-response) fails fast: the request
			// may have reached the daemon, so blind replay is not safe for
			// non-idempotent calls.
			if errors.Is(err, syscall.ECONNREFUSED) && ctx.Err() == nil && attempt < c.MaxRetries {
				delay := c.backoff(attempt, 0)
				if c.OnRetry != nil {
					c.OnRetry(0, attempt+1, delay)
				}
				select {
				case <-ctx.Done():
					return ctx.Err()
				case <-time.After(delay):
				}
				continue
			}
			return err
		}
		if (status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable) && attempt < c.MaxRetries {
			delay := c.backoff(attempt, retryAfter)
			if c.OnRetry != nil {
				c.OnRetry(status, attempt+1, delay)
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(delay):
			}
			continue
		}
		if status < 200 || status > 299 {
			var ae struct {
				Error string `json:"error"`
			}
			msg := strings.TrimSpace(string(data))
			if json.Unmarshal(data, &ae) == nil && ae.Error != "" {
				msg = ae.Error
			}
			return &APIError{Status: status, Message: msg}
		}
		switch out := out.(type) {
		case nil:
			return nil
		case *[]byte:
			*out = data
			return nil
		default:
			return json.Unmarshal(data, out)
		}
	}
}

// once performs a single HTTP attempt, returning the body, status, and the
// parsed Retry-After hint (0 when absent).
func (c *Client) once(ctx context.Context, method, path, trace string, payload []byte) ([]byte, int, time.Duration, error) {
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, 0, 0, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if trace != "" {
		req.Header.Set(obs.TraceHeader, trace)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, 0, err
	}
	defer resp.Body.Close()
	data, err := readBody(resp)
	if err != nil {
		return nil, 0, 0, err
	}
	var retryAfter time.Duration
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		retryAfter = time.Duration(secs) * time.Second
	}
	return data, resp.StatusCode, retryAfter, nil
}

// maxPresized bounds the declared Content-Length that readBody allocates up
// front, so a bad header cannot make the client reserve an unbounded buffer.
const maxPresized = 64 << 20

// readBody reads a response body into one buffer of its declared
// Content-Length (at most maxPresized), which the daemon declares for every
// report artifact; without one it falls back to io.ReadAll, which grows its
// buffer as it reads.
func readBody(resp *http.Response) ([]byte, error) {
	n := resp.ContentLength
	if n < 0 || n > maxPresized {
		return io.ReadAll(resp.Body)
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(resp.Body, data); err != nil {
		return nil, err
	}
	return data, nil
}

// backoff picks the wait before retry attempt+1: jittered exponential from
// RetryBaseDelay, capped at 30 s, but never shorter than the daemon's
// Retry-After hint.
func (c *Client) backoff(attempt int, retryAfter time.Duration) time.Duration {
	base := c.RetryBaseDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	d := base << uint(attempt)
	if d > 30*time.Second || d <= 0 {
		d = 30 * time.Second
	}
	d = time.Duration(float64(d) * (0.5 + rand.Float64()))
	if d < retryAfter {
		d = retryAfter
	}
	return d
}

// Submit posts one job and returns its initial status — State done with
// Cached set when the daemon answered from the report cache, queued
// otherwise. Every submission carries an X-Trace-Id header: req.TraceID when
// set, a fresh obs.NewTraceID otherwise — read it back from the returned
// status (TraceID) to correlate the job across the fleet's event logs.
func (c *Client) Submit(ctx context.Context, req service.JobRequest) (service.JobStatus, error) {
	if req.TraceID == "" {
		req.TraceID = obs.NewTraceID()
	}
	var st service.JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs", req.TraceID, req, &st)
	return st, err
}

// Job fetches one job's status.
func (c *Client) Job(ctx context.Context, id string) (service.JobStatus, error) {
	return c.JobWait(ctx, id, 0)
}

// JobWait fetches one job's status with GET /v1/jobs/{id}?wait=: the server
// holds the request until the job is terminal or wait (at most
// service.MaxWait) elapses, so the answer comes the moment the job finishes.
// A wait <= 0 answers at once, like Job. A server that ignores the parameter
// answers at once too.
func (c *Client) JobWait(ctx context.Context, id string, wait time.Duration) (service.JobStatus, error) {
	path := "/v1/jobs/" + id
	if wait > 0 {
		path += "?wait=" + wait.String()
	}
	var st service.JobStatus
	err := c.do(ctx, http.MethodGet, path, "", nil, &st)
	return st, err
}

// Wait waits until the job reaches a terminal state (done or failed) and
// returns that status. Each status request long-polls for up to poll (<= 0
// selects 200 ms; see JobWait), so Wait returns as soon as the job finishes;
// a ticker keeps the requests at most one per poll interval, so a server that
// ignores ?wait= is polled, not hammered. observe, when non-nil, receives
// every snapshot (for progress display). The error is non-nil only for
// transport failures or ctx cancellation — inspect the returned State for
// job failure.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration, observe func(service.JobStatus)) (service.JobStatus, error) {
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	for {
		st, err := c.JobWait(ctx, id, poll)
		if err != nil {
			return st, err
		}
		if observe != nil {
			observe(st)
		}
		if st.State == service.StateDone || st.State == service.StateFailed {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-ticker.C:
		}
	}
}

// ReportArtifact fetches a finished job's report artifact verbatim: exactly
// the bytes the equivalent local `cmd/experiments run -o` writes.
func (c *Client) ReportArtifact(ctx context.Context, id string) ([]byte, error) {
	return c.ReportWait(ctx, id, 0)
}

// ReportWait fetches a job's report artifact with GET
// /v1/jobs/{id}/report?wait=: the server holds the request until the job is
// terminal or wait (at most service.MaxWait) elapses, then answers the
// artifact of a done job, the failure of a failed one, or an *APIError with
// Status 409 when the job is still unfinished. A done job whose artifact the
// daemon's report cache evicted answers Status 410: resubmit the spec. A
// wait <= 0 answers at once, like ReportArtifact.
func (c *Client) ReportWait(ctx context.Context, id string, wait time.Duration) ([]byte, error) {
	path := "/v1/jobs/" + id + "/report"
	if wait > 0 {
		path += "?wait=" + wait.String()
	}
	var raw []byte
	err := c.do(ctx, http.MethodGet, path, "", nil, &raw)
	return raw, err
}

// Reports fetches and decodes a finished job's reports.
func (c *Client) Reports(ctx context.Context, id string) ([]*experiments.Report, error) {
	raw, err := c.ReportArtifact(ctx, id)
	if err != nil {
		return nil, err
	}
	return experiments.ParseArtifact(raw)
}

// ReportTable fetches a finished job's report rendered as the experiment's
// plain-text table (?format=table).
func (c *Client) ReportTable(ctx context.Context, id string) (string, error) {
	var raw []byte
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/report?format=table", "", nil, &raw)
	return string(raw), err
}

// Experiments lists the daemon's experiment registry.
func (c *Client) Experiments(ctx context.Context) ([]service.ExperimentInfo, error) {
	var infos []service.ExperimentInfo
	err := c.do(ctx, http.MethodGet, "/v1/experiments", "", nil, &infos)
	return infos, err
}

// Batteries lists the daemon's battery model registry.
func (c *Client) Batteries(ctx context.Context) ([]string, error) {
	var names []string
	err := c.do(ctx, http.MethodGet, "/v1/batteries", "", nil, &names)
	return names, err
}

// Health fetches the daemon's health snapshot.
func (c *Client) Health(ctx context.Context) (service.Health, error) {
	var h service.Health
	err := c.do(ctx, http.MethodGet, "/healthz", "", nil, &h)
	return h, err
}
