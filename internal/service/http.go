package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"battsched/internal/battery"
	"battsched/internal/experiments"
	"battsched/internal/obs"
)

// maxRequestBody bounds POST payloads; a JobRequest is a few hundred bytes.
const maxRequestBody = 1 << 20

// MaxWait caps how long one GET /v1/jobs/{id}?wait= or
// /v1/jobs/{id}/report?wait= request holds.
const MaxWait = time.Minute

// ParseWait reads the ?wait= parameter of a job status or report request: a
// Go duration ("250ms", "10s") for which the request may hold while the job
// is queued or running. Absent means 0 (answer at once); a value above MaxWait
// is clamped to it. A malformed or negative value is an error, which the
// daemon and the coordinator both answer with 400.
func ParseWait(r *http.Request) (time.Duration, error) {
	raw := r.URL.Query().Get("wait")
	if raw == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil {
		return 0, fmt.Errorf("bad wait: %v", err)
	}
	if d < 0 {
		return 0, fmt.Errorf("bad wait: negative duration %q", raw)
	}
	return min(d, MaxWait), nil
}

// Handler returns the front end's HTTP API, the same in both modes, plus
// the executor's own routes (a coordinator's /v1/workers):
//
//	POST /v1/jobs              submit {experiment, spec, shards}; 200 when
//	                           served from cache, 202 when queued
//	GET  /v1/jobs/{id}         job state and per-shard progress; ?wait=10s
//	                           holds until the job is terminal or the wait
//	                           (at most MaxWait) elapses
//	GET  /v1/jobs/{id}/report  the versioned JSON report artifact
//	                           (?format=table renders the plain-text tables);
//	                           ?wait= holds an unfinished job like the status
//	                           route, then answers the artifact, the job's
//	                           failure, or 409 if the wait elapsed first
//	GET  /v1/experiments       the experiment registry
//	GET  /v1/batteries         the battery model registry
//	GET  /healthz              queue depth, in-flight units, cache stats
//	GET  /metrics              the metrics registry in Prometheus text format
//
// POST /v1/jobs reads the X-Trace-Id header into the submission's trace id
// (see obs.TraceHeader): at most 128 bytes of [A-Za-z0-9._-]. JobStatus
// echoes it as trace_id.
//
// Errors are JSON {"error": ...} with 400 (bad request, spec, trace id or
// wait), 404 (unknown job), 409 (report of a job still unfinished when the
// wait, if any, elapsed), 429 (queue
// full, with a Retry-After header estimating when capacity frees up), 503
// (daemon draining; /healthz also turns 503 then) or 500.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleReport)
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("GET /v1/batteries", s.handleBatteries)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.Handle("GET /metrics", s.metrics.Handler())
	for pattern, h := range s.ex.Routes() {
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			v, err := h(r)
			if err != nil {
				writeError(w, err)
				return
			}
			writeJSON(w, http.StatusOK, v)
		})
	}
	return mux
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError maps service errors onto HTTP statuses.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrQueueFull):
		status = http.StatusTooManyRequests
		var qf *queueFullError
		if errors.As(err, &qf) {
			// Retry-After is whole seconds (RFC 9110), rounded up so a
			// sub-second estimate still tells the client to back off.
			secs := int(math.Ceil(qf.retryAfter.Seconds()))
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
	case errors.Is(err, ErrDraining):
		status = http.StatusServiceUnavailable
		// A draining daemon is gone for good (its replacement answers after
		// restart), so the hint is a short fixed pause: long enough to ride
		// out a rolling restart, short enough not to stall clients that will
		// fail over instead.
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, ErrUnknownJob):
		status = http.StatusNotFound
	case errors.Is(err, ErrJobNotFinished):
		status = http.StatusConflict
	case errors.Is(err, experiments.ErrBadConfig):
		status = http.StatusBadRequest
	}
	writeJSON(w, status, apiError{Error: err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := DecodeJSON(http.MaxBytesReader(w, r.Body, maxRequestBody), &req); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "decoding job request: " + err.Error()})
		return
	}
	req.TraceID = obs.TraceFromRequest(r)
	st, err := s.Submit(req)
	if err != nil {
		writeError(w, err)
		return
	}
	status := http.StatusAccepted
	if st.State == StateDone {
		status = http.StatusOK // served from cache
	}
	writeJSON(w, status, st)
}

// DecodeJSON decodes a request body that must hold exactly one JSON value
// into v. Unknown fields are rejected, so a typo'd spec key fails loudly
// instead of silently running the default configuration, and so is anything
// but whitespace after the value, which would otherwise be ignored.
func DecodeJSON(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("unexpected data after the JSON value")
	}
	return nil
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	wait, err := ParseWait(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	st, err := s.JobWait(r.Context(), r.PathValue("id"), wait)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	wait, err := ParseWait(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	artifact, err := s.artifactWait(r.Context(), r.PathValue("id"), wait)
	if err != nil {
		writeError(w, err)
		return
	}
	if r.URL.Query().Get("format") == "table" {
		reports, err := experiments.ReadArtifact(bytes.NewReader(artifact))
		if err != nil {
			writeError(w, err)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, rep := range reports {
			text, err := experiments.FormatReport(rep)
			if err != nil {
				writeError(w, err)
				return
			}
			fmt.Fprint(w, text)
		}
		return
	}
	// The artifact bytes are served verbatim — byte-identical to the local
	// `cmd/experiments run -o` file, which is the service's correctness
	// contract.
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(artifact)
}

func (s *Server) handleExperiments(w http.ResponseWriter, _ *http.Request) {
	var infos []ExperimentInfo
	for _, name := range experiments.Names() {
		d, err := experiments.Lookup(name)
		if err != nil {
			writeError(w, err)
			return
		}
		infos = append(infos, ExperimentInfo{
			Name:      d.Name,
			Title:     d.Title,
			Paper:     d.Paper,
			Shardable: d.Shardable,
		})
	}
	writeJSON(w, http.StatusOK, infos)
}

func (s *Server) handleBatteries(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, battery.Names())
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	h := s.Health()
	status := http.StatusOK
	if h.Status != "ok" {
		// A draining daemon is not healthy to route to; the body still
		// carries the full snapshot for operators.
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}
