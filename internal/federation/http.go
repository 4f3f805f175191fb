package federation

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"battsched/internal/battery"
	"battsched/internal/experiments"
	"battsched/internal/obs"
	"battsched/internal/service"
)

// maxRequestBody bounds POST payloads, matching the worker daemon.
const maxRequestBody = 1 << 20

// Handler returns the coordinator's HTTP API — the worker daemon's /v1
// surface (so `cmd/experiments submit` and the typed client work unchanged
// against a coordinator) plus the worker registry:
//
//	POST /v1/jobs              submit; units fan out across the fleet
//	GET  /v1/jobs/{id}         job state and per-unit progress; ?wait=
//	                           holds like the worker daemon's
//	GET  /v1/jobs/{id}/report  the merged artifact (?format=table renders it)
//	GET  /v1/experiments       the experiment registry
//	GET  /v1/batteries         the battery model registry
//	GET  /v1/workers           the worker registry with liveness and leases
//	POST /v1/workers           register a worker {"url": "http://host:port"}
//	GET  /healthz              the Health snapshot with the fleet section
//	GET  /metrics              the metrics registry in Prometheus text format
//
// POST /v1/jobs reads the X-Trace-Id header into the submission's trace id
// (see obs.TraceHeader), which is forwarded on every unit dispatch so the
// whole fleet logs under one trace.
func (co *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", co.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", co.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/report", co.handleReport)
	mux.HandleFunc("GET /v1/experiments", co.handleExperiments)
	mux.HandleFunc("GET /v1/batteries", co.handleBatteries)
	mux.HandleFunc("GET /v1/workers", co.handleWorkers)
	mux.HandleFunc("POST /v1/workers", co.handleRegister)
	mux.HandleFunc("GET /healthz", co.handleHealth)
	mux.Handle("GET /metrics", co.metrics.Handler())
	return mux
}

type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError maps coordinator errors onto the same statuses the worker
// daemon uses, so clients cannot tell the difference.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, service.ErrQueueFull):
		status = http.StatusTooManyRequests
		var fb *fleetBusyError
		if errors.As(err, &fb) {
			secs := int(math.Ceil(fb.retryAfter.Seconds()))
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
	case errors.Is(err, service.ErrDraining):
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, service.ErrUnknownJob):
		status = http.StatusNotFound
	case errors.Is(err, service.ErrJobNotFinished):
		status = http.StatusConflict
	case errors.Is(err, experiments.ErrBadConfig):
		status = http.StatusBadRequest
	}
	writeJSON(w, status, apiError{Error: err.Error()})
}

func (co *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req service.JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("decoding job request: %v", err)})
		return
	}
	req.TraceID = obs.TraceFromRequest(r)
	st, err := co.Submit(req)
	if err != nil {
		writeError(w, err)
		return
	}
	status := http.StatusAccepted
	if st.State == service.StateDone {
		status = http.StatusOK
	}
	writeJSON(w, status, st)
}

func (co *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	wait, err := service.ParseWait(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	st, err := co.JobWait(r.Context(), r.PathValue("id"), wait)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (co *Coordinator) handleReport(w http.ResponseWriter, r *http.Request) {
	artifact, err := co.Artifact(r.PathValue("id"))
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
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(artifact)
}

func (co *Coordinator) handleExperiments(w http.ResponseWriter, _ *http.Request) {
	var infos []service.ExperimentInfo
	for _, name := range experiments.Names() {
		d, err := experiments.Lookup(name)
		if err != nil {
			writeError(w, err)
			return
		}
		infos = append(infos, service.ExperimentInfo{
			Name:      d.Name,
			Title:     d.Title,
			Paper:     d.Paper,
			Shardable: d.Shardable,
		})
	}
	writeJSON(w, http.StatusOK, infos)
}

func (co *Coordinator) handleBatteries(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, battery.Names())
}

func (co *Coordinator) handleWorkers(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, co.Workers())
}

// registerRequest is the POST /v1/workers payload.
type registerRequest struct {
	URL string `json:"url"`
}

func (co *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil || req.URL == "" {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "registration needs {\"url\": \"http://host:port\"}"})
		return
	}
	co.AddWorker(req.URL)
	writeJSON(w, http.StatusOK, co.Workers())
}

func (co *Coordinator) handleHealth(w http.ResponseWriter, _ *http.Request) {
	h := co.Health()
	status := http.StatusOK
	if h.Status != "ok" {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}
