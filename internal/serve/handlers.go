package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"ioatsim/internal/bench"
)

// Handler builds the daemon's HTTP API on the Go 1.22 pattern mux:
//
//	POST   /v1/jobs             submit a job (?stream=1 attaches: NDJSON
//	                            results, disconnect cancels)
//	GET    /v1/jobs             list known jobs (summaries)
//	GET    /v1/jobs/{id}        one job's status with results
//	DELETE /v1/jobs/{id}        cancel a job
//	GET    /v1/jobs/{id}/stream observe a job's NDJSON result stream
//	GET    /v1/runners          the experiment table (id, title, desc)
//	GET    /healthz             liveness (503 while draining)
//	GET    /metrics             serving + cache + engine counters (JSON)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /v1/runners", s.handleRunners)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// maxRequestBytes bounds a job submission's body. The largest
// legitimate request (every runner, plus an override of every numeric
// cost.Params field) is a few KB.
const maxRequestBytes = 1 << 20

// handleSubmit admits a job. The admission outcomes map to:
// body over maxRequestBytes -> 413, invalid request -> 400, draining
// -> 503, queue full -> 429 with a Retry-After estimate. Detached
// submissions (the default) answer 202 with the job's status;
// ?stream=1 keeps the connection open and streams the job's results as
// NDJSON, and an early disconnect cancels the job.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := bench.DecodeRequest(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, "invalid request: %v", err)
		return
	}
	attached := r.URL.Query().Get("stream") == "1"
	var parent = r.Context()
	if !attached {
		parent = nil
	}
	j, err := s.Submit(req, parent)
	switch {
	case err == nil:
	case errors.Is(err, ErrDraining):
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After",
			strconv.Itoa(int(s.RetryAfter().Seconds())))
		httpError(w, http.StatusTooManyRequests, "%v", err)
		return
	default:
		httpError(w, http.StatusBadRequest, "invalid request: %v", err)
		return
	}

	if !attached {
		w.Header().Set("Location", "/v1/jobs/"+j.ID)
		writeJSON(w, http.StatusAccepted, j.Status(false))
		return
	}
	streamJob(w, r, j)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status(false)
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.Status(true))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	state := j.Cancel()
	writeJSON(w, http.StatusOK, map[string]any{"id": j.ID, "state": state})
}

// handleStream attaches an observer to a job's NDJSON stream: a replay
// of everything emitted so far, then live records until the terminal
// one.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	streamJob(w, r, j)
}

// RunnerInfo is one row of the experiment table — the same table
// ioatbench -list prints.
type RunnerInfo struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	Desc  string `json:"desc"`
}

func (s *Server) handleRunners(w http.ResponseWriter, r *http.Request) {
	exps := bench.Experiments()
	out := make([]RunnerInfo, len(exps))
	for i, e := range exps {
		out[i] = RunnerInfo{ID: e.ID, Title: e.Title, Desc: e.Desc}
	}
	writeJSON(w, http.StatusOK, map[string]any{"runners": out})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.readMetrics())
}
