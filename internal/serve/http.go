package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"tpal/internal/stats"
	"tpal/internal/tpal/analysis"
)

// AnalyzeRequest is the body of POST /v1/analyze: lint-as-a-service.
type AnalyzeRequest struct {
	Lang   string   `json:"lang"`
	Source string   `json:"source"`
	Entry  []string `json:"entry"`
}

// AnalyzeResponse is the full static report for one program.
type AnalyzeResponse struct {
	Name        string `json:"name"`
	Fingerprint string `json:"fingerprint"`
	Admissible  bool   `json:"admissible"`
	Reason      string `json:"reason,omitempty"`
	Diags       []Diag `json:"diags"`
	Latency     string `json:"latency"`
	Work        string `json:"work"`
	Span        string `json:"span"`
	Quote       *Quote `json:"quote,omitempty"`
}

// errorBody is the uniform error payload: a message. A rejection is
// not an error body; it answers 422 with the job view, which carries
// the diagnostics.
type errorBody struct {
	Error string `json:"error"`
}

// maxBodyBytes bounds a POST body. Sources are short (the largest
// program in the corpus and examples is well under 1 KB), and a larger
// body is refused with 413 before it is decoded.
const maxBodyBytes = 1 << 20

// Handler returns the service's HTTP API:
//
//	POST /v1/jobs             submit a job  (202 queued / done; 422 rejected;
//	                          429 queue full; 503 draining; 400 bad request;
//	                          413 body over maxBodyBytes)
//	GET  /v1/jobs/{id}        job status, result, stats (404 unknown)
//	GET  /v1/jobs/{id}/events live job event stream over SSE: status
//	                          transitions and, for traced jobs, batches
//	                          of tracer events; ends with a "done" frame
//	                          carrying the full job view
//	POST /v1/analyze          run the analysis pipeline without executing
//	                          (200; 400 bad request; 413 body too large)
//	GET  /healthz             200 serving / 503 draining
//	GET  /metrics             counters, queue depth, latency percentiles
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// decodeBody decodes a JSON request body of at most maxBodyBytes into
// v. On failure it answers the request — 413 for an over-size body, 400
// for anything else — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{Error: fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes)})
	default:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad JSON: " + err.Error()})
	}
	return false
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if !decodeBody(w, r, &req) {
		return
	}
	// ?trace=1 is the query-parameter form of the body's "trace" field;
	// either turns on per-job event tracing.
	if v := r.URL.Query().Get("trace"); v == "1" || v == "true" {
		req.Trace = true
	}
	j, err := s.Submit(req)
	switch {
	case errors.Is(err, ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	// The view comes from the record Submit returned, not from the id
	// map: a job that is terminal at submission may already have been
	// evicted from it by the retention cap or TTL.
	s.mu.Lock()
	view := j.view()
	s.mu.Unlock()
	if view.Status == StatusRejected {
		// The structured diagnostics are the contract: clients match on
		// TP0xx codes exactly as they would on tpal-lint -json output.
		writeJSON(w, http.StatusUnprocessableEntity, view)
		return
	}
	writeJSON(w, http.StatusAccepted, view)
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	view, ok := s.JobView(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job " + r.PathValue("id")})
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// handleJobEvents serves GET /v1/jobs/{id}/events: the job's event
// history replayed as SSE frames, then the live feed until the job
// reaches a terminal state, then one final "done" frame carrying the
// full job view. Frames are `event: <kind>` + `data: <json>`; clients
// can stop reading at the first done frame.
func (s *Service) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	replay, live, cancel, ok := s.subscribeJob(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job " + id})
		return
	}
	defer cancel()
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: "streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	writeFrame := func(ev jobEvent) {
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Kind, ev.json())
		fl.Flush()
	}
	for _, ev := range replay {
		writeFrame(ev)
	}
	for live != nil {
		select {
		case ev, open := <-live:
			if !open {
				live = nil
				break
			}
			writeFrame(ev)
		case <-r.Context().Done():
			return
		}
	}
	// The live channel closed (or was never opened): the job is
	// terminal. Re-read the record for the full final view.
	view, ok := s.JobView(id)
	if !ok {
		return
	}
	buf, err := json.Marshal(view)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", eventKindDone, buf)
	fl.Flush()
}

// retryAfter derives the 429 Retry-After hint from live service state:
// the current queue depth times the recent median execution time,
// spread over the worker pool.
func (s *Service) retryAfter() int {
	s.mu.Lock()
	depth := s.queue.len()
	p50 := stats.Percentile(s.metrics.exec.values(), 50)
	s.mu.Unlock()
	return retryAfterSeconds(depth, p50, s.cfg.Workers)
}

// retryAfterSeconds is the header math: ceil(depth × p50 / workers),
// clamped to [1s, 60s]. With no execution history yet the estimate
// degrades to the floor.
func retryAfterSeconds(depth int, execP50MS float64, workers int) int {
	if workers < 1 {
		workers = 1
	}
	if depth < 0 {
		depth = 0
	}
	secs := int(math.Ceil(float64(depth) * execP50MS / float64(workers) / 1000))
	if secs < 1 {
		return 1
	}
	if secs > 60 {
		return 60
	}
	return secs
}

func (s *Service) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req AnalyzeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	fe, err := s.loadSubmission(SubmitRequest{Lang: req.Lang, Source: req.Source})
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	// Clients want the report, not just the verdict. admit hands back
	// the one it judged by, unless another request filled the entry.
	entry := entryRegs(fe.params, nil, req.Entry)
	adm, report := s.admit(fe.prog, entry)
	if report == nil {
		report = analysis.Analyze(fe.prog, analysis.Options{EntryRegs: entry, Races: true})
	}
	resp := AnalyzeResponse{
		Name:        fe.prog.Name,
		Fingerprint: adm.fingerprint,
		Admissible:  !adm.rejected,
		Reason:      adm.reason,
		Diags:       wireDiags(report.Diags),
		Latency:     report.Latency.String(),
		Work:        report.Work.String(),
		Span:        report.Span.String(),
	}
	if !adm.rejected {
		q := adm.quote
		resp.Quote = &q
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}
