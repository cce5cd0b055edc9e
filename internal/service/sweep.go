package service

import (
	"context"
	"errors"
	"net/http"
	"time"

	"stochsched/internal/sweep"
	"stochsched/pkg/api"
)

// This file is the serving layer of the sweep subsystem: the sweep.Backend
// implementation (so sweep cells share the call pipeline — ring routing,
// cache, singleflight, and admission queue — with interactive traffic) and
// the four HTTP routes —
//
//	POST   /v1/sweep              submit → 202 + job status
//	GET    /v1/sweep/{id}         status + progress counters
//	GET    /v1/sweep/{id}/results NDJSON rows, streamed in grid order
//	DELETE /v1/sweep/{id}         cancel
//
// See docs/api.md for the request/response schemas.

// ValidateSimulate implements sweep.Backend: it fully validates a
// /v1/simulate body — request shape, work budget, policy, spec, and
// antithetic admissibility under the body's own flag — without executing
// it, so malformed sweep cells are rejected at submission with the message
// /v1/simulate would answer. Both halves resolve through the scenario
// registry, so any registered kind is sweepable.
func (s *Server) ValidateSimulate(body []byte) error {
	req, err := s.simulateRequest(body)
	if err != nil {
		return err
	}
	return req.Scenario.Validate(req.Payload, req.Opts())
}

// Simulate implements sweep.Backend: one sweep cell is exactly one
// /v1/simulate call through the shared pipeline, keyed by the same
// canonical hash — a cell another sweep (or a curl) already computed is a
// map lookup, on this node or on the cell's ring owner. The call runs in
// background mode: it computes here whenever the owner does not answer
// with bytes, and waits for an execution slot instead of shedding. Cells
// are billed to the sweep_cells pseudo-endpoint in /v1/stats, which is
// where warm-sweep cache reuse becomes visible; a cell its owner answered
// counts in requests and latency, but in neither hits nor misses.
func (s *Server) Simulate(ctx context.Context, body []byte) ([]byte, error) {
	m := s.eps["sweep_cells"]
	begin := time.Now()
	m.requests.Add(1)
	defer func() { m.observeLatency(time.Since(begin)) }()
	resp, _, err := s.call(ctx, m, simulateOp, body, background)
	return resp, err
}

// handleSweepSubmit serves POST /v1/sweep.
func (s *Server) handleSweepSubmit(w http.ResponseWriter, _ *http.Request, m *EndpointMetrics, body []byte) {
	req, err := sweep.DecodeRequest(body)
	if err != nil {
		m.errors.Add(1)
		writeError(w, http.StatusBadRequest, api.ErrCodeBadRequest, err.Error())
		return
	}
	job, err := s.sweeps.Submit(req)
	if err != nil {
		switch {
		case errors.Is(err, sweep.ErrStoreFull):
			m.shed.Add(1)
			writeError(w, http.StatusTooManyRequests, api.ErrCodeOverloaded, err.Error())
		default:
			// Expansion and validation failures are the client's: bad grid,
			// bad base body, over-budget cell count.
			m.errors.Add(1)
			writeError(w, http.StatusBadRequest, api.ErrCodeBadRequest, err.Error())
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Location", "/v1/sweep/"+job.ID)
	w.WriteHeader(http.StatusAccepted)
	writeJSON(w, job.Snapshot())
}

// handleSweepStatus serves GET /v1/sweep/{id}.
func (s *Server) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.sweeps.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, api.ErrCodeNotFound, "unknown sweep job")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, job.Snapshot())
}

// handleSweepCancel serves DELETE /v1/sweep/{id}. Cancellation is
// asynchronous: the response reports the state at cancel time and the job
// settles to "cancelled" once in-flight cells drain (poll the status
// endpoint to observe it).
func (s *Server) handleSweepCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.sweeps.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, api.ErrCodeNotFound, "unknown sweep job")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, job.Snapshot())
}

// handleSweepResults serves GET /v1/sweep/{id}/results: the comparison rows
// as NDJSON, streamed in grid order as they complete. For a finished job
// the bytes are the full result set; for a running job the response blocks
// on each next row (long-poll streaming); for a failed or cancelled job the
// stream ends at the last completed row — check the status endpoint for the
// terminal state. Row bytes are byte-identical across sweep and simulate
// parallelism (docs/determinism.md).
func (s *Server) handleSweepResults(w http.ResponseWriter, r *http.Request) {
	job, ok := s.sweeps.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, api.ErrCodeNotFound, "unknown sweep job")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	fl, _ := w.(http.Flusher)
	for i := 0; ; i++ {
		line, more, err := job.NextRow(r.Context(), i)
		if err != nil || !more {
			return // client gone, or stream complete
		}
		if _, err := w.Write(line); err != nil {
			return
		}
		if fl != nil {
			fl.Flush()
		}
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	b, err := marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, api.ErrCodeInternal, err.Error())
		return
	}
	w.Write(b)
}
