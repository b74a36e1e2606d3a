package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"wise/internal/core"
	"wise/internal/matrix"
	"wise/internal/obs"
	"wise/internal/resilience/faultinject"
	"wise/internal/session"
)

// predictResponse is the JSON body of a /predict answer. Degraded is true
// when the predictor could not run (breaker open, deadline overrun, or
// prediction error) and the server answered with the CSR fallback instead —
// a well-formed request is never turned away empty-handed.
type predictResponse struct {
	Method         string  `json:"method"`
	Index          int     `json:"index"`
	PredictedClass int     `json:"predicted_class"`
	Classes        []int   `json:"classes,omitempty"`
	Degraded       bool    `json:"degraded"`
	Reason         string  `json:"reason,omitempty"`
	Rows           int     `json:"rows"`
	Cols           int     `json:"cols"`
	NNZ            int     `json:"nnz"`
	Fingerprint    string  `json:"fingerprint,omitempty"` // session handle (stateful requests)
	Cached         bool    `json:"cached,omitempty"`      // answered from a prepared session
	ElapsedMS      float64 `json:"elapsed_ms"`
}

// errorResponse is the JSON body of every non-200 answer.
type errorResponse struct {
	Error string `json:"error"`
}

// Degradation reasons reported in predictResponse.Reason.
const (
	reasonBreakerOpen  = "breaker-open"
	reasonDeadline     = "deadline"
	reasonPredictError = "predict-error"
)

// handlerFunc is one POST route behind the request guard: ctx carries the
// per-request deadline, start is when the request arrived.
type handlerFunc func(ctx context.Context, w http.ResponseWriter, r *http.Request, start time.Time)

// guard wraps a POST route in the request pipeline every route shares:
// request counters (routeCounter may be nil), panic recovery (500 +
// serve.requests_panicked), admission (429 + Retry-After when shed, 503 when
// the client gave up in the queue), the RequestTimeout deadline, and the
// serve.request_seconds observation.
func (s *Server) guard(routeCounter *obs.Counter, h handlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		requestsTotal.Inc()
		if routeCounter != nil {
			routeCounter.Inc()
		}
		defer func() {
			if rec := recover(); rec != nil {
				requestsPanicked.Inc()
				writeJSON(w, http.StatusInternalServerError,
					errorResponse{Error: fmt.Sprintf("serve: internal error: %v", rec)})
			}
			requestSeconds.Observe(time.Since(start).Seconds())
		}()
		if err := faultinject.Hit("serve.handler.panic"); err != nil {
			panic(err)
		}

		if err := s.admit.acquire(r.Context()); err != nil {
			if errors.Is(err, errSaturated) {
				requestsShed.Inc()
				w.Header().Set("Retry-After", fmt.Sprintf("%d", s.admit.retryAfterSeconds()))
				writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error()})
				return
			}
			// Client went away while queued; nobody is reading the response.
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
			return
		}
		defer s.admit.release()

		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		h(ctx, w, r, start)
	}
}

// errBadMatrix marks a body that is not a matrix within the ReadLimits:
// the client's fault, answered 400 (413 over the body cap), never 500.
var errBadMatrix = errors.New("serve: bad matrix body")

// parse is the package's one MatrixMarket parse, bounded by the configured
// ReadLimits. Failures wrap errBadMatrix; an over-cap body keeps its
// *http.MaxBytesError in the chain so reject can answer 413.
func (s *Server) parse(body io.Reader) (*matrix.CSR, error) {
	m, err := matrix.ReadMatrixMarketLimited(body, s.cfg.Limits)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", errBadMatrix, err)
	}
	return m, nil
}

// reject answers a request the client got wrong: 413 for a body over the
// MaxBodyBytes cap, 400 for anything else, counted in
// serve.requests_rejected.
func reject(w http.ResponseWriter, err error) {
	requestsRejected.Inc()
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// handlePredict answers /predict: warm from a prepared session when the
// request names a fingerprint, otherwise by parsing the body straight off
// the capped stream and running the breaker-guarded predictor with CSR
// degradation. See the package comment for the ladder.
func (s *Server) handlePredict(ctx context.Context, w http.ResponseWriter, r *http.Request, start time.Time) {
	lm := s.models.current()
	// A fingerprint (query param or header) answers warm from the session
	// store: cached features re-predicted only on a model-generation change,
	// no parse, no extraction (RESILIENCE.md "Stateful serving").
	if fp := fingerprintOf(r); fp != "" {
		ent, sel, ok := s.lookup(w, lm, fp)
		if !ok {
			return
		}
		defer s.sessions.Release(ent)
		resp := selectionResponse(sel, ent.Matrix())
		resp.Fingerprint, resp.Cached = fp, true
		resp.ElapsedMS = msSince(start)
		writeJSON(w, http.StatusOK, resp)
		return
	}

	m, err := s.parse(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		reject(w, err)
		return
	}
	resp, sel, predicted := s.selectMethod(ctx, lm, m)
	resp.Rows, resp.Cols, resp.NNZ = m.Rows, m.Cols, m.NNZ()
	resp.ElapsedMS = msSince(start)
	if resp.Degraded {
		requestsDegraded.Inc()
	}
	if predicted && s.feedback != nil {
		// Off-path shadow measurement of a sampled fraction of healthy
		// predictions; never blocks or fails the request.
		s.feedback.pool.offer(m, sel, lm)
	}
	writeJSON(w, http.StatusOK, resp)
}

// fingerprintOf extracts the session handle of a warm request: the fp query
// parameter or the X-Wise-Fingerprint header.
func fingerprintOf(r *http.Request) string {
	if fp := r.URL.Query().Get("fp"); fp != "" {
		return fp
	}
	return r.Header.Get("X-Wise-Fingerprint")
}

// lookup pins the prepared session fp and refreshes its selection against
// the serving generation; the caller must Release the entry. An unknown
// fingerprint answers 404 — the client uploads via /matrix first.
func (s *Server) lookup(w http.ResponseWriter, lm *loadedModel, fp string) (*session.Entry, core.Selection, bool) {
	ent, ok := s.sessions.Acquire(fp)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("serve: unknown fingerprint %s; upload via POST /matrix first", fp)})
		return nil, core.Selection{}, false
	}
	return ent, s.sessions.Refresh(ent, lm.genID, lm.w.SelectFromFeatures), true
}

// selectionResponse is the answer for a selection the model made for m.
func selectionResponse(sel core.Selection, m *matrix.CSR) predictResponse {
	return predictResponse{
		Method:         sel.Method.String(),
		Index:          sel.Index,
		PredictedClass: sel.PredictedClass,
		Classes:        sel.Classes,
		Rows:           m.Rows,
		Cols:           m.Cols,
		NNZ:            m.NNZ(),
	}
}

// selectMethod is the degradation ladder around the predictor. The breaker
// decides whether the predictor may run at all; if it runs and fails (error
// or deadline overrun), the outcome feeds back into the breaker and the
// response degrades to the fallback method of the serving generation. The
// returned predicted flag is true only when the model actually ran — the
// shadow sampler measures real predictions, not fallback answers.
func (s *Server) selectMethod(ctx context.Context, lm *loadedModel, m *matrix.CSR) (predictResponse, core.Selection, bool) {
	usePredictor, probe := s.breaker.allow()
	if !usePredictor {
		return fallbackResponse(lm, reasonBreakerOpen), core.Selection{}, false
	}
	sel, err := predict(ctx, lm, m)
	s.breaker.report(err == nil, probe)
	if err != nil {
		reason := reasonPredictError
		if ctx.Err() != nil {
			reason = reasonDeadline
		}
		return fallbackResponse(lm, reason), core.Selection{}, false
	}
	return selectionResponse(sel, m), sel, true
}

// predict runs the ctx-aware feature-extraction + tree-inference path, with
// the two predictor fault sites in front: serve.predict.delay (armed with
// d=... to simulate a slow predictor overrunning the deadline) and
// serve.predict.error (a failing predictor, the breaker-trip trigger).
func predict(ctx context.Context, lm *loadedModel, m *matrix.CSR) (core.Selection, error) {
	if err := faultinject.Hit("serve.predict.delay"); err != nil {
		return core.Selection{}, err
	}
	if err := faultinject.Hit("serve.predict.error"); err != nil {
		return core.Selection{}, err
	}
	if err := ctx.Err(); err != nil {
		return core.Selection{}, fmt.Errorf("serve: predict: %w", err)
	}
	return lm.w.SelectCtx(ctx, m)
}

// fallbackResponse answers with the serving generation's lowest-
// preprocessing-cost method (CSR in any paper-shaped model space), marked
// degraded so clients and dashboards can see the ladder at work.
func fallbackResponse(lm *loadedModel, reason string) predictResponse {
	fb := lm.w.Models[lm.fallback]
	return predictResponse{
		Method:   fb.Method.String(),
		Index:    lm.fallback,
		Degraded: true,
		Reason:   reason,
	}
}

// msSince is the elapsed_ms of a request that arrived at start.
func msSince(start time.Time) float64 {
	return float64(time.Since(start)) / float64(time.Millisecond)
}
