package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"wise/internal/core"
	"wise/internal/features"
	"wise/internal/kernels"
	"wise/internal/matrix"
	"wise/internal/session"
)

// The stateful endpoints (RESILIENCE.md "Stateful serving"): POST /matrix
// prepares a session — parse, feature extraction, prediction, format
// conversion — exactly once per distinct body and returns its sha256
// fingerprint; POST /spmv executes the selected kernel against the cached
// converted artifact, warm when addressed by fingerprint. Saturation of the
// session store degrades both to the stateless path, marked
// "degraded": true — never a refusal.

// reasonSessionSaturated marks answers produced by the stateless path
// because the session store could not admit the entry.
const reasonSessionSaturated = "session-saturated"

// matrixResponse is the JSON body of a /matrix answer: the prediction plus
// the session handle. Stored is false on the degraded stateless path (the
// fingerprint is still reported so the client can retry warm later);
// Cached is true when the upload hit an already-prepared session.
type matrixResponse struct {
	predictResponse
	Stored bool `json:"stored"`
}

// spmvRequest is the JSON body of a /spmv call. Exactly one of Fingerprint
// (a prepared session) or Matrix (an inline MatrixMarket text) must be set.
// X defaults to the all-ones vector; Iterations > 1 chains y = A^k x and
// requires a square matrix.
type spmvRequest struct {
	Fingerprint string    `json:"fingerprint"`
	Matrix      string    `json:"matrix"`
	X           []float64 `json:"x"`
	Iterations  int       `json:"iterations"`
}

// spmvResponse is the JSON body of a /spmv answer. Y is included for small
// results (<= spmvInlineRows rows); YNorm always summarizes it. Warm means
// the execution reused a cached converted artifact end to end.
type spmvResponse struct {
	Fingerprint string    `json:"fingerprint,omitempty"`
	Method      string    `json:"method"`
	Warm        bool      `json:"warm"`
	Degraded    bool      `json:"degraded"`
	Reason      string    `json:"reason,omitempty"`
	Rows        int       `json:"rows"`
	Cols        int       `json:"cols"`
	NNZ         int       `json:"nnz"`
	Iterations  int       `json:"iterations"`
	Y           []float64 `json:"y,omitempty"`
	YNorm       float64   `json:"y_norm"`
	ElapsedMS   float64   `json:"elapsed_ms"`
}

const (
	spmvInlineRows    = 1024  // largest result vector echoed in the response
	spmvMaxIterations = 10000 // request-abuse bound on chained multiplies
)

// prepare is the session BuildFunc: one full inspector pass over an
// uploaded body under the request's deadline. Parse failures wrap
// errBadMatrix so the handler answers 400, not 500.
func (s *Server) prepare(ctx context.Context, lm *loadedModel, body []byte) (*session.Prepared, error) {
	m, err := s.parse(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	feat, err := features.ExtractCtx(ctx, m, lm.w.FeatureCfg)
	if err != nil {
		return nil, err
	}
	sel := lm.w.SelectFromFeatures(feat)
	return &session.Prepared{
		M:      m,
		Feat:   feat,
		Sel:    sel,
		GenID:  lm.sum,
		Format: kernels.Build(m, sel.Method, lm.w.Mach.RowBlock),
	}, nil
}

// readBody drains the capped request body. On failure it rejects the
// request (413 for an over-cap body, 400 otherwise) and reports false.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		reject(w, err)
		return nil, false
	}
	return body, true
}

// ingest pins the prepared session for body, running one singleflight-
// deduplicated inspector pass on a miss; the caller releases ent. It is the
// one build-failure path of /matrix and inline /spmv:
//
//   - a saturated store returns no entry but the Prepared to answer
//     statelessly from: the one this request's own build made, or, for a
//     singleflight waiter (which shares the leader's error but not its
//     Prepared), one pass of its own;
//   - a blown deadline returns the build error unanswered, because the
//     routes degrade differently;
//   - a bad body (400) or any other failure (500) is answered here, and
//     everything returned is nil.
func (s *Server) ingest(ctx context.Context, w http.ResponseWriter, lm *loadedModel, fp string, body []byte) (ent *session.Entry, hit bool, p *session.Prepared, deadlineErr error) {
	ent, hit, err := s.sessions.GetOrCreate(ctx, fp, func(ctx context.Context) (*session.Prepared, error) {
		var err error
		p, err = s.prepare(ctx, lm, body)
		return p, err
	})
	if err == nil {
		return ent, hit, nil, nil
	}
	if errors.Is(err, session.ErrSaturated) {
		if p == nil {
			p, err = s.prepare(ctx, lm, body)
		}
		if p != nil {
			sessionsDegraded.Inc()
			return nil, false, p, nil
		}
	}
	switch {
	case errors.Is(err, errBadMatrix):
		reject(w, err)
	case ctx.Err() != nil:
		return nil, false, nil, err
	default:
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
	}
	return nil, false, nil, nil
}

// handleMatrix ingests a matrix into the session store. The response always
// carries the fingerprint; a saturated store answers statelessly and a blown
// deadline with the CSR fallback, both with "degraded": true.
func (s *Server) handleMatrix(ctx context.Context, w http.ResponseWriter, r *http.Request, start time.Time) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	fp := session.Fingerprint(body)
	lm := s.models.current()
	ent, hit, p, err := s.ingest(ctx, w, lm, fp, body)
	var resp matrixResponse
	switch {
	case ent != nil:
		defer s.sessions.Release(ent)
		sel := s.sessions.Refresh(ent, lm.sum, lm.w.SelectFromFeatures)
		resp = matrixResponse{predictResponse: selectionResponse(sel, ent.Matrix()), Stored: true}
		resp.Cached = hit
	case p != nil:
		requestsDegraded.Inc()
		resp = matrixResponse{predictResponse: selectionResponse(p.Sel, p.M)}
		resp.Degraded, resp.Reason = true, reasonSessionSaturated
	case err != nil:
		requestsDegraded.Inc()
		resp = matrixResponse{predictResponse: fallbackResponse(lm, reasonDeadline)}
	default:
		return
	}
	resp.Fingerprint = fp
	resp.ElapsedMS = msSince(start)
	writeJSON(w, http.StatusOK, resp)
}

// handleSpMV executes y = A^k x against a prepared session (warm: the
// cached converted artifact, zero preprocessing) or an inline body (cold:
// the full inspector pass, cached for next time). The execution pins the
// session, so eviction cannot free the artifact mid-multiply.
func (s *Server) handleSpMV(ctx context.Context, w http.ResponseWriter, r *http.Request, start time.Time) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var req spmvRequest
	if err := json.Unmarshal(body, &req); err != nil {
		reject(w, fmt.Errorf("serve: decoding /spmv request: %w", err))
		return
	}
	if (req.Fingerprint == "") == (req.Matrix == "") {
		reject(w, errors.New("serve: /spmv needs exactly one of \"fingerprint\" or \"matrix\""))
		return
	}
	if req.Iterations <= 0 {
		req.Iterations = 1
	}
	if req.Iterations > spmvMaxIterations {
		reject(w, fmt.Errorf("serve: iterations %d exceeds the %d cap", req.Iterations, spmvMaxIterations))
		return
	}
	workers := kernels.DefaultWorkers()

	lm := s.models.current()
	fp, warm := req.Fingerprint, true
	var ent *session.Entry
	var sel core.Selection
	if fp != "" {
		if ent, sel, ok = s.lookup(w, lm, fp); !ok {
			return
		}
	} else {
		// Inline body: content-address it and prepare (or reuse) the session.
		inline := []byte(req.Matrix)
		fp = session.Fingerprint(inline)
		var p *session.Prepared
		var err error
		ent, warm, p, err = s.ingest(ctx, w, lm, fp, inline)
		switch {
		case p != nil:
			// Saturated store: run the request-local format and discard it.
			// It is never shared, so no pinning or execution serialization.
			spmvCold.Inc()
			answerSpMV(w, req, p.M, spmvResponse{Fingerprint: fp, Method: p.Sel.Method.String(), Degraded: true, Reason: reasonSessionSaturated}, start,
				func(x []float64) ([]float64, error) {
					return kernels.SpMVChain(ctx, p.M.Rows, x, req.Iterations, func(y, x []float64) { p.Format.SpMVParallel(y, x, workers) })
				})
			return
		case err != nil:
			// Deadline gone: an execution cannot be faked by a fallback answer.
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
			return
		case ent == nil:
			return
		}
		sel = s.sessions.Refresh(ent, lm.sum, lm.w.SelectFromFeatures)
	}
	defer s.sessions.Release(ent)
	if warm {
		spmvWarm.Inc()
	} else {
		spmvCold.Inc()
	}
	answerSpMV(w, req, ent.Matrix(), spmvResponse{Fingerprint: fp, Method: sel.Method.String(), Warm: warm}, start,
		func(x []float64) ([]float64, error) { return s.sessions.Exec(ctx, ent, x, req.Iterations, workers) })
}

// answerSpMV checks the request's vector against m, runs exec on it, and
// answers with resp completed by the result, echoing y only for small
// results. An execution error (the deadline) is 503.
func answerSpMV(w http.ResponseWriter, req spmvRequest, m *matrix.CSR, resp spmvResponse, start time.Time, exec func(x []float64) ([]float64, error)) {
	x, err := spmvVector(m, req)
	if err != nil {
		reject(w, err)
		return
	}
	y, err := exec(x)
	if err != nil {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
		return
	}
	if resp.Degraded {
		requestsDegraded.Inc()
	}
	resp.Rows, resp.Cols, resp.NNZ = m.Rows, m.Cols, m.NNZ()
	resp.Iterations = req.Iterations
	resp.YNorm = matrix.Norm2(y)
	if m.Rows <= spmvInlineRows {
		resp.Y = y
	}
	resp.ElapsedMS = msSince(start)
	writeJSON(w, http.StatusOK, resp)
}

// spmvVector resolves the input vector for a request: the client's x
// (length-checked) or the all-ones default. Multi-iteration runs need a
// square matrix.
func spmvVector(m *matrix.CSR, req spmvRequest) ([]float64, error) {
	if req.Iterations > 1 && m.Rows != m.Cols {
		return nil, fmt.Errorf("serve: iterations > 1 needs a square matrix, got %dx%d", m.Rows, m.Cols)
	}
	if req.X == nil {
		return matrix.Ones(m.Cols), nil
	}
	if len(req.X) != m.Cols {
		return nil, fmt.Errorf("serve: x has %d entries, matrix has %d columns", len(req.X), m.Cols)
	}
	return req.X, nil
}
