// Package serve is the long-running inference surface of the WISE
// reproduction: an HTTP/JSON server that wraps the features -> core.WISE ->
// SelectFromClasses path in production robustness machinery (RESILIENCE.md
// "Serving").
//
// The three POST routes (/predict, /matrix, /spmv) share one request
// pipeline, so each failure mode is handled in one place:
//
//   - guard (handler.go) wraps every route: request counters, panic
//     recovery (a 500 plus a counter, never a dead process), admission
//     control (bounded in-flight requests and wait queue, shedding with
//     429 + Retry-After instead of queueing without bound), and the
//     per-request deadline, threaded as context.Context through feature
//     extraction and prediction;
//   - parse is the one MatrixMarket parse, under a request-body cap and
//     matrix.ReadLimits, so a pathological upload is refused (400/413)
//     rather than OOMing the server;
//   - selectMethod is the /predict degradation ladder: prediction failures
//     and deadline overruns answer with the CSR fallback marked
//     "degraded": true, and a circuit breaker trips to fallback-only mode
//     after consecutive predictor failures, half-opening on probes;
//   - ingest (session_handlers.go) runs /matrix and inline /spmv through
//     one singleflight-deduplicated inspector pass into the prepared-matrix
//     store (internal/session, RESILIENCE.md "Stateful serving"), with one
//     build-failure path: a saturated store answers statelessly from the
//     request's own pass, marked "degraded": true, rather than refusing;
//   - lookup serves /predict and /spmv addressed by fingerprint from a
//     prepared session, with no parse, extraction or conversion;
//   - every SpMV, cached or request-local, runs through kernels.SpMVChain.
//
// Around the pipeline, the model hot-reloads on SIGHUP or mtime change
// with validation and rollback (reload.go); shutdown drains (stop
// accepting, finish in-flight work within the drain budget, record the
// sessions still pinned, exit 130 in the CLI). The model file is the one
// source of serving generations; the sha256 of its models payload is the
// generation ID, so prepared sessions re-select after every reload that
// changes the model. /healthz, /readyz, and /metricz expose liveness,
// readiness, and an obs snapshot to orchestration.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wise/internal/machine"
	"wise/internal/matrix"
	"wise/internal/obs"
	"wise/internal/session"
)

// Config tunes the server. The zero value of any field falls back to the
// listed default, so callers set only what they need.
type Config struct {
	ModelPath string          // trained model file from wise-train (required)
	Mach      machine.Machine // cache geometry for loaded models

	MaxInFlight int           // concurrent predictions; default 2*GOMAXPROCS
	MaxQueue    int           // waiting requests beyond MaxInFlight; default == MaxInFlight
	QueueWait   time.Duration // max time in the wait queue; default 100ms

	RequestTimeout time.Duration // per-request prediction deadline; default 2s
	MaxBodyBytes   int64         // request-body cap; default 64 MiB
	Limits         matrix.ReadLimits

	BreakerThreshold int           // consecutive failures that trip the breaker; default 5
	BreakerCooldown  time.Duration // open -> half-open delay; default 5s

	ReloadPoll   time.Duration // model-file mtime poll; default 2s; < 0 disables polling
	DrainTimeout time.Duration // shutdown budget for in-flight requests; default 5s

	// Stateful serving (RESILIENCE.md "Stateful serving"): POST /matrix
	// prepares a session once, POST /predict and POST /spmv reuse it by
	// fingerprint. SessionBytes is the byte budget of the prepared-matrix
	// LRU (default 256 MiB); SessionSpillDir, when set, spills prepared
	// sessions to disk in checksummed envelopes so a restart rehydrates them.
	SessionBytes    int64
	SessionSpillDir string
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = c.MaxInFlight
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 100 * time.Millisecond
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 2 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.Limits == (matrix.ReadLimits{}) {
		c.Limits = matrix.DefaultReadLimits()
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.ReloadPoll == 0 {
		c.ReloadPoll = 2 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.SessionBytes <= 0 {
		c.SessionBytes = 256 << 20
	}
	return c
}

// Server is one serving instance. Create with New, expose with Handler (for
// tests and embedding) or run with Serve (listener + drain lifecycle).
type Server struct {
	cfg      Config
	models   *modelHolder
	admit    *admission
	breaker  *breaker
	sessions *session.Store
	ready    atomic.Bool
	mux      *http.ServeMux
}

// New loads and validates the model file and assembles the server. A bad
// model path fails here — startup, not first request — so the CLI can exit
// 1 naming the flag.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	models, err := newModelHolder(&fileSource{path: cfg.ModelPath, mach: cfg.Mach})
	if err != nil {
		return nil, err
	}
	sessions, err := session.Open(session.Config{
		MaxBytes: cfg.SessionBytes,
		SpillDir: cfg.SessionSpillDir,
		RowBlock: models.current().w.Mach.RowBlock,
	})
	if err != nil {
		return nil, fmt.Errorf("serve: opening session store: %w", err)
	}
	s := &Server{
		cfg:      cfg,
		models:   models,
		admit:    newAdmission(cfg.MaxInFlight, cfg.MaxQueue, cfg.QueueWait),
		breaker:  newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		sessions: sessions,
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /predict", s.guard(nil, s.handlePredict))
	s.mux.HandleFunc("POST /matrix", s.guard(requestsMatrix, s.handleMatrix))
	s.mux.HandleFunc("POST /spmv", s.guard(requestsSpMV, s.handleSpMV))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metricz", s.handleMetricz)
	return s, nil
}

// Handler returns the server's HTTP handler (all routes).
func (s *Server) Handler() http.Handler { return s.mux }

// ModelCount reports the number of models in the serving generation.
func (s *Server) ModelCount() int { return len(s.models.current().w.Models) }

// GenerationID reports the generation currently serving: the sha256 of its
// models payload.
func (s *Server) GenerationID() string { return s.models.current().sum }

// Sessions returns the prepared-matrix session store.
func (s *Server) Sessions() *session.Store { return s.sessions }

// Reload forces a model reload (the SIGHUP path, callable directly by
// tests and embedders). See modelHolder.Reload for the rollback contract.
func (s *Server) Reload() error { return s.models.Reload() }

// SetReady toggles the /readyz gate; Serve manages it automatically.
func (s *Server) SetReady(v bool) { s.ready.Store(v) }

// Serve accepts connections on ln until ctx is cancelled, then drains:
// readiness flips off, the listener closes, in-flight requests get
// DrainTimeout to finish, and whatever remains is cancelled. It returns
// ctx.Err() after a clean drain (the CLI maps context.Canceled to exit
// 130), or the listener/serve error if the server fails first. The model
// watcher (SIGHUP + mtime poll) runs for the lifetime of the call; all
// goroutines are joined before returning.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	watchCtx, cancelWatch := context.WithCancel(ctx)
	defer cancelWatch()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.models.watch(watchCtx, s.cfg.ReloadPoll)
	}()
	serveErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		serveErr <- srv.Serve(ln)
	}()
	s.ready.Store(true)
	defer s.ready.Store(false)

	var err error
	select {
	case e := <-serveErr:
		err = fmt.Errorf("serve: listener failed: %w", e)
	case <-ctx.Done():
		s.ready.Store(false)
		// Record how many sessions in-flight executions still pin at the
		// SIGTERM instant, so the final metrics snapshot covers stateful
		// work alongside the in-flight request drain.
		pinned := s.sessions.PinnedCount()
		drainPinnedSessions.Set(float64(pinned))
		if pinned > 0 {
			obs.Verbosef("serve: draining with %d pinned sessions", pinned)
		}
		// The drain deadline must outlive the cancelled serve ctx, but keep
		// its values (WithoutCancel) so the lint contract sees the chain.
		drainCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), s.cfg.DrainTimeout)
		if shutdownErr := srv.Shutdown(drainCtx); shutdownErr != nil {
			// Drain budget exhausted: cancel the stragglers.
			_ = srv.Close()
		}
		cancel()
		<-serveErr // always http.ErrServerClosed once Shutdown/Close ran
		err = ctx.Err()
	}
	cancelWatch()
	wg.Wait()
	return err
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = fmt.Fprintln(w, "draining")
		return
	}
	_, _ = fmt.Fprintf(w, "ready: %d models, breaker %s\n", s.ModelCount(), s.breaker.currentState())
}

func (s *Server) handleMetricz(w http.ResponseWriter, r *http.Request) {
	data, err := obs.TakeSnapshot().MarshalIndent()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(append(data, '\n')); err != nil {
		obs.Verbosef("serve: writing /metricz response: %v", err)
	}
}

// writeJSON writes one JSON response. Encode failures after the header is
// out are connection-level (client gone); they are narrated, not returned.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	data, err := json.Marshal(v)
	if err != nil {
		obs.Verbosef("serve: encoding response: %v", err)
		return
	}
	if _, err := w.Write(append(data, '\n')); err != nil {
		obs.Verbosef("serve: writing response: %v", err)
	}
}
