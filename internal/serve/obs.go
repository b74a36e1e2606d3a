package serve

import "wise/internal/obs"

// Observability instruments of the serving path (OBSERVABILITY.md). All are
// in the default registry, so -metrics snapshots and the /metricz endpoint
// expose them without extra wiring.
var (
	requestsTotal    = obs.NewCounter("serve.requests_total")
	requestsShed     = obs.NewCounter("serve.requests_shed")
	requestsDegraded = obs.NewCounter("serve.requests_degraded")
	requestsPanicked = obs.NewCounter("serve.requests_panicked")
	requestsRejected = obs.NewCounter("serve.requests_rejected")

	// Stateful serving (internal/session, RESILIENCE.md "Stateful serving").
	requestsMatrix   = obs.NewCounter("serve.requests_matrix")
	requestsSpMV     = obs.NewCounter("serve.requests_spmv")
	spmvWarm         = obs.NewCounter("serve.spmv_warm")
	spmvCold         = obs.NewCounter("serve.spmv_cold")
	sessionsDegraded = obs.NewCounter("serve.sessions_degraded")

	// Sessions still pinned by in-flight executions at the SIGTERM instant,
	// recorded by the drain path for the final metrics snapshot.
	drainPinnedSessions = obs.NewGauge("serve.drain_pinned_sessions")

	breakerTrips = obs.NewCounter("serve.breaker_trips")
	breakerGauge = obs.NewGauge("serve.breaker_state")

	modelReloads         = obs.NewCounter("serve.model_reloads")
	modelReloadsRejected = obs.NewCounter("serve.model_reloads_rejected")

	inFlight = obs.NewGauge("serve.in_flight")

	requestSeconds = obs.NewHistogram("serve.request_seconds", nil)
)
