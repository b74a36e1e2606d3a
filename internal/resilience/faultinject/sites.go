package faultinject

// Registry is the catalogue of every named injection site in the module,
// mapping the site string to a one-line description of what failing there
// exercises. The faultsite analyzer (internal/lint) enforces that every
// faultinject.Hit/Writer call uses a site registered here, that each site is
// marked at exactly one production call site, and that at least one test in
// the site's package arms it — so the registry, the code, and the recovery
// tests cannot drift apart. Add the entry in the same change that adds the
// Hit/Writer call.
var Registry = map[string]string{
	"perf.label.interrupt":            "fail the labeling loop between matrices; exercises checkpoint flush + resume",
	"perf.label.matrix":               "panic/fail inside one matrix's measurement; exercises per-matrix quarantine",
	"resilience.atomic.write":         "truncate or fail the atomic-file data stream; exercises torn-write recovery",
	"resilience.atomic.rename":        "fail the final rename of an atomic write; exercises leftover-temp cleanup",
	"serve.handler.panic":             "panic in the request guard every POST route runs first; exercises per-request recovery (500, process survives)",
	"serve.predict.error":             "fail the predictor; exercises CSR-fallback degradation and breaker trips",
	"serve.predict.delay":             "stall the predictor (d=...); exercises deadline-overrun degradation",
	"serve.reload.corrupt":            "fail model-reload validation; exercises rollback to the serving generation",
	"shadow.exec.panic":               "panic inside a shadow-measurement worker; exercises the worker-pool panic quarantine",
	"retrain.fail":                    "fail the drift-triggered retrain; exercises retrain quarantine and retry on the next trip",
	"registry.publish.crash":          "crash between writing a generation file and the manifest swap; exercises last-good recovery on restart",
	"promote.reject":                  "force the canary gate to reject a candidate generation; exercises promotion refusal without a manifest change",
	"session.spill.corrupt":           "corrupt (error) or crash (panic) a session spill write; exercises quarantine-and-rebuild on restart",
	"session.evict.race":              "fail (skip victim) or crash eviction between victim choice and removal; exercises pinned-eviction refusal and crash-mid-eviction recovery",
	"session.singleflight.leaderfail": "fail the singleflight leader's build; exercises leader-error propagation to every waiter",
	"session.exec.panic":              "panic inside cached-kernel execution; exercises per-request recovery with a session pin held",
}

// Registered reports whether site is a known injection site.
func Registered(site string) bool {
	_, ok := Registry[site]
	return ok
}
