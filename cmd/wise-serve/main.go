// wise-serve runs the fault-tolerant inference server (internal/serve):
// POST a MatrixMarket matrix to /predict and get the selected SpMV method
// as JSON. The server bounds concurrent work (429 + Retry-After when
// saturated), degrades to the CSR fallback instead of failing when the
// predictor errors or overruns the request deadline, trips a circuit
// breaker under repeated predictor failures, and hot-reloads the model
// file on SIGHUP or change (mtime, size, or envelope checksum) with
// rollback on a corrupt file. The sha256 of the loaded models is the
// serving generation's ID, so a reload that changes the models re-selects
// every prepared session (below) on its next request.
//
//	wise-serve -models models.json -addr 127.0.0.1:8080
//	curl -sS --data-binary @matrix.mtx http://127.0.0.1:8080/predict
//
// Stateful serving (RESILIENCE.md "Stateful serving"): POST the matrix once
// to /matrix and reuse its content fingerprint — warm requests skip parse,
// feature extraction, and format conversion entirely. /spmv executes the
// product with the predicted kernel, by fingerprint or with an inline body:
//
//	fp=$(curl -sS --data-binary @matrix.mtx http://127.0.0.1:8080/matrix | jq -r .fingerprint)
//	curl -sS "http://127.0.0.1:8080/predict?fp=$fp"
//	curl -sS -d "{\"fingerprint\":\"$fp\",\"iterations\":8}" http://127.0.0.1:8080/spmv
//
// Prepared sessions live in a byte-budgeted LRU (-session-bytes); with
// -session-spill they are persisted as checksummed envelopes and rehydrated
// after a restart (corrupt files are quarantined, never served). When the
// budget is saturated the server answers statelessly, marked degraded —
// never a refusal.
//
// /healthz, /readyz, and /metricz expose liveness, readiness, and the obs
// metric snapshot. The shared observability flags (-v, -metrics,
// -cpuprofile, -memprofile) are documented in OBSERVABILITY.md.
//
// The server's mutex-guarded state (the circuit breaker's automaton) is
// annotated `// guarded by mu`. No static analyzer checks the annotation:
// the race-detector gates in scripts/check.sh enforce it, and go vet's
// copylocks catches a copied mutex (RESILIENCE.md).
//
// Exit codes (RESILIENCE.md): 0 never in normal operation (the server runs
// until signalled), 1 startup or listener failure naming the offending
// flag, 2 usage error, 130 after SIGINT/SIGTERM once in-flight requests
// have drained.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"wise/internal/machine"
	"wise/internal/obs"
	"wise/internal/resilience"
	"wise/internal/resilience/faultinject"
	"wise/internal/serve"
)

// Exit codes, shared by the wise CLIs and documented in RESILIENCE.md.
const (
	exitOK          = 0
	exitIO          = 1
	exitUsage       = 2
	exitInterrupted = 130 // SIGINT/SIGTERM after drain (128+SIGINT)
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		models      = flag.String("models", "models.json", "trained model file from wise-train; reloaded on SIGHUP or mtime change")
		timeout     = flag.Duration("timeout", 2*time.Second, "per-request prediction deadline before degrading to the CSR fallback")
		maxInflight = flag.Int("max-inflight", 0, "max concurrent predictions (0 = 2x GOMAXPROCS)")
		maxQueue    = flag.Int("queue", 0, "max requests waiting for a slot (0 = same as -max-inflight)")
		queueWait   = flag.Duration("queue-wait", 100*time.Millisecond, "max time a request waits in the queue before shedding with 429")
		maxBody     = flag.Int64("max-body", 64<<20, "request body cap in bytes")
		drain       = flag.Duration("drain", 5*time.Second, "shutdown budget for in-flight requests after SIGINT/SIGTERM")
		reloadPoll  = flag.Duration("reload-poll", 2*time.Second, "model-file change poll interval (negative disables polling)")
		brkThresh   = flag.Int("breaker-threshold", 5, "consecutive predictor failures that trip the circuit breaker")
		brkCooldown = flag.Duration("breaker-cooldown", 5*time.Second, "how long the tripped breaker stays open before probing")

		sessionBytes = flag.Int64("session-bytes", 256<<20, "prepared-session cache budget in bytes; least-recently-used sessions are evicted past it")
		sessionSpill = flag.String("session-spill", "", "session spill directory; prepared sessions survive restarts via checksummed envelopes (empty = in-memory only)")
	)
	obsFlags := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "wise-serve: usage: wise-serve [-addr host:port] [-models file] (no positional arguments)")
		return exitUsage
	}
	if err := faultinject.ConfigureFromEnv(os.Getenv); err != nil {
		fmt.Fprintf(os.Stderr, "wise-serve: %v\n", err)
		return exitUsage
	}
	// Flags are validated before any IO: a nonsensical budget is a usage
	// error (exit 2) naming the flag, per RESILIENCE.md.
	if *sessionBytes <= 0 {
		fmt.Fprintf(os.Stderr, "wise-serve: -session-bytes %d must be positive\n", *sessionBytes)
		return exitUsage
	}
	if *sessionSpill != "" {
		// Fail before binding the listener so a bad spill path names its flag.
		if err := os.MkdirAll(*sessionSpill, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "wise-serve: creating -session-spill %s: %v\n", *sessionSpill, err)
			return exitIO
		}
	}
	finishObs := obsFlags.MustStart()
	defer func() {
		if err := finishObs(); err != nil {
			fmt.Fprintf(os.Stderr, "wise-serve: %v\n", err)
		}
	}()

	s, err := serve.New(serve.Config{
		ModelPath:        *models,
		Mach:             machine.Scaled(),
		MaxInFlight:      *maxInflight,
		MaxQueue:         *maxQueue,
		QueueWait:        *queueWait,
		RequestTimeout:   *timeout,
		MaxBodyBytes:     *maxBody,
		BreakerThreshold: *brkThresh,
		BreakerCooldown:  *brkCooldown,
		ReloadPoll:       *reloadPoll,
		DrainTimeout:     *drain,
		SessionBytes:     *sessionBytes,
		SessionSpillDir:  *sessionSpill,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "wise-serve: loading -models %s: %v\n", *models, err)
		return exitIO
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wise-serve: listening on -addr %s: %v\n", *addr, err)
		return exitIO
	}
	// The resolved address (not the flag) so port 0 is usable by scripts.
	fmt.Printf("wise-serve: listening on http://%s (%d models from %s)\n",
		ln.Addr(), s.ModelCount(), *models)

	ctx, stop := resilience.SignalContext(context.Background())
	defer stop()
	err = s.Serve(ctx, ln)
	if errors.Is(err, context.Canceled) {
		fmt.Println("wise-serve: drained, shutting down")
		return exitInterrupted
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "wise-serve: %v\n", err)
		return exitIO
	}
	return exitOK
}
