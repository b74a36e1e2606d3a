// Fixture: true positives for the resourcelifecycle analyzer.
//
//lint:path wise/internal/serve/lintfixture
package lintfixture

import (
	"context"
	"errors"
	"os"
	"time"
)

func work(ctx context.Context) error { return ctx.Err() }

// badTickerNeverStopped leaks the ticker: nothing ever calls Stop.
func badTickerNeverStopped(done chan struct{}) {
	tick := time.NewTicker(time.Second) // want resourcelifecycle
	for {
		select {
		case <-tick.C:
		case <-done:
			return
		}
	}
}

// badCancelDiscarded throws the CancelFunc away at the binding site.
func badCancelDiscarded(parent context.Context) context.Context {
	ctx, _ := context.WithCancel(parent) // want resourcelifecycle
	return ctx
}

// badCancelOnePath calls cancel on the fast path only; the slow path leaks
// the context's resources until the parent dies.
func badCancelOnePath(parent context.Context, fast bool) error {
	ctx, cancel := context.WithCancel(parent) // want resourcelifecycle
	if fast {
		cancel()
		return nil
	}
	return work(ctx)
}

// badFileLeakedOnBranch closes the file on the success path but leaks the
// descriptor when validation fails.
func badFileLeakedOnBranch(path string, limit int64) error {
	f, err := os.Open(path) // want resourcelifecycle
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		return err // leak: f is open and nothing closes it
	}
	if st.Size() > limit {
		return errors.New("too large") // leak here too
	}
	return f.Close()
}

// badTimerNeverStopped acquires a timer and returns without stopping it.
func badTimerNeverStopped(d time.Duration, ch chan struct{}) {
	t := time.NewTimer(d) // want resourcelifecycle
	select {
	case <-t.C:
	case <-ch:
	}
}

// poller spawns a long-lived goroutine from Start with no way to stop it.
type poller struct {
	interval time.Duration
}

func (p *poller) Start() { // want resourcelifecycle
	go func() {
		for {
			time.Sleep(p.interval)
		}
	}()
}

// statFile is a module-internal helper that only reads the file. It neither
// closes, stores nor forwards it, so the caller stays responsible. (The Stat
// result is deliberately left unbound: binding it would count as a store.)
func statFile(f *os.File) {
	f.Stat()
}

// badPassedToReader hands the file to a helper that only reads it: the
// interprocedural check walks into statFile, finds no release, and keeps the
// leak on the caller.
func badPassedToReader(path string) error {
	f, err := os.Open(path) // want resourcelifecycle
	if err != nil {
		return err
	}
	statFile(f)
	return nil
}
