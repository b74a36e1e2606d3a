// Fixture: true negatives for the resourcelifecycle analyzer — defers,
// per-path releases, ownership transfers, and a joined Start/Stop pair.
//
//lint:path wise/internal/serve/lintfixture
package lintfixture

import (
	"context"
	"errors"
	"io"
	"os"
	"sync"
	"time"
)

// cleanDeferStop is the canonical shape: defer directly after acquiring.
func cleanDeferStop(done chan struct{}) {
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
		case <-done:
			return
		}
	}
}

// cleanDeferCancel releases via defer of the CancelFunc itself.
func cleanDeferCancel(parent context.Context) error {
	ctx, cancel := context.WithTimeout(parent, time.Second)
	defer cancel()
	return work(ctx)
}

// cleanDeferClosure releases inside a deferred closure.
func cleanDeferClosure(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer func() {
		f.Close()
	}()
	_, err = f.Stat()
	return err
}

// cleanEveryPath releases explicitly on each branch instead of deferring.
func cleanEveryPath(parent context.Context, fast bool) error {
	ctx, cancel := context.WithCancel(parent)
	if fast {
		cancel()
		return nil
	}
	err := work(ctx)
	cancel()
	return err
}

// cleanReturnClose releases as the return expression.
func cleanReturnClose(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return f.Close()
}

// cleanOwnershipReturned transfers the open file to the caller.
func cleanOwnershipReturned(path string) (*os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return f, nil
}

type fileHolder struct {
	f *os.File
}

// cleanOwnershipStored transfers the file into a struct the caller releases.
func cleanOwnershipStored(path string) (*fileHolder, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return &fileHolder{f: f}, nil
}

// consumeFile is a module-internal callee that takes over the file: the
// interprocedural check sees the Close in its body.
func consumeFile(f *os.File) error {
	defer f.Close()
	_, err := io.Copy(io.Discard, f)
	return err
}

// cleanOwnershipPassed hands the file to a callee that closes it; the
// interprocedural check walks into consumeFile rather than assuming every
// module-internal call keeps the caller responsible.
func cleanOwnershipPassed(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	err = consumeFile(f)
	return err
}

// worker pairs Start with a Stop that joins via cancel + WaitGroup.
type worker struct {
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func (w *worker) Start(parent context.Context) {
	ctx, cancel := context.WithCancel(parent)
	w.cancel = cancel
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		for {
			select {
			case <-ctx.Done():
				return
			case <-time.After(time.Second):
			}
		}
	}()
}

func (w *worker) Stop() {
	w.cancel()
	w.wg.Wait()
}

// cleanSuppressed documents the rationale escape hatch: the timer is owned by
// the select that always drains it before return, a shape the path analysis
// cannot prove.
func cleanSuppressed(d time.Duration, ch chan struct{}) {
	//lint:ignore resourcelifecycle the timer fires exactly once and the select below always drains C before returning
	t := time.NewTimer(d)
	<-t.C
	close(ch)
}

// forwardFile hands its parameter on to consumeFile, which closes it.
func forwardFile(f *os.File) error {
	if consumeFile(f) != nil {
		return errors.New("consume failed")
	}
	return nil
}

// cleanOwnershipForwarded passes the file through a forwarding helper: the
// interprocedural check follows forwardFile into consumeFile and finds the
// Close two calls down.
func cleanOwnershipForwarded(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	err = forwardFile(f)
	return err
}
