package serve

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"wise/internal/core"
	"wise/internal/machine"
	"wise/internal/obs"
	"wise/internal/resilience"
	"wise/internal/resilience/faultinject"
)

// loadedModel is one immutable generation of the serving model: the trained
// framework, the precomputed index of the cheapest (CSR) method used as the
// degradation fallback, and the model file's identity at load time, which
// change polling compares against. Generations are swapped atomically;
// in-flight requests keep the pointer they started with.
type loadedModel struct {
	w        *core.WISE
	fallback int // index into w.Space() of the lowest-preprocessing method

	// The model file's identity at load time. sum is the sha256 of the
	// loaded models payload (core.LoadSum) and doubles as the generation
	// ID: prepared sessions re-select exactly when it moves. For an
	// enveloped file it equals the header checksum, the tiebreaker that
	// catches same-mtime rewrites on coarse-timestamp filesystems.
	mtime time.Time
	size  int64
	sum   string
}

// newLoadedModel wraps a validated framework with its fallback index.
func newLoadedModel(w *core.WISE) (*loadedModel, error) {
	if len(w.Models) == 0 {
		return nil, fmt.Errorf("serve: empty model space")
	}
	fallback := 0
	for i, m := range w.Models {
		if m.Method.PreprocessRank() < w.Models[fallback].Method.PreprocessRank() {
			fallback = i
		}
	}
	return &loadedModel{w: w, fallback: fallback}, nil
}

// fileSource is where generations come from: a single model file
// (wise-train output), reloaded when its identity on disk changes.
type fileSource struct {
	path string
	mach machine.Machine
}

// load validates the model file into a fresh generation.
func (f *fileSource) load() (*loadedModel, error) {
	fi, err := os.Stat(f.path)
	if err != nil {
		return nil, fmt.Errorf("serve: models %s: %w", f.path, err)
	}
	w, sum, err := core.LoadSum(f.path, f.mach)
	if err != nil {
		return nil, err
	}
	lm, err := newLoadedModel(w)
	if err != nil {
		return nil, fmt.Errorf("serve: models %s: %w", f.path, err)
	}
	lm.mtime, lm.size, lm.sum = fi.ModTime(), fi.Size(), sum
	return lm, nil
}

// changed reports whether the model file's identity differs from the
// serving generation — the mtime-poll reload trigger. mtime or size moving
// is a change; when both match, the envelope checksum breaks the tie, so a
// same-size rewrite within one timestamp granule (coarse-timestamp
// filesystems, fast CI) still triggers a reload. A legacy non-enveloped
// file has no header to peek, so its identity is mtime+size only. Stat
// errors read as "unchanged": a transient missing file during an external
// atomic replace must not spam rejected reloads.
func (f *fileSource) changed(cur *loadedModel) bool {
	fi, err := os.Stat(f.path)
	if err != nil {
		return false
	}
	if !fi.ModTime().Equal(cur.mtime) || fi.Size() != cur.size {
		return true
	}
	sum := peekSum(f.path)
	return sum != "" && cur.sum != "" && sum != cur.sum
}

// peekSum reads the envelope header checksum, or "" when the file is
// legacy, unreadable, or mid-replace.
func peekSum(path string) string {
	sum, err := resilience.PeekHeaderChecksum(path)
	if err != nil {
		return ""
	}
	return sum
}

// modelHolder owns the current model generation and the reload protocol:
// the file source validates a candidate into a fresh generation, and only a
// fully valid one is swapped in — a corrupt file on disk leaves the
// previous generation serving and bumps serve.model_reloads_rejected.
type modelHolder struct {
	src *fileSource
	cur atomic.Pointer[loadedModel]
}

func newModelHolder(src *fileSource) (*modelHolder, error) {
	h := &modelHolder{src: src}
	lm, err := src.load()
	if err != nil {
		return nil, err
	}
	h.cur.Store(lm)
	return h, nil
}

// current returns the serving generation.
func (h *modelHolder) current() *loadedModel { return h.cur.Load() }

// Reload validates the model file and swaps it in. On any failure —
// including an injected serve.reload.corrupt fault standing in for a
// half-written or truncated file — the previous generation keeps serving
// and the rejection is counted; the error describes what was wrong.
func (h *modelHolder) Reload() error {
	lm, err := h.reloadCandidate()
	if err != nil {
		modelReloadsRejected.Inc()
		return fmt.Errorf("serve: reload rejected, keeping previous model: %w", err)
	}
	h.cur.Store(lm)
	modelReloads.Inc()
	return nil
}

func (h *modelHolder) reloadCandidate() (*loadedModel, error) {
	if err := faultinject.Hit("serve.reload.corrupt"); err != nil {
		return nil, err
	}
	return h.src.load()
}

// watch drives hot reload until ctx is cancelled: SIGHUP forces a reload,
// and every poll interval the model file's identity is compared against
// the serving generation. Reload failures are reported through the counter
// and verbose log only — a bad file must never take down a serving process.
func (h *modelHolder) watch(ctx context.Context, poll time.Duration) {
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	if poll <= 0 {
		poll = time.Hour // SIGHUP-only reload; the ticker just parks
	}
	tick := time.NewTicker(poll)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-hup:
			h.logReload(h.Reload())
		case <-tick.C:
			if h.src.changed(h.current()) {
				h.logReload(h.Reload())
			}
		}
	}
}

func (h *modelHolder) logReload(err error) {
	if err != nil {
		obs.Verbosef("serve: %v", err)
		return
	}
	obs.Verbosef("serve: reloaded models from %s (%d models)", h.src.path, len(h.current().w.Models))
}
