// Package core implements the WISE framework itself (paper Section 4): a
// per-{method, parameter} set of decision-tree performance models over the
// Table 2 feature set, the method-selection heuristic with
// preprocessing-cost tie-breaking, and the end-to-end pipeline
// (extract features -> predict speedup classes -> select -> transform ->
// run SpMV).
package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"wise/internal/features"
	"wise/internal/kernels"
	"wise/internal/machine"
	"wise/internal/matrix"
	"wise/internal/ml"
	"wise/internal/obs"
	"wise/internal/perf"
	"wise/internal/resilience"
)

// Observability instruments (documented in OBSERVABILITY.md).
var (
	selections    = obs.NewCounter("core.selections")
	modelsTrained = obs.NewCounter("core.models_trained")
)

// Model pairs one {method, parameter} combination with its trained
// performance predictor.
type Model struct {
	Method kernels.Method
	Tree   *ml.Tree
}

// WISE is a trained framework instance.
type WISE struct {
	Mach       machine.Machine
	FeatureCfg features.Config
	Models     []Model
}

// Space returns the methods covered by the models, in model order.
func (w *WISE) Space() []kernels.Method {
	out := make([]kernels.Method, len(w.Models))
	for i, m := range w.Models {
		out[i] = m.Method
	}
	return out
}

// Train fits one decision tree per method on a labeled corpus. The i-th
// model predicts the speedup class of space method i from the matrix
// features.
func Train(labels []perf.MatrixLabels, treeCfg ml.TreeConfig, featCfg features.Config, mach machine.Machine) (*WISE, error) {
	if len(labels) == 0 {
		return nil, fmt.Errorf("core: empty training corpus")
	}
	space := labels[0].Methods
	w := &WISE{Mach: mach, FeatureCfg: featCfg}
	X := make([][]float64, len(labels))
	names := labels[0].Features.Names
	for i, l := range labels {
		X[i] = l.Features.Values
	}
	for mi, method := range space {
		y := make([]int, len(labels))
		for i, l := range labels {
			y[i] = l.Classes[mi]
		}
		tree, err := ml.Fit(ml.Dataset{
			X: X, Y: y,
			NumClasses:   perf.NumClasses,
			FeatureNames: names,
		}, treeCfg)
		if err != nil {
			return nil, fmt.Errorf("core: training model for %s: %w", method, err)
		}
		w.Models = append(w.Models, Model{Method: method, Tree: tree})
		modelsTrained.Inc()
	}
	return w, nil
}

// Extend adds a performance model for one new {method, parameter} pair to a
// trained framework — the paper's Section 7 extensibility property: because
// each model predicts its own method's speedup class independently, the
// existing 29 models are untouched. labels must contain classes for the new
// method (see perf.ExtendLabels).
func (w *WISE) Extend(labels []perf.MatrixLabels, method kernels.Method, treeCfg ml.TreeConfig) error {
	if len(labels) == 0 {
		return fmt.Errorf("core: empty corpus for extension")
	}
	for _, existing := range w.Models {
		if existing.Method == method {
			return fmt.Errorf("core: model for %s already exists", method)
		}
	}
	mi := -1
	for i, m := range labels[0].Methods {
		if m == method {
			mi = i
		}
	}
	if mi == -1 {
		return fmt.Errorf("core: labels carry no classes for %s", method)
	}
	X := make([][]float64, len(labels))
	y := make([]int, len(labels))
	for i, l := range labels {
		X[i] = l.Features.Values
		y[i] = l.Classes[mi]
	}
	tree, err := ml.Fit(ml.Dataset{
		X: X, Y: y,
		NumClasses:   perf.NumClasses,
		FeatureNames: labels[0].Features.Names,
	}, treeCfg)
	if err != nil {
		return fmt.Errorf("core: training extension model for %s: %w", method, err)
	}
	w.Models = append(w.Models, Model{Method: method, Tree: tree})
	return nil
}

// PredictClasses runs every performance model on a feature vector, returning
// the predicted speedup class per method (aligned with Space()).
func (w *WISE) PredictClasses(f features.Features) []int {
	out := make([]int, len(w.Models))
	for i, m := range w.Models {
		out[i] = m.Tree.Predict(f.Values)
	}
	return out
}

// SelectFromClasses applies the paper's Section 4.4 heuristic to predicted
// classes: pick the method with the highest predicted speedup class; break
// ties by preprocessing cost (CSR < SELLPACK < Sell-c-sigma < Sell-c-R <
// LAV-1Seg < LAV), then by smaller parameter values. Returns the index into
// space.
func SelectFromClasses(space []kernels.Method, classes []int) int {
	best := 0
	for i := 1; i < len(space); i++ {
		switch {
		case classes[i] > classes[best]:
			best = i
		case classes[i] == classes[best] &&
			space[i].PreprocessRank() < space[best].PreprocessRank():
			best = i
		}
	}
	return best
}

// Selection is the outcome of WISE's method choice for one matrix.
type Selection struct {
	Method         kernels.Method
	Index          int   // index into Space()
	PredictedClass int   // C0-C6
	Classes        []int // all per-method predictions
}

// Select extracts features from the matrix and picks the best method.
func (w *WISE) Select(m *matrix.CSR) Selection {
	f := features.Extract(m, w.FeatureCfg)
	return w.SelectFromFeatures(f)
}

// SelectCtx is Select with cancellation threaded through feature extraction
// — the shared deadline-aware entry point of wise-serve requests and
// wise-predict -timeout. On cancellation or deadline overrun it returns the
// context's error (unwrappable to context.Canceled / DeadlineExceeded) and
// an empty Selection; callers degrade to their CSR fallback.
func (w *WISE) SelectCtx(ctx context.Context, m *matrix.CSR) (Selection, error) {
	f, err := features.ExtractCtx(ctx, m, w.FeatureCfg)
	if err != nil {
		return Selection{}, err
	}
	if err := ctx.Err(); err != nil {
		return Selection{}, fmt.Errorf("core: select: %w", err)
	}
	return w.SelectFromFeatures(f), nil
}

// SelectFromFeatures picks the best method for precomputed features.
func (w *WISE) SelectFromFeatures(f features.Features) Selection {
	selections.Inc()
	classes := w.PredictClasses(f)
	idx := SelectFromClasses(w.Space(), classes)
	return Selection{
		Method:         w.Models[idx].Method,
		Index:          idx,
		PredictedClass: classes[idx],
		Classes:        classes,
	}
}

// Prepare selects a method for the matrix and builds its executable format —
// steps 1-4 of Figure 8. The returned Format runs step 5 (SpMV) any number
// of times.
func (w *WISE) Prepare(m *matrix.CSR) (Selection, kernels.Format) {
	sel := w.Select(m)
	return sel, kernels.Build(m, sel.Method, w.Mach.RowBlock)
}

// Multiply is the one-shot convenience wrapper: select, transform, and run
// y = A*x with the chosen method.
func (w *WISE) Multiply(y, x []float64, m *matrix.CSR) Selection {
	sel, format := w.Prepare(m)
	format.SpMVParallel(y, x, kernels.DefaultWorkers())
	return sel
}

// persisted is the JSON form of a trained WISE instance.
type persisted struct {
	MachineName string            `json:"machine"`
	FeatureK    int               `json:"feature_k"`
	Methods     []persistedMethod `json:"methods"`
	Trees       []json.RawMessage `json:"trees"`
}

type persistedMethod struct {
	Kind  int     `json:"kind"`
	Sched int     `json:"sched"`
	C     int     `json:"c"`
	Sigma int     `json:"sigma"`
	T     float64 `json:"t"`
}

// ModelsArtifactKind tags model files in their resilience envelope.
const ModelsArtifactKind = "wise-models"

// marshalPayload serializes the trained models to the deterministic JSON
// payload that Save seals inside a resilience envelope.
func (w *WISE) marshalPayload() ([]byte, error) {
	p := persisted{MachineName: w.Mach.Name, FeatureK: w.FeatureCfg.K}
	for _, m := range w.Models {
		p.Methods = append(p.Methods, persistedMethod{
			Kind: int(m.Method.Kind), Sched: int(m.Method.Sched),
			C: m.Method.C, Sigma: m.Method.Sigma, T: m.Method.T,
		})
		raw, err := m.Tree.Marshal()
		if err != nil {
			return nil, err
		}
		p.Trees = append(p.Trees, raw)
	}
	return json.MarshalIndent(p, "", " ")
}

// Save atomically writes the trained models to path as JSON inside a
// checksummed resilience envelope, so a truncated or corrupted file is
// rejected at load instead of silently mis-parsing. The output is
// deterministic in the models.
func (w *WISE) Save(path string) error {
	data, err := w.marshalPayload()
	if err != nil {
		return err
	}
	if err := resilience.WriteArtifact(path, ModelsArtifactKind, 1, data); err != nil {
		return fmt.Errorf("core: saving models to %s: %w", path, err)
	}
	return nil
}

// loadPayload parses and validates a models payload (the JSON inside the
// envelope). Errors do not name the source; Load wraps them with the
// offending path.
func loadPayload(data []byte, mach machine.Machine) (*WISE, error) {
	var p persisted
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("parsing models: %w", err)
	}
	if len(p.Methods) != len(p.Trees) {
		return nil, fmt.Errorf("%d methods vs %d trees", len(p.Methods), len(p.Trees))
	}
	if len(p.Methods) == 0 {
		return nil, fmt.Errorf("no models in file")
	}
	w := &WISE{Mach: mach, FeatureCfg: features.Config{K: p.FeatureK}}
	for i, pm := range p.Methods {
		tree, err := ml.UnmarshalTree(p.Trees[i])
		if err != nil {
			return nil, fmt.Errorf("tree %d: %w", i, err)
		}
		method := kernels.Method{
			Kind: kernels.Kind(pm.Kind), Sched: kernels.Sched(pm.Sched),
			C: pm.C, Sigma: pm.Sigma, T: pm.T,
		}
		if err := method.Validate(); err != nil {
			return nil, fmt.Errorf("model %d: %w", i, err)
		}
		w.Models = append(w.Models, Model{Method: method, Tree: tree})
	}
	return w, nil
}

// Load reads models saved with Save. The machine must be supplied by the
// caller (only its name is persisted; cache geometry is code, not data).
// Enveloped files are checksum-verified; raw JSON files from before the
// envelope era load through the legacy path.
func Load(path string, mach machine.Machine) (*WISE, error) {
	w, _, err := LoadSum(path, mach)
	return w, err
}

// LoadSum is Load that also returns the hex sha256 of the models payload it
// parsed: the envelope's verified payload checksum, or for a legacy file
// the checksum of its raw bytes. The sum is the content identity of the
// loaded models — equal sums mean identical models.
func LoadSum(path string, mach machine.Machine) (*WISE, string, error) {
	// Every failure branch names path: Load errors surface verbatim in CLI
	// and server startup messages, and the exit-code contract (RESILIENCE.md)
	// requires the offending file in the error.
	env, raw, err := resilience.ReadArtifact(path, ModelsArtifactKind)
	data := env.Payload
	if err != nil {
		if !errors.Is(err, resilience.ErrNotEnveloped) {
			return nil, "", fmt.Errorf("core: loading models %s: %w", path, err)
		}
		data = raw // legacy pre-envelope models.json: raw JSON
	}
	w, err := loadPayload(data, mach)
	if err != nil {
		return nil, "", fmt.Errorf("core: %s: %w", path, err)
	}
	sum := sha256.Sum256(data)
	return w, hex.EncodeToString(sum[:]), nil
}
