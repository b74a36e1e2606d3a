package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"

	"wise/internal/core"
	"wise/internal/costmodel"
	"wise/internal/features"
	"wise/internal/gen"
	"wise/internal/kernels"
	"wise/internal/machine"
	"wise/internal/matrix"
	"wise/internal/ml"
	"wise/internal/obs"
	"wise/internal/perf"
	"wise/internal/serve"
)

// SuiteConfig selects and scales a suite run.
type SuiteConfig struct {
	Preset    string  // S, M, L, or paper
	Seed      int64   // corpus seed; 0 = the preset's default
	TimeScale float64 // multiplies per-benchmark time budgets; 0 = 1.0
	Workers   int     // parallel-kernel workers; 0 = GOMAXPROCS
}

// pipelineStages are the one-shot stage benchmarks every preset runs once,
// in order: corpus generation, full-model-space labeling of the smallest
// matrix (the dominant cost of wise-train, per EXPERIMENTS.md), and
// decision-tree training.
var pipelineStages = []string{
	"pipeline/gen-corpus",
	"pipeline/label-modelspace",
	"pipeline/train-trees",
}

// suiteMethods is the kernel set every matrix is measured under: one
// representative per method family (CSR, SELLPACK, Sell-c-sigma, LAV, and
// the SegCSR extension), parameterized from the scaled machine model.
func suiteMethods() []kernels.Method {
	mach := machine.Scaled()
	cs := mach.ChunkSizes()
	c := cs[len(cs)-1]
	return []kernels.Method{
		{Kind: kernels.CSR, Sched: kernels.Dyn},
		{Kind: kernels.SELLPACK, Sched: kernels.Dyn, C: c},
		{Kind: kernels.SellCSigma, Sched: kernels.Dyn, C: c, Sigma: mach.SigmaValues()[1]},
		{Kind: kernels.LAV, Sched: kernels.Dyn, C: c, T: 0.7},
		kernels.ExtensionMethods(mach.LLCDoubles())[0],
	}
}

// convertMethods is the subset whose format conversion is benchmarked (CSR
// is the input representation; it has no conversion to time).
func convertMethods() []kernels.Method {
	return suiteMethods()[1:]
}

// suiteRun carries the per-run state through the benchmark helpers.
type suiteRun struct {
	ctx     context.Context
	cfg     SuiteConfig
	preset  Preset
	opts    Options // per-op benchmarks
	heavy   Options // one-shot pipeline stages
	mach    machine.Machine
	rep     *Report
	err     error // first benchmark-body failure; stops the run
	stopped bool  // ctx cancelled
}

// RunSuite executes the preset's full benchmark suite and returns its
// report. On context cancellation it returns the partial report together
// with the context's error so the CLI can exit 130; any benchmark-body
// failure (e.g. a non-200 serve round-trip) aborts the run with an error.
func RunSuite(ctx context.Context, cfg SuiteConfig) (*Report, error) {
	preset, ok := LookupPreset(cfg.Preset)
	if !ok {
		return nil, fmt.Errorf("bench: unknown preset %q (have %v)", cfg.Preset, PresetNames())
	}
	if cfg.Seed == 0 {
		cfg.Seed = preset.Seed
	}
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 1
	}
	sr := &suiteRun{
		ctx:    ctx,
		cfg:    cfg,
		preset: preset,
		opts:   preset.Opts().Scale(cfg.TimeScale),
		heavy:  preset.HeavyOpts().Scale(cfg.TimeScale),
		mach:   machine.Scaled(),
		rep: &Report{
			Schema:    SchemaVersion,
			Preset:    preset.Name,
			Seed:      cfg.Seed,
			TimeScale: cfg.TimeScale,
			Env:       CurrentEnv(),
		},
	}
	sr.rep.stamp()
	sr.rep.Results = make([]Result, 0, preset.BenchmarkCount())

	span := obs.Begin("bench/" + preset.Name)
	defer span.End()

	specs := sortSpecsBySize(preset.Matrices)
	matrices := sr.buildMatrices(span, specs)
	w := sr.trainModel(span)
	if sr.failed() {
		return sr.finish()
	}

	sr.pipelineBenches(span, specs, matrices)
	sr.perMatrixBenches(span, specs, matrices, w)
	return sr.finish()
}

// failed reports whether the run should stop (error or cancellation).
func (sr *suiteRun) failed() bool {
	if sr.err != nil {
		return true
	}
	if sr.ctx.Err() != nil {
		sr.stopped = true
		return true
	}
	return false
}

// finish resolves the run outcome.
func (sr *suiteRun) finish() (*Report, error) {
	if sr.err != nil {
		return nil, sr.err
	}
	if err := sr.ctx.Err(); err != nil {
		return sr.rep, fmt.Errorf("bench: suite interrupted: %w", err)
	}
	return sr.rep, nil
}

// measure runs one benchmark unless the run already failed or was cancelled.
func (sr *suiteRun) measure(name, group string, opts Options, fn func()) {
	if sr.failed() {
		return
	}
	res := Measure(name, group, opts, fn)
	sr.rep.Results = append(sr.rep.Results, res)
	obs.Verbosef("bench: %s median %s over %d runs", name, fmtNs(res.NsMedian), res.Runs)
}

// failf records the first benchmark-body failure; later benchmarks and the
// suite result observe it through failed()/finish().
func (sr *suiteRun) failf(format string, args ...any) {
	if sr.err == nil {
		sr.err = fmt.Errorf(format, args...)
	}
}

// buildMatrices generates the preset corpus (untimed; pipeline/gen-corpus
// times the same work separately).
func (sr *suiteRun) buildMatrices(span *obs.Span, specs []MatrixSpec) []*matrix.CSR {
	sp := span.Child("build-matrices")
	defer sp.End()
	out := make([]*matrix.CSR, 0, len(specs))
	for _, spec := range specs {
		if sr.failed() {
			return out
		}
		out = append(out, spec.Build(sr.cfg.Seed))
	}
	return out
}

// trainModelRows are the sizes of the tiny deterministic training corpus
// behind the predict and serve benchmarks: real feature extraction and a
// full-width model space, with synthetic (but fixed) class labels so
// training never needs the expensive cost-model labeling pass.
var trainModelRows = []int{150, 190, 230, 270, 310, 350, 390, 430}

// trainLabels builds the deterministic training set for the suite's model.
func (sr *suiteRun) trainLabels() []perf.MatrixLabels {
	space := kernels.ModelSpace(sr.mach)
	rng := rand.New(rand.NewSource(sr.cfg.Seed + 7))
	labels := make([]perf.MatrixLabels, 0, len(trainModelRows))
	for i, rows := range trainModelRows {
		if sr.failed() {
			return labels
		}
		m := gen.Uniform(rng, rows, 4)
		labels = append(labels, perf.MatrixLabels{
			Name: labelName(i), Rows: m.Rows, Cols: m.Cols, NNZ: int64(m.NNZ()),
			Features: features.Extract(m, features.DefaultConfig()),
			Methods:  space,
			Classes:  syntheticClasses(i, len(space)),
		})
	}
	return labels
}

// labelName names the i-th synthetic training matrix.
func labelName(i int) string { return fmt.Sprintf("bench-train-%d", i) }

// syntheticClasses assigns a fixed, varied class per (matrix, method) pair
// so every tree sees more than one class and training is deterministic.
func syntheticClasses(i, nMethods int) []int {
	classes := make([]int, nMethods)
	for mi := range classes {
		classes[mi] = (i*3 + mi) % perf.NumClasses
	}
	return classes
}

// trainModel fits the suite's prediction model (shared by the predict and
// serve benchmarks; pipeline/train-trees re-times the same fit).
func (sr *suiteRun) trainModel(span *obs.Span) *core.WISE {
	if sr.failed() {
		return nil
	}
	sp := span.Child("train-model")
	defer sp.End()
	w, err := core.Train(sr.trainLabels(), ml.DefaultTreeConfig(), features.DefaultConfig(), sr.mach)
	if err != nil {
		sr.failf("bench: training suite model: %w", err)
		return nil
	}
	return w
}

// pipelineBenches times the one-shot pipeline stages of pipelineStages.
func (sr *suiteRun) pipelineBenches(span *obs.Span, specs []MatrixSpec, matrices []*matrix.CSR) {
	if sr.failed() || len(matrices) == 0 {
		return
	}
	sp := span.Child("pipeline")
	defer sp.End()

	seed := sr.cfg.Seed
	sr.measure(pipelineStages[0], "pipeline", sr.heavy, func() {
		for _, spec := range specs {
			spec.Build(seed)
		}
	})

	smallest := matrices[0]
	est := costmodel.New(sr.mach)
	space := kernels.ModelSpace(sr.mach)
	sr.measure(pipelineStages[1], "pipeline", sr.heavy, func() {
		for _, method := range space {
			est.MethodCycles(smallest, method)
		}
	})

	labels := sr.trainLabels()
	sr.measure(pipelineStages[2], "pipeline", sr.heavy, func() {
		if _, err := core.Train(labels, ml.DefaultTreeConfig(), features.DefaultConfig(), sr.mach); err != nil {
			sr.failf("bench: pipeline/train-trees: %w", err)
		}
	})
}

// perMatrixBenches runs the kernels / convert / features / predict / serve
// groups for every corpus matrix.
func (sr *suiteRun) perMatrixBenches(span *obs.Span, specs []MatrixSpec, matrices []*matrix.CSR, w *core.WISE) {
	if sr.failed() {
		return
	}
	srv := sr.startServer(span)
	defer srv.close()
	// Helpers no-op once the run has failed or been cancelled, so the group
	// loop can finish cleanly and every span ends.
	for gi, group := range []string{"kernels", "convert", "features", "predict", "serve", "session"} {
		sp := span.Child(group)
		for i, spec := range specs {
			switch gi {
			case 0:
				sr.kernelBenches(spec, matrices[i])
			case 1:
				sr.convertBenches(spec, matrices[i])
			case 2:
				sr.featureBench(spec, matrices[i])
			case 3:
				sr.predictBench(spec, matrices[i], w)
			case 4:
				sr.serveBench(spec, matrices[i], srv)
			case 5:
				sr.sessionBench(spec, matrices[i], srv)
			}
		}
		sp.End()
	}
}

// kernelBenches measures every suite method on one matrix, serial and
// parallel.
func (sr *suiteRun) kernelBenches(spec MatrixSpec, m *matrix.CSR) {
	x := matrix.Iota(m.Cols)
	y := make([]float64, m.Rows)
	for _, method := range suiteMethods() {
		if sr.failed() {
			return
		}
		format := kernels.Build(m, method, sr.mach.RowBlock)
		sr.spmvSerial(spec, method, format, y, x)
		sr.spmvParallel(spec, method, format, y, x)
	}
}

// spmvSerial times the sequential kernel.
func (sr *suiteRun) spmvSerial(spec MatrixSpec, method kernels.Method, f kernels.Format, y, x []float64) {
	name := fmt.Sprintf("kernels/%s/%s/serial", spec.Name, method)
	sr.measure(name, "kernels", sr.opts, func() { f.SpMV(y, x) })
}

// spmvParallel times the parallel kernel under the configured worker count.
func (sr *suiteRun) spmvParallel(spec MatrixSpec, method kernels.Method, f kernels.Format, y, x []float64) {
	workers := sr.cfg.Workers
	name := fmt.Sprintf("kernels/%s/%s/parallel", spec.Name, method)
	sr.measure(name, "kernels", sr.opts, func() { f.SpMVParallel(y, x, workers) })
}

// convertBenches times format conversion (preprocessing) per method family.
func (sr *suiteRun) convertBenches(spec MatrixSpec, m *matrix.CSR) {
	for _, method := range convertMethods() {
		if sr.failed() {
			return
		}
		sr.convertBench(spec, m, method)
	}
}

// convertBench times one format build.
func (sr *suiteRun) convertBench(spec MatrixSpec, m *matrix.CSR, method kernels.Method) {
	rowBlock := sr.mach.RowBlock
	name := fmt.Sprintf("convert/%s/%s", spec.Name, method)
	sr.measure(name, "convert", sr.opts, func() { kernels.Build(m, method, rowBlock) })
}

// featureBench times the Table 2 feature pass (ctx-aware, the serving path).
func (sr *suiteRun) featureBench(spec MatrixSpec, m *matrix.CSR) {
	ctx := sr.ctx
	cfg := features.DefaultConfig()
	name := fmt.Sprintf("features/%s/extract", spec.Name)
	sr.measure(name, "features", sr.opts, func() {
		if _, err := features.ExtractCtx(ctx, m, cfg); err != nil {
			sr.failf("bench: %s: %w", name, err)
		}
	})
}

// predictBench times end-to-end selection: feature extraction, all
// per-method trees, and the tie-breaking selector.
func (sr *suiteRun) predictBench(spec MatrixSpec, m *matrix.CSR, w *core.WISE) {
	if w == nil {
		return
	}
	ctx := sr.ctx
	name := fmt.Sprintf("predict/%s/select", spec.Name)
	sr.measure(name, "predict", sr.opts, func() {
		if _, err := w.SelectCtx(ctx, m); err != nil {
			sr.failf("bench: %s: %w", name, err)
		}
	})
}

// benchServer is the suite's wise-serve instance: a real serve.Server
// behind an httptest listener, with its model file in a temp dir.
type benchServer struct {
	ts  *httptest.Server
	dir string
}

func (b *benchServer) close() {
	if b == nil {
		return
	}
	if b.ts != nil {
		b.ts.Close()
	}
	if b.dir != "" {
		if err := os.RemoveAll(b.dir); err != nil {
			obs.Verbosef("bench: cleaning up %s: %v", b.dir, err)
		}
	}
}

// startServer saves the suite model and boots the HTTP server the serve
// round-trip benchmarks hit. Failures mark the run failed and return a
// server whose close() is a no-op.
func (sr *suiteRun) startServer(span *obs.Span) *benchServer {
	if sr.failed() {
		return &benchServer{}
	}
	sp := span.Child("start-server")
	defer sp.End()
	dir, err := os.MkdirTemp("", "wise-bench-suite-")
	if err != nil {
		sr.failf("bench: temp dir for serve model: %w", err)
		return &benchServer{}
	}
	b := &benchServer{dir: dir}
	modelPath := filepath.Join(dir, "models.json")
	w, err := core.Train(sr.trainLabels(), ml.DefaultTreeConfig(), features.DefaultConfig(), sr.mach)
	if err != nil {
		sr.failf("bench: training serve model: %w", err)
		return b
	}
	if err := w.Save(modelPath); err != nil {
		sr.failf("bench: saving serve model: %w", err)
		return b
	}
	s, err := serve.New(serve.Config{ModelPath: modelPath, Mach: sr.mach, ReloadPoll: -1})
	if err != nil {
		sr.failf("bench: starting serve: %w", err)
		return b
	}
	s.SetReady(true)
	b.ts = httptest.NewServer(s.Handler())
	return b
}

// serveBench times the full wise-serve round-trip — MatrixMarket body
// upload, server-side parse + feature extraction + prediction, JSON
// response.
func (sr *suiteRun) serveBench(spec MatrixSpec, m *matrix.CSR, srv *benchServer) {
	if sr.failed() || srv.ts == nil {
		return
	}
	var body bytes.Buffer
	if err := matrix.WriteMatrixMarket(&body, m); err != nil {
		sr.failf("bench: serializing %s: %w", spec.Name, err)
		return
	}
	payload := body.Bytes()
	sr.serveRoundTrip(fmt.Sprintf("serve/%s/roundtrip", spec.Name), srv.ts, payload)
}

// sessionBench times the stateful execution endpoint cold vs warm on the
// same matrix. Cold defeats the content-addressed cache by inserting a
// fresh nonce comment into the MatrixMarket body every run, so each request
// pays parse + feature extraction + prediction + format conversion; warm
// uploads once via /matrix and executes by fingerprint, so each request is
// pure kernel execution. The cold/warm gap in BENCH_*.json is the recorded
// amortization win of prepared sessions (RESILIENCE.md "Stateful serving").
func (sr *suiteRun) sessionBench(spec MatrixSpec, m *matrix.CSR, srv *benchServer) {
	if sr.failed() || srv.ts == nil {
		return
	}
	var body bytes.Buffer
	if err := matrix.WriteMatrixMarket(&body, m); err != nil {
		sr.failf("bench: serializing %s: %w", spec.Name, err)
		return
	}
	mm := body.String()
	nl := strings.IndexByte(mm, '\n')
	if nl < 0 {
		sr.failf("bench: session/%s: malformed MatrixMarket body", spec.Name)
		return
	}
	head, rest := mm[:nl+1], mm[nl+1:]

	nonce := 0
	sr.sessionPost(fmt.Sprintf("session/%s/spmv-cold", spec.Name), srv, func() []byte {
		nonce++ // unique body each run -> unique fingerprint -> full cold path
		return sessionPayload("matrix", head+fmt.Sprintf("%% nonce %d\n", nonce)+rest)
	})

	resp, err := srv.ts.Client().Post(srv.ts.URL+"/matrix", "text/plain", bytes.NewReader(body.Bytes()))
	if err != nil {
		sr.failf("bench: session/%s: upload: %w", spec.Name, err)
		return
	}
	var stored struct {
		Fingerprint string `json:"fingerprint"`
		Stored      bool   `json:"stored"`
	}
	err = json.NewDecoder(resp.Body).Decode(&stored)
	if cerr := resp.Body.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil || resp.StatusCode != http.StatusOK || !stored.Stored {
		sr.failf("bench: session/%s: upload: HTTP %d stored=%v err=%v", spec.Name, resp.StatusCode, stored.Stored, err)
		return
	}
	warm := sessionPayload("fingerprint", stored.Fingerprint)
	sr.sessionPost(fmt.Sprintf("session/%s/spmv-warm", spec.Name), srv, func() []byte { return warm })
}

// sessionPayload encodes a one-field /spmv request body.
func sessionPayload(field, value string) []byte {
	data, err := json.Marshal(map[string]string{field: value})
	if err != nil {
		panic(err) // a map[string]string cannot fail to encode
	}
	return data
}

// sessionPost measures POST /spmv round-trips; payload is re-evaluated per
// run so the cold benchmark can vary the body.
func (sr *suiteRun) sessionPost(name string, srv *benchServer, payload func() []byte) {
	ctx := sr.ctx
	client := srv.ts.Client()
	url := srv.ts.URL + "/spmv"
	sr.measure(name, "session", sr.opts, func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(payload()))
		if err != nil {
			sr.failf("bench: %s: %w", name, err)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			sr.failf("bench: %s: %w", name, err)
			return
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			sr.failf("bench: %s: reading response: %w", name, err)
		}
		if err := resp.Body.Close(); err != nil {
			sr.failf("bench: %s: closing response: %w", name, err)
		}
		if resp.StatusCode != http.StatusOK {
			sr.failf("bench: %s: HTTP %d", name, resp.StatusCode)
		}
	})
}

// serveRoundTrip measures POST /predict round-trips against one server.
func (sr *suiteRun) serveRoundTrip(name string, ts *httptest.Server, payload []byte) {
	ctx := sr.ctx
	client := ts.Client()
	url := ts.URL + "/predict"
	sr.measure(name, "serve", sr.opts, func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(payload))
		if err != nil {
			sr.failf("bench: %s: %w", name, err)
			return
		}
		resp, err := client.Do(req)
		if err != nil {
			sr.failf("bench: %s: %w", name, err)
			return
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			sr.failf("bench: %s: reading response: %w", name, err)
		}
		if err := resp.Body.Close(); err != nil {
			sr.failf("bench: %s: closing response: %w", name, err)
		}
		if resp.StatusCode != http.StatusOK {
			sr.failf("bench: %s: HTTP %d", name, resp.StatusCode)
		}
	})
}
