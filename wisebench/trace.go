package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"wise/internal/core"
	"wise/internal/features"
	"wise/internal/kernels"
	"wise/internal/machine"
	"wise/internal/matrix"
	"wise/internal/resilience"
	"wise/internal/serve"
	"wise/internal/session"
	"wise/internal/stats"
)

// span is one timed call into a module, recorded by the benchmark around
// the module's public function. Spans of one request share Req; Parent is
// the enclosing span's ID, 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"request"`
	Start  int64  `json:"start_ns"` // since the traced run began
	End    int64  `json:"end_ns"`
	Allocs uint64 `json:"allocs,omitempty"` // heap allocations, probe spans only
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out after the run. It is
// used from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do runs fn inside a span and returns the span's ID. With allocs set the
// heap allocation count is read around the span, outside its timing; only
// spans without timed children may count allocations.
func (t *tracer) do(name, req string, parent int, allocs bool, fn func(id int)) int {
	var before runtime.MemStats
	if allocs {
		runtime.ReadMemStats(&before)
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: int64(time.Since(t.t0))})
	fn(id)
	t.spans[id-1].End = int64(time.Since(t.t0))
	if allocs {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		t.spans[id-1].Allocs = after.Mallocs - before.Mallocs
	}
	return id
}

// probed returns the probe spans with the given name, on one matrix or,
// for matrix "", on all.
func (t *tracer) probed(name, matrix string) []span {
	prefix := "probe/"
	if matrix != "" {
		prefix += matrix + "/"
	}
	var out []span
	for _, s := range t.spans {
		if s.Name == name && strings.HasPrefix(s.Req, prefix) {
			out = append(out, s)
		}
	}
	return out
}

// p50 is the median duration of spans.
func p50(spans []span) time.Duration {
	ds := make([]float64, len(spans))
	for i, s := range spans {
		ds[i] = float64(s.dur())
	}
	return time.Duration(median(ds))
}

// allocsPerOp is the mean heap allocation count of spans.
func allocsPerOp(spans []span) float64 {
	var sum float64
	for _, s := range spans {
		sum += float64(s.Allocs)
	}
	return sum / float64(len(spans))
}

// write saves the spans as JSON.
func (t *tracer) write(path string, meta map[string]any) error {
	meta["spans"] = t.spans
	data, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	return resilience.AtomicWriteFile(path, data, 0o644)
}

// probeReps is how often the probe times each module function per matrix.
const probeReps = 3

// probe times every module's public function on every workload matrix, in
// the same order on every workload, so each per-layer figure is measured
// even where the workload's requests bypass that layer.
func probe(t *tracer, w *core.WISE, mats []*corpusMatrix) error {
	store, err := session.Open(session.Config{MaxBytes: 1 << 40, RowBlock: w.Mach.RowBlock})
	if err != nil {
		return err
	}
	p := &replayer{t: t, w: w, store: store, lim: matrix.DefaultReadLimits(), allocs: true}
	for rep := 0; rep < probeReps; rep++ {
		for _, c := range mats {
			req := fmt.Sprintf("probe/%s/%d", c.Name, rep)
			m, err := p.parse(req, 0, c.Body)
			if err != nil {
				return fmt.Errorf("probe: parsing %s: %w", c.Name, err)
			}
			coo := m.ToCOO()
			t.do("matrix.coo_to_csr", req, 0, true, func(int) { coo.ToCSR() })
			f, sel := p.selectMethod(req, 0, m)
			format := p.build(req, 0, m, sel.Method)
			var fp string
			t.do("session.fingerprint", req, 0, true, func(int) { fp = session.Fingerprint(c.Body) })
			// A fresh key per rep, so every probe GetOrCreate takes the miss
			// path: the layer's own cost around an already-built artifact.
			key := fmt.Sprintf("%s-%d", fp, rep)
			var ent *session.Entry
			t.do("session.getorcreate", req, 0, true, func(int) {
				ent, _, err = store.GetOrCreate(context.Background(), key, func(context.Context) (*session.Prepared, error) {
					return &session.Prepared{M: m, Feat: f, Sel: sel, Format: format}, nil
				})
			})
			if err != nil {
				return fmt.Errorf("probe: session for %s: %w", c.Name, err)
			}
			_, err = p.exec(req, 0, ent, 1)
			store.Release(ent)
			if err != nil {
				return fmt.Errorf("probe: exec %s: %w", c.Name, err)
			}
		}
	}
	return nil
}

// pathReplayLen is how many ops of the workload's sequence the traced run
// replays in-process.
const pathReplayLen = 96

// replayResult is the traced request path of one workload.
type replayResult struct {
	Handler []float64 // ms per request inside Server.Handler().ServeHTTP
	Stages  []float64 // ms per request summed over the stage spans
}

// replayer runs requests through the module functions a wise-serve handler
// calls, each inside a stage span, against its own session store. With
// allocs set its spans count heap allocations; those spans must then have
// no timed children.
type replayer struct {
	t      *tracer
	w      *core.WISE
	store  *session.Store
	lim    matrix.ReadLimits
	allocs bool
}

func (p *replayer) parse(req string, parent int, body []byte) (m *matrix.CSR, err error) {
	p.t.do("matrix.parse", req, parent, p.allocs, func(int) { m, err = matrix.ReadMatrixMarketLimited(bytes.NewReader(body), p.lim) })
	return m, err
}

// selectMethod is feature extraction plus tree inference.
func (p *replayer) selectMethod(req string, parent int, m *matrix.CSR) (f features.Features, sel core.Selection) {
	p.t.do("features.extract", req, parent, p.allocs, func(int) { f = features.Extract(m, p.w.FeatureCfg) })
	p.t.do("core.select", req, parent, p.allocs, func(int) { sel = p.w.SelectFromFeatures(f) })
	return f, sel
}

func (p *replayer) build(req string, parent int, m *matrix.CSR, method kernels.Method) (f kernels.Format) {
	p.t.do("kernels.build", req, parent, p.allocs, func(int) { f = kernels.Build(m, method, p.w.Mach.RowBlock) })
	return f
}

// getOrCreate is the session lookup; on a miss the build runs the whole
// inspector pass as child spans, as wise-serve's session build does.
func (p *replayer) getOrCreate(req string, parent int, body []byte) (ent *session.Entry, err error) {
	var fp string
	p.t.do("session.fingerprint", req, parent, false, func(int) { fp = session.Fingerprint(body) })
	p.t.do("session.getorcreate", req, parent, false, func(id int) {
		ent, _, err = p.store.GetOrCreate(context.Background(), fp, func(context.Context) (*session.Prepared, error) {
			m, err := p.parse(req, id, body)
			if err != nil {
				return nil, err
			}
			f, sel := p.selectMethod(req, id, m)
			return &session.Prepared{M: m, Feat: f, Sel: sel, Format: p.build(req, id, m, sel.Method)}, nil
		})
	})
	return ent, err
}

func (p *replayer) exec(req string, parent int, ent *session.Entry, iters int) (y []float64, err error) {
	x := matrix.Ones(ent.Matrix().Cols)
	p.t.do("session.exec", req, parent, p.allocs, func(int) {
		y, err = p.store.Exec(context.Background(), ent, x, iters, kernels.DefaultWorkers())
	})
	return y, err
}

func (p *replayer) encode(req string, parent int, v any) {
	p.t.do("serve.encode", req, parent, false, func(int) { _, _ = json.Marshal(v) })
}

// stages runs one request's route as stage spans under parent.
func (p *replayer) stages(o op, c *corpusMatrix, body []byte, req string, parent int) error {
	switch {
	case o.Path == "/predict":
		m, err := p.parse(req, parent, body)
		if err != nil {
			return err
		}
		_, sel := p.selectMethod(req, parent, m)
		p.encode(req, parent, reply{Method: sel.Method.String()})
	case o.Path == "/matrix":
		ent, err := p.getOrCreate(req, parent, body)
		if err != nil {
			return err
		}
		p.store.Release(ent)
		p.encode(req, parent, reply{Method: c.Method.String(), Fingerprint: ent.Fingerprint()})
	case o.FP == "": // /spmv by fingerprint
		ent, ok := p.store.Acquire(c.FP)
		if !ok {
			return fmt.Errorf("fingerprint %.12s not prepared", c.FP)
		}
		defer p.store.Release(ent)
		y, err := p.exec(req, parent, ent, o.Iters)
		if err != nil {
			return err
		}
		p.encode(req, parent, spmvReply(c, y))
	default: // inline /spmv
		var in struct {
			Matrix     string `json:"matrix"`
			Iterations int    `json:"iterations"`
		}
		var err error
		p.t.do("serve.decode", req, parent, false, func(int) { err = json.Unmarshal(body, &in) })
		if err != nil {
			return err
		}
		ent, err := p.getOrCreate(req, parent, []byte(in.Matrix))
		if err != nil {
			return err
		}
		defer p.store.Release(ent)
		y, err := p.exec(req, parent, ent, in.Iterations)
		if err != nil {
			return err
		}
		p.encode(req, parent, spmvReply(c, y))
	}
	return nil
}

// replayPath sends the workload's first pathReplayLen ops twice in-process:
// once through the stage functions and once through an in-process
// wise-serve handler with the same session budget. The handler's residual
// over its stages is serve's own work (admission, body copy, routing).
func replayPath(t *tracer, w *core.WISE, modelPath string, wl workload, mats []*corpusMatrix, ops []op, chk *checker) (replayResult, error) {
	var rr replayResult
	budget := wl.sessionBytes
	if budget == 0 {
		budget = 256 << 20 // wise-serve's -session-bytes default
	}
	store, err := session.Open(session.Config{MaxBytes: budget, RowBlock: w.Mach.RowBlock})
	if err != nil {
		return rr, err
	}
	srv, err := serve.New(serve.Config{ModelPath: modelPath, Mach: machine.Scaled(), ReloadPoll: -1, SessionBytes: budget})
	if err != nil {
		return rr, err
	}
	handler := srv.Handler()
	p := &replayer{t: t, w: w, store: store, lim: matrix.DefaultReadLimits()}
	callHandler := func(req, path string, body []byte) ([]byte, error) {
		rec := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		t.do("serve.handler", req, 0, false, func(int) { handler.ServeHTTP(rec, r) })
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("in-process %s: HTTP %d: %s", path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
		return rec.Body.Bytes(), nil
	}

	if wl.warm {
		for _, c := range mats {
			req := "setup/" + c.Name
			ent, err := p.getOrCreate(req, 0, c.Body)
			if err != nil {
				return rr, err
			}
			p.store.Release(ent)
			if _, err := callHandler(req, "/matrix", c.Body); err != nil {
				return rr, err
			}
		}
	}

	var buf bytes.Buffer
	for i := 0; i < pathReplayLen; i++ {
		o := ops[i%len(ops)]
		body := o.body(&buf)
		req := fmt.Sprintf("r%d", i)
		c := mats[o.Mat]
		// Alternate which side goes first, so cache warmth and collection
		// pauses left by one side fall on both alike.
		var stages, handled time.Duration
		for side := 0; side < 2; side++ {
			if (i+side)%2 == 0 {
				var stageErr error
				root := t.do("request "+o.Path, req, 0, false, func(id int) { stageErr = p.stages(o, c, body, req, id) })
				if stageErr != nil {
					return rr, fmt.Errorf("%s %s: %w", o.Path, c.Name, stageErr)
				}
				for _, s := range t.spans[root:] {
					if s.Parent == root {
						stages += s.dur()
					}
				}
				continue
			}
			raw, err := callHandler(req, o.Path, body)
			if err != nil {
				return rr, err
			}
			handled = t.spans[len(t.spans)-1].dur()
			if _, err := chk.check(o, raw); err != nil {
				return rr, fmt.Errorf("in-process: %w", err)
			}
		}
		rr.Stages = append(rr.Stages, ms(stages))
		rr.Handler = append(rr.Handler, ms(handled))
	}
	return rr, nil
}

// spmvReply is the answer shape wise-serve encodes for a /spmv result.
func spmvReply(c *corpusMatrix, y []float64) reply {
	r := reply{Method: c.Method.String(), Fingerprint: c.FP, YNorm: matrix.Norm2(y)}
	if len(y) <= spmvEchoRows {
		r.Y = y
	}
	return r
}

// reconcileTolerance bounds |handler p50 - stage-sum p50| as a share of the
// handler p50: what serve does beyond the stages it calls (admission,
// body copy, routing, context) must stay a small share of the request.
const reconcileTolerance = 0.25

// traceLayers runs the traced in-process replay and assembles the
// per-layer figures. ok is false when reconciliation fails.
func traceLayers(wl workload, seed int64, w *core.WISE, modelPath string, mats []*corpusMatrix, ops []op, chk *checker,
	kt kernelTimes, measured measurement, e2eP50 float64, env map[string]any, workDir string) (map[string]metric, bool, error) {
	t := newTracer()
	if err := probe(t, w, mats); err != nil {
		return nil, false, err
	}
	rr, err := replayPath(t, w, modelPath, wl, mats, ops, chk)
	if err != nil {
		return nil, false, err
	}
	spanFile := filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.json", wl.name, seed))
	if err := t.write(spanFile, map[string]any{"workload": wl.name, "seed": seed, "env": env}); err != nil {
		return nil, false, err
	}

	// The residual is taken per request, handler minus its own stage sum,
	// before the median: a workload mixing cheap and costly routes has a
	// median that can land on a different route on each side, while the
	// paired difference is serve's own work on the same request.
	handlerP50 := median(rr.Handler)
	residuals := make([]float64, len(rr.Handler))
	for i := range residuals {
		residuals[i] = rr.Handler[i] - rr.Stages[i]
	}
	self := median(residuals)
	ok := math.Abs(self) <= reconcileTolerance*handlerP50
	fmt.Printf("trace %s: %d spans in %s; handler p50 %.3f ms, stage sum p50 %.3f ms, residual p50 %.3f ms (%.0f%% of handler p50, tolerance %.0f%%)\n",
		wl.name, len(t.spans), spanFile, handlerP50, median(rr.Stages), self, 100*self/handlerP50, 100*reconcileTolerance)
	if !ok {
		fmt.Fprintf(os.Stderr, "wisebench: reconciliation: residual %.3f ms exceeds %.0f%% of the handler p50 %.3f ms\n",
			self, 100*reconcileTolerance, handlerP50)
	}

	var prep []float64
	var bodyBytes float64
	for i, c := range mats {
		var cost time.Duration
		for _, stage := range []string{"matrix.parse", "features.extract", "core.select", "kernels.build"} {
			cost += p50(t.probed(stage, c.Name))
		}
		prep = append(prep, float64(cost)/float64(kt.csr[i]))
		bodyBytes += float64(len(c.Body))
	}
	var parseTime time.Duration
	for _, s := range t.probed("matrix.parse", "") {
		parseTime += s.dur()
	}
	var gbps []float64
	for i := range kt.served {
		gbps = append(gbps, kt.bytes[i]/float64(kt.served[i]))
	}
	d := measured.delta
	hits, misses := d("session.hits"), d("session.misses")
	hitRatio := 0.0
	if hits+misses > 0 {
		hitRatio = float64(hits) / float64(hits+misses)
	}
	load := measured.load
	return map[string]metric{
		"matrix.parse_ms_p50":                 {ms(p50(t.probed("matrix.parse", ""))), "ms"},
		"matrix.parse_allocs_per_op":          {allocsPerOp(t.probed("matrix.parse", "")), "count"},
		"matrix.parse_mb_per_s":               {bodyBytes * probeReps / (1 << 20) / parseTime.Seconds(), "MiB/s"},
		"matrix.coo_to_csr_ms_p50":            {ms(p50(t.probed("matrix.coo_to_csr", ""))), "ms"},
		"features.extract_ms_p50":             {ms(p50(t.probed("features.extract", ""))), "ms"},
		"features.extract_allocs_per_op":      {allocsPerOp(t.probed("features.extract", "")), "count"},
		"core.select_us_p50":                  {us(p50(t.probed("core.select", ""))), "us"},
		"core.select_allocs_per_op":           {allocsPerOp(t.probed("core.select", "")), "count"},
		"core.prepare_over_csr_spmv":          {median(prep), "x"},
		"kernels.build_ms_p50":                {ms(p50(t.probed("kernels.build", ""))), "ms"},
		"kernels.build_allocs_per_op":         {allocsPerOp(t.probed("kernels.build", "")), "count"},
		"kernels.spmv_us_p50":                 {us(medianDur(kt.served)), "us"},
		"kernels.spmv_parallel_us_p50":        {us(medianDur(kt.parallel)), "us"},
		"kernels.spmv_parallel_allocs_per_op": {stats.Mean(kt.parallelAllocs), "count"},
		"kernels.spmv_csr_us_p50":             {us(medianDur(kt.csr)), "us"},
		"kernels.spmv_computed_gbps":          {median(gbps), "GB/s"},
		"session.fingerprint_us_p50":          {us(p50(t.probed("session.fingerprint", ""))), "us"},
		"session.getorcreate_ms_p50":          {ms(p50(t.probed("session.getorcreate", ""))), "ms"},
		"session.exec_us_p50":                 {us(p50(t.probed("session.exec", ""))), "us"},
		"session.hit_ratio":                   {hitRatio, "ratio"},
		"session.builds":                      {float64(d("session.builds")), "count"},
		"session.converts":                    {float64(d("session.converts")), "count"},
		"session.evictions":                   {float64(d("session.evictions")), "count"},
		"session.bytes_mb":                    {measured.after.Gauges["session.bytes"] / (1 << 20), "MiB"},
		"serve.handler_ms_p50":                {handlerP50, "ms"},
		"serve.self_ms":                       {self, "ms"},
		"serve.http_ms":                       {e2eP50 - handlerP50, "ms"},
		"serve.requests_shed":                 {float64(d("serve.requests_shed")), "count"},
		"serve.requests_degraded":             {float64(d("serve.requests_degraded")), "count"},
		"serve.requests_rejected":             {float64(d("serve.requests_rejected")), "count"},
		"serve.error_rate":                    {float64(load.Failed) / float64(load.Attempted), "ratio"},
		"serve.degraded_rate":                 {float64(load.Degraded) / float64(load.Attempted), "ratio"},
	}, ok, nil
}
