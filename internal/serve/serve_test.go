package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"wise/internal/core"
	"wise/internal/features"
	"wise/internal/gen"
	"wise/internal/kernels"
	"wise/internal/machine"
	"wise/internal/matrix"
	"wise/internal/ml"
	"wise/internal/perf"
	"wise/internal/resilience"
	"wise/internal/resilience/faultinject"
)

// Fault-injection state is process-global, so the whole package runs its
// HTTP tests against a shared tiny model trained once in TestMain.
var sharedModelPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "wise-serve-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sharedModelPath = filepath.Join(dir, "models.json")
	if err := buildTestModel(sharedModelPath, []int{1, 0}); err != nil {
		fmt.Fprintln(os.Stderr, "building test model:", err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// buildTestModel trains a deliberately tiny two-method framework over
// {CSR, SELLPACK}: every matrix carries the same two speedup classes, so
// prediction is constant and the tests stay fast and deterministic. The
// shared model labels CSR with the higher class ({1, 0}), so it always
// selects CSR; {0, 2} makes SELLPACK a big win instead.
func buildTestModel(path string, classes []int) error {
	space := []kernels.Method{
		{Kind: kernels.CSR, Sched: kernels.Dyn},
		{Kind: kernels.SELLPACK, Sched: kernels.Dyn, C: 8},
	}
	rng := rand.New(rand.NewSource(1))
	var labels []perf.MatrixLabels
	for i := 0; i < 6; i++ {
		m := gen.Uniform(rng, 150+20*i, 4)
		labels = append(labels, perf.MatrixLabels{
			Name: fmt.Sprintf("train-%d", i),
			Rows: m.Rows, Cols: m.Cols, NNZ: int64(m.NNZ()),
			Features: features.Extract(m, features.DefaultConfig()),
			Methods:  space,
			Classes:  classes,
		})
	}
	w, err := core.Train(labels, ml.DefaultTreeConfig(), features.DefaultConfig(), machine.Scaled())
	if err != nil {
		return err
	}
	return w.Save(path)
}

func newTestServer(t *testing.T, mut func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{ModelPath: sharedModelPath, Mach: machine.Scaled(), ReloadPoll: -1}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.SetReady(true)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func testMatrix(t *testing.T) *matrix.CSR {
	t.Helper()
	return gen.Uniform(rand.New(rand.NewSource(7)), 200, 4)
}

func mmBytes(t *testing.T, m *matrix.CSR) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := matrix.WriteMatrixMarket(&buf, m); err != nil {
		t.Fatalf("WriteMatrixMarket: %v", err)
	}
	return buf.Bytes()
}

func postPredict(t *testing.T, url string, body []byte) (int, predictResponse, http.Header) {
	t.Helper()
	resp, err := http.Post(url+"/predict", "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /predict: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	var pr predictResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &pr); err != nil {
			t.Fatalf("decoding %q: %v", data, err)
		}
	}
	return resp.StatusCode, pr, resp.Header
}

func armFaults(t *testing.T, spec string) {
	t.Helper()
	if err := faultinject.Configure(spec, 1); err != nil {
		t.Fatalf("Configure(%q): %v", spec, err)
	}
	t.Cleanup(faultinject.Disable)
}

func TestPredictOK(t *testing.T) {
	_, ts := newTestServer(t, nil)
	m := testMatrix(t)
	status, pr, _ := postPredict(t, ts.URL, mmBytes(t, m))
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200", status)
	}
	if pr.Degraded {
		t.Fatalf("healthy predict marked degraded: %+v", pr)
	}
	if !strings.Contains(pr.Method, "CSR") {
		t.Errorf("method = %q, want the CSR selection of the test model", pr.Method)
	}
	if pr.Rows != m.Rows || pr.Cols != m.Cols || pr.NNZ != m.NNZ() {
		t.Errorf("echoed shape %dx%d/%d, want %dx%d/%d", pr.Rows, pr.Cols, pr.NNZ, m.Rows, m.Cols, m.NNZ())
	}
}

func TestPredictRejectsBadInput(t *testing.T) {
	_, ts := newTestServer(t, nil)

	status, _, _ := postPredict(t, ts.URL, []byte("this is not a matrix"))
	if status != http.StatusBadRequest {
		t.Errorf("garbage body: status = %d, want 400", status)
	}

	resp, err := http.Get(ts.URL + "/predict")
	if err != nil {
		t.Fatalf("GET /predict: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /predict: status = %d, want 405", resp.StatusCode)
	}
}

func TestPredictBodyCap(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.MaxBodyBytes = 200 })
	body := mmBytes(t, testMatrix(t))
	if len(body) <= 200 {
		t.Fatalf("test matrix serializes to %d bytes, need > 200", len(body))
	}
	status, _, _ := postPredict(t, ts.URL, body)
	if status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status = %d, want 413", status)
	}
}

func TestPredictReadLimits(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.Limits = matrix.ReadLimits{MaxRows: 100, MaxCols: 100, MaxNNZ: 1000}
	})
	status, _, _ := postPredict(t, ts.URL, mmBytes(t, testMatrix(t))) // 200x200
	if status != http.StatusBadRequest {
		t.Errorf("over-limit matrix: status = %d, want 400", status)
	}
}

// TestLoadShed drives a slow predictor (serve.predict.delay) with more
// concurrency than MaxInFlight+MaxQueue admits: the overflow must shed with
// 429 + Retry-After while admitted requests still answer 200.
func TestLoadShed(t *testing.T) {
	armFaults(t, "serve.predict.delay:delay:d=250ms:times=all")
	_, ts := newTestServer(t, func(c *Config) {
		c.MaxInFlight = 1
		c.MaxQueue = 1
		c.QueueWait = 30 * time.Millisecond
	})
	body := mmBytes(t, testMatrix(t))

	const n = 6
	statuses := make([]int, n)
	headers := make([]http.Header, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], _, headers[i] = postPredict(t, ts.URL, body)
		}(i)
	}
	wg.Wait()

	var ok, shed int
	for i, st := range statuses {
		switch st {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
			if headers[i].Get("Retry-After") == "" {
				t.Errorf("429 without Retry-After header")
			}
		default:
			t.Errorf("request %d: status = %d, want 200 or 429", i, st)
		}
	}
	if ok == 0 || shed == 0 {
		t.Errorf("ok=%d shed=%d; want both admitted and shed requests under overload", ok, shed)
	}
}

// TestDegradedOnPredictError is the acceptance scenario: with
// serve.predict.error:times=all, every well-formed request still gets a 200
// with the CSR fallback, marked degraded.
func TestDegradedOnPredictError(t *testing.T) {
	armFaults(t, "serve.predict.error:error:times=all")
	_, ts := newTestServer(t, nil)
	body := mmBytes(t, testMatrix(t))
	for i := 0; i < 3; i++ {
		status, pr, _ := postPredict(t, ts.URL, body)
		if status != http.StatusOK {
			t.Fatalf("request %d: status = %d, want 200 (degraded, never failed)", i, status)
		}
		if !pr.Degraded {
			t.Fatalf("request %d: degraded = false under injected predictor failure", i)
		}
		if pr.Reason != reasonPredictError && pr.Reason != reasonBreakerOpen {
			t.Errorf("request %d: reason = %q", i, pr.Reason)
		}
		if !strings.Contains(pr.Method, "CSR") {
			t.Errorf("request %d: fallback method = %q, want CSR", i, pr.Method)
		}
	}
}

// TestDegradedOnDeadline stalls the predictor past the request timeout; the
// response must degrade with reason "deadline" rather than hang or fail.
func TestDegradedOnDeadline(t *testing.T) {
	armFaults(t, "serve.predict.delay:delay:d=200ms")
	_, ts := newTestServer(t, func(c *Config) { c.RequestTimeout = 40 * time.Millisecond })
	status, pr, _ := postPredict(t, ts.URL, mmBytes(t, testMatrix(t)))
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200", status)
	}
	if !pr.Degraded || pr.Reason != reasonDeadline {
		t.Fatalf("got degraded=%v reason=%q, want deadline degradation", pr.Degraded, pr.Reason)
	}
}

// TestBreakerTripAndRecover walks the full automaton over HTTP: consecutive
// predictor failures trip the breaker (fallback-only), the cooldown half-
// opens it, and a successful probe closes it again.
func TestBreakerTripAndRecover(t *testing.T) {
	armFaults(t, "serve.predict.error:error:times=2")
	s, ts := newTestServer(t, func(c *Config) {
		c.BreakerThreshold = 2
		c.BreakerCooldown = 50 * time.Millisecond
	})
	body := mmBytes(t, testMatrix(t))

	for i := 0; i < 2; i++ {
		_, pr, _ := postPredict(t, ts.URL, body)
		if !pr.Degraded || pr.Reason != reasonPredictError {
			t.Fatalf("failure %d: degraded=%v reason=%q", i, pr.Degraded, pr.Reason)
		}
	}
	if st := s.breaker.currentState(); st != breakerOpen {
		t.Fatalf("after %d failures breaker is %s, want open", 2, st)
	}
	// Open circuit: the fault is exhausted, but the predictor must not run.
	_, pr, _ := postPredict(t, ts.URL, body)
	if !pr.Degraded || pr.Reason != reasonBreakerOpen {
		t.Fatalf("open circuit: degraded=%v reason=%q, want breaker-open", pr.Degraded, pr.Reason)
	}
	time.Sleep(60 * time.Millisecond)
	// Cooldown elapsed: this request is the half-open probe and succeeds.
	_, pr, _ = postPredict(t, ts.URL, body)
	if pr.Degraded {
		t.Fatalf("probe after cooldown degraded: %+v", pr)
	}
	if st := s.breaker.currentState(); st != breakerClosed {
		t.Fatalf("after successful probe breaker is %s, want closed", st)
	}
}

// TestHandlerPanicRecovered injects a panic into the request guard of every
// POST route: that request gets a 500, and the server keeps answering
// afterwards.
func TestHandlerPanicRecovered(t *testing.T) {
	mm := mmBytes(t, testMatrix(t))
	spmv, err := json.Marshal(spmvRequest{Matrix: string(mm)})
	if err != nil {
		t.Fatal(err)
	}
	post := func(url string, body []byte) (int, bool) {
		t.Helper()
		resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", url, err)
		}
		defer resp.Body.Close()
		var out struct {
			Degraded bool `json:"degraded"`
		}
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatalf("decoding %s answer: %v", url, err)
			}
		}
		return resp.StatusCode, out.Degraded
	}
	for _, route := range []struct {
		path string
		body []byte
	}{{"/predict", mm}, {"/matrix", mm}, {"/spmv", spmv}} {
		armFaults(t, "serve.handler.panic:panic")
		_, ts := newTestServer(t, nil)

		if status, _ := post(ts.URL+route.path, route.body); status != http.StatusInternalServerError {
			t.Fatalf("%s panicking request: status = %d, want 500", route.path, status)
		}
		if status, degraded := post(ts.URL+route.path, route.body); status != http.StatusOK || degraded {
			t.Fatalf("%s request after panic: status=%d degraded=%v, want healthy 200", route.path, status, degraded)
		}
	}
}

// TestReloadRollback corrupts the model file on disk and forces a reload:
// the swap must be rejected, the previous generation must keep serving, and
// restoring a good file must make reload succeed again.
func TestReloadRollback(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "models.json")
	good, err := os.ReadFile(sharedModelPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, func(c *Config) { c.ModelPath = path })
	want := s.ModelCount()
	body := mmBytes(t, testMatrix(t))

	if err := os.WriteFile(path, []byte("{ torn write"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Reload(); err == nil || !strings.Contains(err.Error(), "reload rejected") {
		t.Fatalf("Reload on corrupt file: err = %v, want rejection", err)
	}
	if got := s.ModelCount(); got != want {
		t.Fatalf("after rejected reload: %d models, want %d (rollback)", got, want)
	}
	if status, pr, _ := postPredict(t, ts.URL, body); status != http.StatusOK || pr.Degraded {
		t.Fatalf("serving after rejected reload: status=%d degraded=%v", status, pr.Degraded)
	}

	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Reload(); err != nil {
		t.Fatalf("Reload on restored file: %v", err)
	}
	if got := s.ModelCount(); got != want {
		t.Fatalf("after good reload: %d models, want %d", got, want)
	}
}

// TestReloadReselectsWarmSessions pins the generation ID to the model
// file's content: after a reload to a model that selects a different
// method, a prepared session must answer warm /predict and /spmv with the
// new model's selection, and so must a session rehydrated from the spill
// directory by a server restarted on the new model file.
func TestReloadReselectsWarmSessions(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "models.json")
	csrModel, err := os.ReadFile(sharedModelPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, csrModel, 0o644); err != nil {
		t.Fatal(err)
	}
	spill := filepath.Join(dir, "spill")
	mut := func(c *Config) { c.ModelPath, c.SessionSpillDir = path, spill }
	s, ts := newTestServer(t, mut)
	genA := s.GenerationID()
	if genA == "" {
		t.Fatal("file-backed server has no generation ID")
	}

	warmPredict := func(url, fp string) predictResponse {
		t.Helper()
		resp, err := http.Post(url+"/predict?fp="+fp, "text/plain", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var pr predictResponse
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil || resp.StatusCode != http.StatusOK || !pr.Cached {
			t.Fatalf("warm predict: status=%d resp=%+v err=%v", resp.StatusCode, pr, err)
		}
		return pr
	}
	status, mr := postMatrix(t, ts.URL, mmBytes(t, testMatrix(t)))
	if status != http.StatusOK || !mr.Stored {
		t.Fatalf("upload: status=%d resp=%+v", status, mr)
	}
	csr := warmPredict(ts.URL, mr.Fingerprint).Method

	// Same path, new model: SELLPACK is now the predicted win.
	if err := buildTestModel(path, []int{0, 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Reload(); err != nil {
		t.Fatalf("Reload: %v", err)
	}
	if genB := s.GenerationID(); genB == "" || genB == genA {
		t.Fatalf("generation ID after reload = %q, want a new non-empty ID (was %q)", genB, genA)
	}
	sell := warmPredict(ts.URL, mr.Fingerprint).Method
	if sell == csr || !strings.HasPrefix(sell, "SELLPACK") {
		t.Fatalf("warm predict after reload answered %s, want the new model's SELLPACK (was %s)", sell, csr)
	}
	status, sr, raw := postSpMV(t, ts.URL, spmvRequest{Fingerprint: mr.Fingerprint})
	if status != http.StatusOK || !sr.Warm || sr.Method != sell {
		t.Fatalf("warm /spmv after reload: status=%d resp=%+v body=%s, want method %s", status, sr, raw, sell)
	}

	// Restart over the same spill directory with the new model file: the
	// rehydrated session carries the old generation's selection and must
	// re-select on first use.
	ts.Close()
	s2, ts2 := newTestServer(t, mut)
	if st := s2.Sessions().Stats(); st.Recoveries != 1 {
		t.Fatalf("restart rehydration: %+v", st)
	}
	if got := warmPredict(ts2.URL, mr.Fingerprint).Method; got != sell {
		t.Fatalf("rehydrated session answered %s, want the new model's %s", got, sell)
	}
}

// TestFileSourceChecksumChange is the reload-trigger fix: a model file
// rewritten with different bytes but identical mtime and size (coarse
// timestamps, same-length payload) must still read as changed via the
// envelope checksum.
func TestFileSourceChecksumChange(t *testing.T) {
	path := filepath.Join(t.TempDir(), "models.json")
	payloadA := []byte(`{"payload":"aaaa"}`)
	payloadB := []byte(`{"payload":"bbbb"}`)
	if err := resilience.WriteArtifact(path, core.ModelsArtifactKind, 1, payloadA); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	src := &fileSource{path: path, mach: machine.Scaled()}
	cur := &loadedModel{mtime: fi.ModTime(), size: fi.Size(), sum: peekSum(path)}
	if cur.sum == "" {
		t.Fatal("enveloped artifact yielded no header checksum")
	}
	if src.changed(cur) {
		t.Fatal("unchanged file reported as changed")
	}

	// Same-length payload -> byte-identical file size; restore mtime to
	// simulate a rewrite within one timestamp granule.
	if err := resilience.WriteArtifact(path, core.ModelsArtifactKind, 1, payloadB); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, fi.ModTime(), fi.ModTime()); err != nil {
		t.Fatal(err)
	}
	fiB, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fiB.Size() != fi.Size() || !fiB.ModTime().Equal(fi.ModTime()) {
		t.Fatalf("test setup failed to keep identity: size %d->%d mtime %v->%v",
			fi.Size(), fiB.Size(), fi.ModTime(), fiB.ModTime())
	}
	if !src.changed(cur) {
		t.Fatal("same-mtime same-size rewrite not detected by checksum compare")
	}

	// Legacy files without an envelope keep the mtime+size-only contract.
	legacy := &loadedModel{mtime: fiB.ModTime(), size: fiB.Size(), sum: ""}
	if src.changed(legacy) {
		t.Fatal("legacy (no-checksum) generation flagged changed on identical identity")
	}
}

// TestReloadInjectedCorruption exercises the serve.reload.corrupt site: the
// validation failure is injected, so even a pristine file is rejected and
// the serving generation survives.
func TestReloadInjectedCorruption(t *testing.T) {
	armFaults(t, "serve.reload.corrupt:error")
	s, ts := newTestServer(t, nil)
	if err := s.Reload(); err == nil || !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Reload under injection: err = %v, want ErrInjected", err)
	}
	// The clause fired once; the next reload sees the real (valid) file.
	if err := s.Reload(); err != nil {
		t.Fatalf("Reload after injection: %v", err)
	}
	if status, _, _ := postPredict(t, ts.URL, mmBytes(t, testMatrix(t))); status != http.StatusOK {
		t.Fatalf("serving after reload cycle: status = %d", status)
	}
}

func TestHealthEndpoints(t *testing.T) {
	s, ts := newTestServer(t, nil)

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(data)
	}

	if st, body := get("/healthz"); st != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("/healthz: %d %q", st, body)
	}
	if st, body := get("/readyz"); st != http.StatusOK || !strings.Contains(body, "ready") {
		t.Errorf("/readyz: %d %q", st, body)
	}
	s.SetReady(false)
	if st, _ := get("/readyz"); st != http.StatusServiceUnavailable {
		t.Errorf("/readyz while draining: %d, want 503", st)
	}
	s.SetReady(true)

	postPredict(t, ts.URL, mmBytes(t, testMatrix(t)))
	if st, body := get("/metricz"); st != http.StatusOK ||
		!strings.Contains(body, "serve.requests_total") ||
		!strings.Contains(body, "serve.request_seconds") {
		t.Errorf("/metricz: %d, missing serve counters in %q", st, body)
	}
}

// TestServeDrain runs the full lifecycle: Serve on a real listener, a live
// request, then cancellation — Serve must return ctx.Err() (the CLI's exit
// 130) and leave no goroutines behind.
func TestServeDrain(t *testing.T) {
	s, err := New(Config{
		ModelPath:    sharedModelPath,
		Mach:         machine.Scaled(),
		DrainTimeout: time.Second,
		ReloadPoll:   10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// The runtime starts a permanent os/signal.loop goroutine on the first
	// Notify; prime it so the leak check below counts only our goroutines.
	sigWarm := make(chan os.Signal, 1)
	signal.Notify(sigWarm, syscall.SIGHUP)
	signal.Stop(sigWarm)
	before := runtime.NumGoroutine()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()

	client := &http.Client{Transport: &http.Transport{}}
	url := "http://" + ln.Addr().String()
	resp, err := client.Post(url+"/predict", "text/plain", bytes.NewReader(mmBytes(t, testMatrix(t))))
	if err != nil {
		t.Fatalf("predict against live listener: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	client.CloseIdleConnections()

	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Serve returned %v, want context.Canceled after drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after cancellation")
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutine leak after drain: %d > %d\n%s", n, before, buf[:runtime.Stack(buf, true)])
	}
}

func TestAdmissionControl(t *testing.T) {
	a := newAdmission(1, 1, 25*time.Millisecond)
	ctx := context.Background()
	if err := a.acquire(ctx); err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	// Queue has room: this waiter times out after maxWait.
	start := time.Now()
	if err := a.acquire(ctx); !errors.Is(err, errSaturated) {
		t.Fatalf("queued acquire: err = %v, want errSaturated", err)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Errorf("queued acquire returned in %v, want ~25ms wait", time.Since(start))
	}

	// Fill the queue with a real waiter, then the next acquire sheds fast.
	release := make(chan struct{})
	go func() {
		<-release
		a.release()
	}()
	waiting := make(chan error, 1)
	go func() { waiting <- a.acquire(ctx) }()
	for a.waiters.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := a.acquire(ctx); !errors.Is(err, errSaturated) {
		t.Fatalf("acquire with full queue: err = %v, want immediate errSaturated", err)
	}
	close(release)
	if err := <-waiting; err != nil {
		t.Fatalf("queued waiter after release: %v", err)
	}
	a.release()

	// A cancelled caller gets ctx.Err, not a shed.
	if err := a.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if err := a.acquire(cctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled acquire: err = %v, want context.Canceled", err)
	}
	a.release()
}

func TestBreakerAutomaton(t *testing.T) {
	b := newBreaker(2, time.Minute)
	now := time.Unix(0, 0)
	b.now = func() time.Time { return now }

	if use, probe := b.allow(); !use || probe {
		t.Fatalf("closed allow = (%v, %v), want (true, false)", use, probe)
	}
	b.report(false, false)
	b.report(false, false)
	if st := b.currentState(); st != breakerOpen {
		t.Fatalf("after threshold failures: %s, want open", st)
	}
	if use, _ := b.allow(); use {
		t.Fatal("open circuit within cooldown allowed the predictor")
	}

	now = now.Add(time.Minute)
	use, probe := b.allow()
	if !use || !probe {
		t.Fatalf("post-cooldown allow = (%v, %v), want probe (true, true)", use, probe)
	}
	if use, _ := b.allow(); use {
		t.Fatal("second request ran the predictor while a probe was in flight")
	}
	b.report(false, true)
	if st := b.currentState(); st != breakerOpen {
		t.Fatalf("after failed probe: %s, want open again", st)
	}

	now = now.Add(time.Minute)
	if use, probe := b.allow(); !use || !probe {
		t.Fatal("no second probe after another cooldown")
	}
	b.report(true, true)
	if st := b.currentState(); st != breakerClosed {
		t.Fatalf("after successful probe: %s, want closed", st)
	}
	if use, probe := b.allow(); !use || probe {
		t.Fatalf("closed-again allow = (%v, %v), want (true, false)", use, probe)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.MaxInFlight <= 0 || c.MaxQueue <= 0 || c.QueueWait <= 0 ||
		c.RequestTimeout <= 0 || c.MaxBodyBytes <= 0 || c.BreakerThreshold <= 0 ||
		c.BreakerCooldown <= 0 || c.ReloadPoll <= 0 || c.DrainTimeout <= 0 {
		t.Fatalf("zero config did not fill defaults: %+v", c)
	}
	if c.Limits == (matrix.ReadLimits{}) {
		t.Fatal("zero config did not fill read limits")
	}
}

func TestNewRejectsBadModelPath(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "nope.json")
	_, err := New(Config{ModelPath: missing, Mach: machine.Scaled()})
	if err == nil || !strings.Contains(err.Error(), missing) {
		t.Fatalf("New with missing model: err = %v, want path in message", err)
	}
}
