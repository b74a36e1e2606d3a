package wise

// End-to-end integration tests of the six CLI tools: each binary is built
// once into a shared temp dir and exercised the way a user would chain them
// (generate -> features -> train -> predict -> bench -> serve).

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

var (
	cliOnce sync.Once
	cliDir  string
	cliErr  error
)

// buildCLIs compiles every cmd/ binary once per test run.
func buildCLIs(t *testing.T) string {
	t.Helper()
	cliOnce.Do(func() {
		dir, err := os.MkdirTemp("", "wise-cli")
		if err != nil {
			cliErr = err
			return
		}
		cliDir = dir
		for _, tool := range []string{"wise-gen", "wise-features", "wise-train", "wise-predict", "wise-bench", "wise-serve", "wise-lint"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "./cmd/"+tool)
			cmd.Dir = "."
			if out, err := cmd.CombinedOutput(); err != nil {
				cliErr = err
				t.Logf("building %s: %s", tool, out)
				return
			}
		}
	})
	if cliErr != nil {
		t.Fatalf("building CLIs: %v", cliErr)
	}
	return cliDir
}

func runCLI(t *testing.T, name string, args ...string) string {
	t.Helper()
	dir := buildCLIs(t)
	cmd := exec.Command(filepath.Join(dir, name), args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return string(out)
}

// runCLIExit runs a CLI expecting a specific exit code (possibly nonzero),
// with extra environment variables (e.g. WISE_FAULTS, see RESILIENCE.md).
func runCLIExit(t *testing.T, env []string, name string, args ...string) (string, int) {
	t.Helper()
	dir := buildCLIs(t)
	cmd := exec.Command(filepath.Join(dir, name), args...)
	cmd.Env = append(os.Environ(), env...)
	out, err := cmd.CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return string(out), exitErr.ExitCode()
}

func TestCLIGenSingleMatrix(t *testing.T) {
	tmp := t.TempDir()
	mtx := filepath.Join(tmp, "m.mtx")
	out := runCLI(t, "wise-gen", "-kind", "rmat", "-class", "MS", "-rows", "512", "-degree", "8", "-out", mtx)
	if !strings.Contains(out, "512 x 512") {
		t.Errorf("unexpected output: %s", out)
	}
	m, err := ReadMatrixMarket(mtx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 512 {
		t.Errorf("rows = %d", m.Rows)
	}
}

func TestCLIGenKinds(t *testing.T) {
	tmp := t.TempDir()
	for _, kind := range []string{"rgg", "banded", "stencil2d", "stencil3d", "fem", "powerlaw", "uniform"} {
		mtx := filepath.Join(tmp, kind+".mtx")
		runCLI(t, "wise-gen", "-kind", kind, "-rows", "400", "-degree", "6", "-out", mtx)
		m, err := ReadMatrixMarket(mtx)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if m.NNZ() == 0 {
			t.Errorf("%s: empty matrix", kind)
		}
	}
}

func TestCLIGenCorpus(t *testing.T) {
	tmp := t.TempDir()
	dir := filepath.Join(tmp, "corpus")
	out := runCLI(t, "wise-gen", "-kind", "corpus", "-small", "-outdir", dir)
	if !strings.Contains(out, "wrote") {
		t.Errorf("corpus output: %s", out)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 10 { // 4 sci + 7 classes * 2 scales
		t.Errorf("corpus dir has %d files", len(files))
	}
	// Every file must parse back.
	m, err := ReadMatrixMarket(filepath.Join(dir, files[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() == 0 {
		t.Error("empty corpus matrix")
	}
	// Unknown kinds fail.
	cmd := exec.Command(filepath.Join(buildCLIs(t), "wise-gen"), "-kind", "nonsense", "-out", filepath.Join(tmp, "x.mtx"))
	if badOut, err := cmd.CombinedOutput(); err == nil {
		t.Errorf("unknown kind accepted: %s", badOut)
	}
}

func TestCLIFeatures(t *testing.T) {
	tmp := t.TempDir()
	mtx := filepath.Join(tmp, "m.mtx")
	runCLI(t, "wise-gen", "-kind", "banded", "-rows", "300", "-degree", "3", "-out", mtx)
	out := runCLI(t, "wise-features", mtx)
	for _, want := range []string{"n_rows", "gini_R", "p_T", "potReuseC"} {
		if !strings.Contains(out, want) {
			t.Errorf("features output missing %s", want)
		}
	}
	if !strings.Contains(out, "n_rows             300") {
		t.Errorf("n_rows value wrong:\n%s", out)
	}
}

func TestCLITrainPredictRoundTrip(t *testing.T) {
	tmp := t.TempDir()
	models := filepath.Join(tmp, "models.json")

	// Train on a small corpus: override via seed only; the default corpus is
	// moderate but acceptable for one integration test. Use fewer folds.
	out := runCLI(t, "wise-train", "-small", "-out", models, "-folds", "5")
	if !strings.Contains(out, "mean speedup over MKL baseline") {
		t.Errorf("train output missing summary:\n%s", out)
	}
	if _, err := os.Stat(models); err != nil {
		t.Fatal(err)
	}

	mtx := filepath.Join(tmp, "m.mtx")
	runCLI(t, "wise-gen", "-kind", "rmat", "-class", "HS", "-rows", "2048", "-degree", "16", "-out", mtx)
	pout := runCLI(t, "wise-predict", "-models", models, "-run", mtx)
	if !strings.Contains(pout, "selected:") {
		t.Errorf("predict output missing selection:\n%s", pout)
	}
	if !strings.Contains(pout, "max |y - y_ref| = 0") {
		t.Errorf("predicted method did not verify:\n%s", pout)
	}
}

func TestCLIBenchSingleExperiment(t *testing.T) {
	out := runCLI(t, "wise-bench", "-small", "-exp", "fig4")
	if !strings.Contains(out, "fig4") || !strings.Contains(out, "Sell-c-sigma") {
		t.Errorf("bench fig4 output unexpected:\n%s", out)
	}
}

func TestCLIBenchLabelCache(t *testing.T) {
	tmp := t.TempDir()
	cache := filepath.Join(tmp, "labels.json.gz")
	out1 := runCLI(t, "wise-bench", "-small", "-exp", "fig4", "-save-labels", cache)
	if _, err := os.Stat(cache); err != nil {
		t.Fatal(err)
	}
	out2 := runCLI(t, "wise-bench", "-exp", "fig4", "-load-labels", cache)
	// The fig4 table must be identical from fresh labels and from the cache.
	extract := func(s string) string {
		i := strings.Index(s, "== fig4")
		if i < 0 {
			t.Fatalf("no fig4 table in output:\n%s", s)
		}
		s = s[i:]
		// Drop the timing footer (stderr), which legitimately differs.
		if j := strings.Index(s, "total:"); j >= 0 {
			s = s[:j]
		}
		return s
	}
	if extract(out1) != extract(out2) {
		t.Errorf("cached labels changed the result:\n%s\nvs\n%s", extract(out1), extract(out2))
	}
}

func TestCLIPredictExplain(t *testing.T) {
	tmp := t.TempDir()
	models := filepath.Join(tmp, "models.json")
	runCLI(t, "wise-train", "-small", "-out", models, "-folds", "5")
	mtx := filepath.Join(tmp, "m.mtx")
	runCLI(t, "wise-gen", "-kind", "banded", "-rows", "1024", "-degree", "5", "-out", mtx)
	out := runCLI(t, "wise-predict", "-models", models, "-explain", mtx)
	if !strings.Contains(out, "decision path") {
		t.Errorf("explain output missing path:\n%s", out)
	}
}

// Exit codes are part of the CLI contract (RESILIENCE.md): 2 for usage
// errors, 1 for I/O failures, and the error must name the offending
// flag or file.
func TestCLIExitCodes(t *testing.T) {
	tmp := t.TempDir()
	cases := []struct {
		name     string
		tool     string
		args     []string
		env      []string
		wantCode int
		wantMsg  string
	}{
		{"predict no matrix", "wise-predict", nil, nil, 2, "usage"},
		{"predict missing models", "wise-predict", []string{"-models", filepath.Join(tmp, "nope.json"), filepath.Join(tmp, "nope.mtx")}, nil, 1, "-models"},
		{"features missing matrix", "wise-features", []string{filepath.Join(tmp, "nope.mtx")}, nil, 1, "nope.mtx"},
		{"train stray arg", "wise-train", []string{"stray"}, nil, 2, "unexpected argument"},
		{"bench unknown experiment", "wise-bench", []string{"-small", "-exp", "nonsense"}, nil, 2, "unknown experiment"},
		{"gen unknown kind", "wise-gen", []string{"-kind", "nonsense"}, nil, 2, "unknown generator"},
		{"bad fault spec", "wise-train", []string{"-small"}, []string{"WISE_FAULTS=not-a-spec"}, 2, "WISE_FAULTS"},
		{"serve stray arg", "wise-serve", []string{"stray"}, nil, 2, "usage"},
		{"serve missing models", "wise-serve", []string{"-models", filepath.Join(tmp, "nope.json")}, nil, 1, "-models"},
		{"serve session bytes", "wise-serve", []string{"-session-bytes", "-1"}, nil, 2, "-session-bytes"},
		{"suite unknown preset", "wise-bench", []string{"-suite", "XL"}, nil, 2, "-suite"},
		{"compare one file", "wise-bench", []string{"-compare", filepath.Join(tmp, "only.json")}, nil, 2, "-compare"},
		{"compare missing file", "wise-bench", []string{"-compare", filepath.Join(tmp, "nope1.json"), filepath.Join(tmp, "nope2.json")}, nil, 1, "nope1.json"},
		{"lint unknown analyzer", "wise-lint", []string{"-analyzers", "foo,floateq"}, nil, 2, `unknown analyzer "foo"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, code := runCLIExit(t, tc.env, tc.tool, tc.args...)
			if code != tc.wantCode {
				t.Errorf("exit code = %d, want %d\n%s", code, tc.wantCode, out)
			}
			if !strings.Contains(out, tc.wantMsg) {
				t.Errorf("output missing %q:\n%s", tc.wantMsg, out)
			}
		})
	}
}

// TestCLITrainInterruptResume is the end-to-end kill-and-resume guarantee:
// a wise-train run interrupted mid-labeling (via deterministic fault
// injection, the same code path as SIGINT) exits 130 with a checkpoint,
// and rerunning the same command resumes and produces models byte-identical
// to a never-interrupted run.
func TestCLITrainInterruptResume(t *testing.T) {
	tmp := t.TempDir()
	reference := filepath.Join(tmp, "reference.json")
	resumed := filepath.Join(tmp, "resumed.json")
	ckpt := filepath.Join(tmp, "labels.ckpt")

	runCLI(t, "wise-train", "-small", "-folds", "2", "-out", reference)

	out, code := runCLIExit(t,
		[]string{"WISE_FAULTS=perf.label.interrupt:error:after=3"},
		"wise-train", "-small", "-folds", "2", "-out", resumed, "-checkpoint", ckpt)
	if code != 130 {
		t.Fatalf("interrupted run exit code = %d, want 130\n%s", code, out)
	}
	if !strings.Contains(out, "checkpoint saved") {
		t.Errorf("interrupted run did not report the checkpoint:\n%s", out)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint after interrupt: %v", err)
	}
	if _, err := os.Stat(resumed); err == nil {
		t.Fatal("interrupted run still wrote models")
	}

	out2 := runCLI(t, "wise-train", "-small", "-folds", "2", "-out", resumed, "-checkpoint", ckpt)
	if !strings.Contains(out2, "resumed") {
		t.Errorf("resume run did not report resumed matrices:\n%s", out2)
	}

	ref, err := os.ReadFile(reference)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref, got) {
		t.Errorf("resumed models differ from uninterrupted run (%d vs %d bytes)", len(got), len(ref))
	}
}

// TestCLIServeLifecycle boots wise-serve on an ephemeral port, answers a
// real prediction over HTTP, then sends SIGTERM: the server must drain and
// exit 130 (the interrupted-after-cleanup contract shared by all wise
// CLIs). A bad -addr must fail startup with exit 1 naming the flag.
func TestCLIServeLifecycle(t *testing.T) {
	tmp := t.TempDir()
	models := filepath.Join(tmp, "models.json")
	runCLI(t, "wise-train", "-small", "-folds", "2", "-out", models)
	mtx := filepath.Join(tmp, "m.mtx")
	runCLI(t, "wise-gen", "-kind", "banded", "-rows", "512", "-degree", "4", "-out", mtx)

	out, code := runCLIExit(t, nil, "wise-serve", "-models", models, "-addr", "not-an-addr")
	if code != 1 || !strings.Contains(out, "-addr") {
		t.Fatalf("bad -addr: exit %d, want 1 naming the flag\n%s", code, out)
	}

	dir := buildCLIs(t)
	cmd := exec.Command(filepath.Join(dir, "wise-serve"), "-models", models, "-addr", "127.0.0.1:0",
		"-session-spill", filepath.Join(tmp, "spill"))
	var errBuf bytes.Buffer
	cmd.Stderr = &errBuf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() // no-op once Wait has reaped a clean exit

	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("no startup line from wise-serve; stderr:\n%s", errBuf.String())
	}
	line := sc.Text()
	var url string
	for _, f := range strings.Fields(line) {
		if strings.HasPrefix(f, "http://") {
			url = f
		}
	}
	if url == "" {
		t.Fatalf("startup line has no listen URL: %q", line)
	}
	go io.Copy(io.Discard, stdout) // keep the pipe drained after the banner

	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status = %d", resp.StatusCode)
	}
	body, err := os.ReadFile(mtx)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(url+"/predict", "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /predict: %v", err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), `"method"`) {
		t.Fatalf("/predict: status %d body %s", resp.StatusCode, data)
	}

	// Stateful round-trip: upload once, execute warm by fingerprint.
	resp, err = http.Post(url+"/matrix", "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /matrix: %v", err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var stored struct {
		Fingerprint string `json:"fingerprint"`
		Stored      bool   `json:"stored"`
	}
	if err := json.Unmarshal(data, &stored); err != nil || resp.StatusCode != http.StatusOK || !stored.Stored {
		t.Fatalf("/matrix: status %d body %s err %v", resp.StatusCode, data, err)
	}
	resp, err = http.Post(url+"/spmv", "application/json",
		strings.NewReader(fmt.Sprintf(`{"fingerprint":%q,"iterations":2}`, stored.Fingerprint)))
	if err != nil {
		t.Fatalf("POST /spmv: %v", err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), `"warm":true`) {
		t.Fatalf("/spmv by fingerprint: status %d body %s, want warm execution", resp.StatusCode, data)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- cmd.Wait() }()
	select {
	case err := <-waitErr:
		var exitErr *exec.ExitError
		if !errors.As(err, &exitErr) || exitErr.ExitCode() != 130 {
			t.Fatalf("after SIGTERM: %v (stderr: %s), want exit 130", err, errBuf.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("wise-serve did not exit after SIGTERM")
	}
}

// A panic while labeling one matrix must quarantine that matrix, not
// abort the run.
func TestCLITrainQuarantine(t *testing.T) {
	tmp := t.TempDir()
	models := filepath.Join(tmp, "models.json")
	out, code := runCLIExit(t,
		[]string{"WISE_FAULTS=perf.label.matrix:panic:after=2"},
		"wise-train", "-small", "-folds", "2", "-out", models)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "quarantined during labeling") {
		t.Errorf("quarantine not reported:\n%s", out)
	}
	if _, err := os.Stat(models); err != nil {
		t.Errorf("quarantine aborted the run: %v", err)
	}
}

// TestCLIBenchSuiteTrajectory is the BENCHMARKS.md workflow end to end:
// list presets, run the S suite into a BENCH file, self-compare (exit 0),
// compare against an injected regression (exit 1), and against a future
// schema version (exit 2, naming the file).
func TestCLIBenchSuiteTrajectory(t *testing.T) {
	tmp := t.TempDir()

	out := runCLI(t, "wise-bench", "-suite", "-list")
	for _, want := range []string{"preset", "S", "M", "L", "paper", "benchmarks"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list missing %q:\n%s", want, out)
		}
	}

	bench1 := filepath.Join(tmp, "BENCH_1.json")
	out = runCLI(t, "wise-bench", "-suite", "S", "-time-scale", "0.02", "-o", bench1)
	if !strings.Contains(out, "bench suite S") {
		t.Errorf("suite run missing report header:\n%s", out)
	}
	raw, err := os.ReadFile(bench1)
	if err != nil {
		t.Fatalf("suite did not write %s: %v", bench1, err)
	}
	var rep map[string]any
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("BENCH file is not JSON: %v", err)
	}
	if rep["schema"] != float64(1) || rep["preset"] != "S" {
		t.Errorf("BENCH header wrong: schema=%v preset=%v", rep["schema"], rep["preset"])
	}
	env, ok := rep["env"].(map[string]any)
	if !ok || env["go_version"] == "" || env["gomaxprocs"] == nil {
		t.Errorf("BENCH env block missing: %v", rep["env"])
	}

	out, code := runCLIExit(t, nil, "wise-bench", "-compare", bench1, bench1)
	if code != 0 {
		t.Fatalf("self-compare exit = %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "0 regressed") {
		t.Errorf("self-compare not clean:\n%s", out)
	}

	// Inject a 10x regression into the first result and expect the gate to trip.
	results := rep["results"].([]any)
	first := results[0].(map[string]any)
	first["ns_median"] = first["ns_median"].(float64) * 10
	tampered, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	bench2 := filepath.Join(tmp, "BENCH_2.json")
	if err := os.WriteFile(bench2, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	out, code = runCLIExit(t, nil, "wise-bench", "-compare", bench1, bench2)
	if code != 1 {
		t.Fatalf("regression compare exit = %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "regressed") || !strings.Contains(out, first["name"].(string)) {
		t.Errorf("regression not named:\n%s", out)
	}

	// A future schema version is a usage error that names the file.
	rep["schema"] = float64(99)
	future, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	bench99 := filepath.Join(tmp, "BENCH_99.json")
	if err := os.WriteFile(bench99, future, 0o644); err != nil {
		t.Fatal(err)
	}
	out, code = runCLIExit(t, nil, "wise-bench", "-compare", bench1, bench99)
	if code != 2 {
		t.Fatalf("schema-mismatch compare exit = %d, want 2\n%s", code, out)
	}
	if !strings.Contains(out, "BENCH_99.json") || !strings.Contains(out, "schema") {
		t.Errorf("schema error does not name the file:\n%s", out)
	}
}
