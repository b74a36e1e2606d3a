// Command wisebench is the end-to-end benchmark of wise-serve. It launches
// the real wise-serve binary as a child process on 127.0.0.1:0, drives one
// of three seeded closed-loop workloads against it, checks every answer,
// and prints one JSON result line. With -trace 1 it also replays the same
// inputs in-process through each module's public functions, recording
// spans, and reports per-layer figures instead. See README.md.
//
//	bash wisebench/run.sh --workload cold-predict --seed 1 --seconds 25 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"wise/internal/core"
	"wise/internal/machine"
	"wise/internal/stats"
)

// workload is one traffic mix.
type workload struct {
	name         string
	clients      int   // closed-loop connections
	sessionBytes int64 // wise-serve -session-bytes; 0 keeps the default
	warm         bool  // setup prepares every corpus matrix via POST /matrix
	ops          func(seed int64, mats []*corpusMatrix) []op
	// bypass is the layer-bypass proof: the /metricz deltas over the
	// measured phase must show the workload touched exactly the session
	// work it claims.
	bypass func(d func(string) int64, res loadResult) error
}

var workloads = []workload{
	{
		name: "cold-predict", clients: 2, ops: coldOps,
		bypass: func(d func(string) int64, _ loadResult) error {
			if b := d("session.builds"); b != 0 {
				return fmt.Errorf("cold-predict built %d sessions; /predict inline must bypass the session layer", b)
			}
			return nil
		},
	},
	{
		name: "warm-spmv", clients: 1, warm: true, ops: warmOps,
		bypass: func(d func(string) int64, res loadResult) error {
			if b := d("session.builds"); b != 0 {
				return fmt.Errorf("warm-spmv built %d sessions after setup; every request must be warm", b)
			}
			if e := d("session.execs"); e != int64(res.Attempted) {
				return fmt.Errorf("warm-spmv: %d session executions for %d requests", e, res.Attempted)
			}
			return nil
		},
	},
	{
		name: "ingest-mix", clients: 2, sessionBytes: ingestSessionBytes, ops: ingestOps,
		bypass: func(d func(string) int64, _ loadResult) error {
			if d("session.evictions") <= 0 || d("session.hits") <= 0 {
				return fmt.Errorf("ingest-mix: %d evictions, %d hits; the budget must both evict and hit",
					d("session.evictions"), d("session.hits"))
			}
			return nil
		},
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// Each run sets wise-serve up in two rounds, one before the load and one
// after it, so the set-ups sample the host at two moments half a minute
// apart. A round repeats set-ups until it has done at least
// setupRoundMin of them and spent at least setupRoundTime; setup_s is the
// median over both rounds. The last set-up of the first round takes the
// load.
const (
	setupRoundMin  = 5
	setupRoundTime = 500 * time.Millisecond
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name      = flag.String("workload", "", "workload: cold-predict, warm-spmv or ingest-mix")
		seed      = flag.Int64("seed", 1, "input seed: corpus and request sequence")
		seconds   = flag.Float64("seconds", 25, "measured load duration")
		traceFlag = flag.Int("trace", 0, "1 reports per-layer figures from a traced in-process replay")
		serverBin = flag.String("server", "", "wise-serve binary built from the tree under test")
		workDir   = flag.String("workdir", "", "directory for the model cache and span files")
	)
	flag.Parse()
	wl, ok := lookupWorkload(*name)
	if !ok || *serverBin == "" || *workDir == "" || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: wisebench -server <wise-serve> -workdir <dir> --workload cold-predict|warm-spmv|ingest-mix --seed N --seconds S --trace 0|1")
		return 2
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "wisebench: %v\n", err)
		return 1
	}
	res, err := runWorkload(wl, *seed, time.Duration(*seconds*float64(time.Second)), *traceFlag == 1, *serverBin, *workDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wisebench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wisebench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// environment records what the figures were measured on.
func environment() map[string]any {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpu,
		"os":         runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// hostReferenceMs times a fixed computation that runs no code of this
// repository: sorting the same 2^18 pseudo-random floats, median of five.
// It is printed beside the figures, not reported as a metric, so that a
// reader can tell a change in the host's speed from one in the program.
func hostReferenceMs() float64 {
	rng := rand.New(rand.NewSource(1))
	base := make([]float64, 1<<18)
	for i := range base {
		base[i] = rng.Float64()
	}
	work := make([]float64, len(base))
	var times []float64
	for r := 0; r < 5; r++ {
		copy(work, base)
		t0 := time.Now()
		sort.Float64s(work)
		times = append(times, ms(time.Since(t0)))
	}
	return median(times)
}

// runWorkload runs one workload end to end and assembles its result.
func runWorkload(wl workload, seed int64, dur time.Duration, traced bool, serverBin, workDir string) (result, error) {
	env := environment()
	envLine, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envLine)

	hostBefore := hostReferenceMs()
	mats, err := corpus(seed)
	if err != nil {
		return result{}, err
	}
	modelPath, err := trainModel(workDir)
	if err != nil {
		return result{}, err
	}
	w, err := core.Load(modelPath, machine.Scaled())
	if err != nil {
		return result{}, err
	}
	selectAll(w, mats)
	ops := wl.ops(seed, mats)
	chk := newChecker(mats, ops)

	client := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: wl.clients, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
	defer client.CloseIdleConnections()
	var extra []string
	if wl.sessionBytes > 0 {
		extra = append(extra, fmt.Sprintf("-session-bytes=%d", wl.sessionBytes))
	}

	setups, srv, err := setUpRound(serverBin, modelPath, extra, client, wl, mats, chk, true)
	if err != nil {
		return result{}, err
	}
	measured, err := measure(srv, client, wl, ops, dur, chk)
	client.CloseIdleConnections()
	stopErr := srv.stop()
	if err != nil {
		return result{}, err
	}
	if stopErr != nil {
		return result{}, stopErr
	}
	later, _, err := setUpRound(serverBin, modelPath, extra, client, wl, mats, chk, false)
	if err != nil {
		return result{}, err
	}
	setups = append(setups, later...)
	load := measured.load
	correct := load.Failed == 0 // degraded answers count as failed
	for _, e := range load.Errors {
		fmt.Fprintf(os.Stderr, "wisebench: %s\n", e)
	}
	if err := wl.bypass(measured.delta, load); err != nil {
		fmt.Fprintf(os.Stderr, "wisebench: layer bypass: %v\n", err)
		correct = false
	}

	kt := timeKernels(w, mats)
	fmt.Printf("host reference sort: %.3f ms before the run, %.3f ms after\n", hostBefore, hostReferenceMs())
	p50 := stats.Percentile(load.Latencies, 50)
	fmt.Printf("load %s: %d requests (%d failed, of which %d degraded) in %.2fs; p50 %.3f ms, p99 %.3f ms over %d samples; "+
		"session builds %d, hits %d, evictions %d; setup median %.4f s over %d set-ups\n",
		wl.name, load.Attempted, load.Failed, load.Degraded, load.Wall.Seconds(), p50, stats.Percentile(load.Latencies, 99), len(load.Latencies),
		measured.delta("session.builds"), measured.delta("session.hits"), measured.delta("session.evictions"), median(setups), len(setups))

	res := result{Correct: correct, Attempted: load.Attempted, Failed: load.Failed}
	if !traced {
		res.Metrics = map[string]metric{
			"setup_s":             {median(setups), "s"},
			"latency_p50_ms":      {p50, "ms"},
			"latency_p99_ms":      {stats.Percentile(load.Latencies, 99), "ms"},
			"throughput_rps":      {float64(load.ok()) / load.Wall.Seconds(), "1/s"},
			"cpu_ms_per_req":      {measured.cpuSeconds * 1000 / float64(load.Attempted), "ms"},
			"server_rss_mb":       {measured.rssMB, "MiB"},
			"spmv_speedup_vs_csr": {kt.speedup(), "x"},
		}
		return res, nil
	}

	layers, ok, err := traceLayers(wl, seed, w, modelPath, mats, ops, chk, kt, measured, p50, env, workDir)
	if err != nil {
		return result{}, err
	}
	res.Correct = res.Correct && ok
	res.Metrics = layers
	return res, nil
}

// setUpRound launches and sets up wise-serve repeatedly and returns each
// set-up's seconds. With keep set the last server is left running and
// returned; the caller must stop it.
func setUpRound(bin, model string, extra []string, client *http.Client, wl workload, mats []*corpusMatrix, chk *checker,
	keep bool) ([]float64, *server, error) {
	var times []float64
	start := time.Now()
	for {
		t0 := time.Now()
		s, err := startServer(bin, model, extra...)
		if err != nil {
			return nil, nil, err
		}
		if err := setUp(s, client, wl, mats, chk); err != nil {
			_ = s.stop() // the set-up failure is the one to report
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		last := len(times) >= setupRoundMin && time.Since(start) >= setupRoundTime
		if last && keep {
			return times, s, nil
		}
		client.CloseIdleConnections()
		if err := s.stop(); err != nil {
			return nil, nil, err
		}
		if last {
			return times, nil, nil
		}
	}
}

// setUp waits for readiness and, on warm-spmv, prepares every corpus
// matrix through POST /matrix, checking each answer.
func setUp(s *server, client *http.Client, wl workload, mats []*corpusMatrix, chk *checker) error {
	if err := s.waitReady(client); err != nil {
		return err
	}
	if !wl.warm {
		return nil
	}
	for i, c := range mats {
		status, raw, err := post(client, s.url+"/matrix", bytes.NewReader(c.Body), int64(len(c.Body)))
		if err != nil {
			return fmt.Errorf("preparing %s: %w", c.Name, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("preparing %s: HTTP %d: %s", c.Name, status, raw)
		}
		if _, err := chk.check(op{Path: "/matrix", Mat: i, FP: c.FP}, raw); err != nil {
			return fmt.Errorf("preparing: %w", err)
		}
	}
	return nil
}

// measurement is the load phase plus what the server process reported
// around it.
type measurement struct {
	load       loadResult
	cpuSeconds float64 // server CPU over the load phase
	rssMB      float64 // median server resident set over the load phase
	before     metricz
	after      metricz
}

// delta is a /metricz counter's change over the load phase.
func (m measurement) delta(name string) int64 {
	return m.after.Counters[name] - m.before.Counters[name]
}

func measure(s *server, client *http.Client, wl workload, ops []op, dur time.Duration, chk *checker) (measurement, error) {
	var m measurement
	var err error
	if m.before, err = s.scrape(client); err != nil {
		return m, err
	}
	cpu0, err := s.cpuSeconds()
	if err != nil {
		return m, err
	}
	// Sample the server's resident set while the load runs.
	done := make(chan struct{})
	sampled := make(chan []float64, 1)
	go func() {
		var rss []float64
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			if mb, err := s.rssMB(); err == nil {
				rss = append(rss, mb)
			}
			select {
			case <-done:
				sampled <- rss
				return
			case <-tick.C:
			}
		}
	}()
	m.load = runLoad(client, s.url, ops, wl.clients, dur, chk)
	close(done)
	rss := <-sampled
	if len(rss) == 0 {
		return m, errors.New("no resident-set sample of wise-serve")
	}
	m.rssMB = median(rss)
	cpu1, err := s.cpuSeconds()
	if err != nil {
		return m, err
	}
	m.cpuSeconds = cpu1 - cpu0
	m.after, err = s.scrape(client)
	return m, err
}

// rssEvery is the resident-set sampling period of the load phase.
const rssEvery = 100 * time.Millisecond
