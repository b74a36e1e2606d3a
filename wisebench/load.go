package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// reply is the union of the /predict, /matrix and /spmv answer fields the
// checks read.
type reply struct {
	Method      string    `json:"method"`
	Degraded    bool      `json:"degraded"`
	Reason      string    `json:"reason"`
	Fingerprint string    `json:"fingerprint"`
	Y           []float64 `json:"y"`
	YNorm       float64   `json:"y_norm"`
}

// loadResult is what one closed-loop load phase measured.
type loadResult struct {
	Attempted int
	Failed    int       // non-200 answers, transport errors, wrong and degraded answers
	Degraded  int       // 200 answers marked "degraded": true, counted in Failed too
	Latencies []float64 // ms per request; a failed request counts as the whole phase
	Wall      time.Duration
	Errors    []string // the first few failure descriptions
}

func (r loadResult) ok() int { return r.Attempted - r.Failed }

// checker verifies answers against the in-process references. It is
// read-only after newChecker, so clients share it without locking.
type checker struct {
	mats []*corpusMatrix
	refs map[[2]int]reference // (matrix, iterations) -> y = A^k * 1
}

// newChecker computes the reference result of every /spmv op up front, so
// no reference work runs while the load is measured.
func newChecker(mats []*corpusMatrix, ops []op) *checker {
	c := &checker{mats: mats, refs: map[[2]int]reference{}}
	for _, o := range ops {
		key := [2]int{o.Mat, o.Iters}
		if _, ok := c.refs[key]; o.Path == "/spmv" && !ok {
			c.refs[key] = referenceSpMV(mats[o.Mat].M, o.Iters)
		}
	}
	return c
}

// check verifies a 200 answer: it is not degraded, it names the method the
// in-process model selects and the fingerprint of the uploaded body, and a
// /spmv result matches the chained reference SpMV. A degraded answer is a
// failure: no workload fills the session budget with pins or trips the
// predictor, and the fallback skips the very layers being measured, so a
// degraded request would read as a faster correct one.
func (c *checker) check(o op, raw []byte) (degraded bool, err error) {
	var r reply
	if err := json.Unmarshal(raw, &r); err != nil {
		return false, fmt.Errorf("decoding answer: %w", err)
	}
	m := c.mats[o.Mat]
	if r.Degraded {
		return true, fmt.Errorf("%s %s: degraded answer (%s)", o.Path, m.Name, r.Reason)
	}
	if r.Method != m.Method.String() {
		return false, fmt.Errorf("%s %s: method %s, in-process selection %s", o.Path, m.Name, r.Method, m.Method)
	}
	if o.FP != "" && r.Fingerprint != o.FP {
		return false, fmt.Errorf("%s %s: fingerprint %.12s, want %.12s", o.Path, m.Name, r.Fingerprint, o.FP)
	}
	if o.Path == "/spmv" {
		if err := checkSpMV(c.refs[[2]int{o.Mat, o.Iters}], r.YNorm, r.Y, m.M.Rows <= spmvEchoRows); err != nil {
			return false, fmt.Errorf("/spmv %s: %w", m.Name, err)
		}
	}
	return r.Degraded, nil
}

// spmvEchoRows is the largest result wise-serve echoes as "y" in /spmv
// answers.
const spmvEchoRows = 1024

// runLoad drives the sequence closed-loop from `clients` connections until
// the duration is over and every op of the sequence has been sent once.
func runLoad(client *http.Client, url string, ops []op, clients int, dur time.Duration, chk *checker) loadResult {
	type outcome struct {
		latency  float64
		failed   bool
		degraded bool
		err      string
	}
	var (
		next   atomic.Int64
		mu     sync.Mutex
		all    []outcome
		wg     sync.WaitGroup
		start  = time.Now()
		finish = start.Add(dur)
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []outcome
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) && !time.Now().Before(finish) {
					break
				}
				o := ops[i%len(ops)]
				body, n := o.reader()
				t0 := time.Now()
				status, raw, err := post(client, url+o.Path, body, n)
				out := outcome{latency: ms(time.Since(t0))}
				switch {
				case err != nil:
					out.failed, out.err = true, err.Error()
				case status != http.StatusOK:
					out.failed, out.err = true, fmt.Sprintf("%s: HTTP %d: %s", o.Path, status, bytes.TrimSpace(raw))
				default:
					degraded, err := chk.check(o, raw)
					out.degraded = degraded
					if err != nil {
						out.failed, out.err = true, err.Error()
					}
				}
				local = append(local, out)
			}
			mu.Lock()
			all = append(all, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	res := loadResult{Attempted: len(all), Wall: time.Since(start)}
	for _, out := range all {
		if out.degraded {
			res.Degraded++
		}
		if !out.failed {
			res.Latencies = append(res.Latencies, out.latency)
			continue
		}
		// A failed request misses any latency limit: it counts as the
		// whole phase, so it lands in the tail.
		res.Latencies = append(res.Latencies, ms(res.Wall))
		res.Failed++
		if len(res.Errors) < 5 {
			res.Errors = append(res.Errors, out.err)
		}
	}
	return res
}

// post sends one request of n body bytes and reads the whole answer.
func post(client *http.Client, url string, body io.Reader, n int64) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, body)
	if err != nil {
		return 0, nil, err
	}
	req.ContentLength = n
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}
