// Package bench is the preset benchmark harness behind `wise-bench -suite`
// (BENCHMARKS.md): deterministic wall-clock measurement of every hot path of
// the reproduction — SpMV kernels, format conversion, feature extraction,
// end-to-end prediction, and a wise-serve HTTP round-trip — with warmup,
// repetition, per-benchmark time budgets, and noise-aware summary statistics
// (min / median / p95, allocs per op) computed with internal/stats.
//
// One suite run produces a schema-versioned Report that `wise-bench -o`
// persists as a BENCH_<n>.json trajectory point; Compare diffs two reports
// with a noise threshold so `scripts/check.sh -bench-gate` and PR reviews can
// prove a hot path got faster — or catch one getting slower. The suite is
// deterministic in shape: the benchmark list, matrix seeds, and environment
// schema are functions of the preset alone, never of measured time.
package bench

import (
	"runtime"
	"time"

	"wise/internal/obs"
	"wise/internal/stats"
)

// Observability instruments (documented in OBSERVABILITY.md).
var (
	benchmarksRun = obs.NewCounter("bench.benchmarks_run")
	runsTotal     = obs.NewCounter("bench.runs_total")
)

// Options bounds one benchmark's measurement loop. Zero values are clamped to
// the minimum viable loop (no warmup, one run, 1ms budget), so a zero Options
// still measures something rather than spinning forever or not at all.
type Options struct {
	Warmup  int           // untimed runs before measurement starts
	MinRuns int           // timed runs taken even if MaxTime is exceeded
	MaxRuns int           // hard repetition cap
	MaxTime time.Duration // time budget for the timed loop (checked after MinRuns)
}

func (o Options) withDefaults() Options {
	if o.Warmup < 0 {
		o.Warmup = 0
	}
	if o.MinRuns < 1 {
		o.MinRuns = 1
	}
	if o.MaxRuns < o.MinRuns {
		o.MaxRuns = o.MinRuns
	}
	if o.MaxTime < time.Millisecond {
		o.MaxTime = time.Millisecond
	}
	return o
}

// Scale multiplies the time budget by f (the CLI's -time-scale flag: <1
// shrinks a preset for smoke runs, >1 stretches it for quieter statistics).
// Non-positive factors are ignored.
func (o Options) Scale(f float64) Options {
	if f <= 0 {
		return o
	}
	o.MaxTime = time.Duration(float64(o.MaxTime) * f)
	return o
}

// Result is one benchmark's summary: repetition count and noise-aware
// nanosecond statistics over the individual timed runs. Min is the
// least-noisy single run (the classic "best of N"), Median the robust
// central tendency the comparator gates on, and P95 the tail that admission
// budgets care about. AllocsPerOp and BytesPerOp are averaged over the timed
// loop from runtime.MemStats deltas.
type Result struct {
	Name        string  `json:"name"`
	Group       string  `json:"group"`
	Runs        int     `json:"runs"`
	NsMin       float64 `json:"ns_min"`
	NsMedian    float64 `json:"ns_median"`
	NsP95       float64 `json:"ns_p95"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// Measure runs fn under the options and summarizes the timed runs. The
// timing loop records one wall-clock sample per run (duration measurement
// only — no wall-clock value ever feeds a result shape or a seed, which
// TestRunSuiteShapeIsDeterministic pins).
func Measure(name, group string, opts Options, fn func()) Result {
	opts = opts.withDefaults()
	for i := 0; i < opts.Warmup; i++ {
		fn()
	}
	samples := make([]float64, 0, opts.MaxRuns)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	loopStart := time.Now()
	for len(samples) < opts.MaxRuns {
		t0 := time.Now()
		fn()
		samples = append(samples, float64(time.Since(t0)))
		if len(samples) >= opts.MinRuns && time.Since(loopStart) >= opts.MaxTime {
			break
		}
	}
	runtime.ReadMemStats(&after)
	n := float64(len(samples))
	benchmarksRun.Inc()
	runsTotal.Add(int64(len(samples)))
	return Result{
		Name:        name,
		Group:       group,
		Runs:        len(samples),
		NsMin:       stats.Percentile(samples, 0),
		NsMedian:    stats.Percentile(samples, 50),
		NsP95:       stats.Percentile(samples, 95),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / n,
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / n,
	}
}
