package main

import (
	"runtime"
	"time"

	"wise/internal/core"
	"wise/internal/kernels"
	"wise/internal/stats"
)

// kernelTimes are serial and parallel SpMV times per corpus matrix, for
// the method the model selects and for plain CSR.
type kernelTimes struct {
	served, csr, parallel []time.Duration
	parallelAllocs        []float64 // heap allocations per SpMVParallel call
	bytes                 []float64 // bytes one CSR SpMV computes on: the CSR arrays plus x and y
}

// speedup is the geometric mean over the matrices of CSR time over the
// served method's time, both serial, on this host's Go kernels.
func (k kernelTimes) speedup() float64 {
	ratios := make([]float64, len(k.served))
	for i := range ratios {
		ratios[i] = float64(k.csr[i]) / float64(k.served[i])
	}
	return stats.GeoMean(ratios)
}

// kernelRounds is how many interleaved timing rounds each matrix gets;
// each round runs a batch of at least kernelBatch of SpMV calls.
const (
	kernelRounds = 21
	kernelBatch  = 300 * time.Microsecond
)

// timeKernels measures the served method and CSR[Dyn] on each matrix with
// interleaved batches, so host noise hits both sides alike, and keeps the
// per-call median of the rounds. One more parallel batch, untimed, counts
// SpMVParallel's heap allocations.
func timeKernels(w *core.WISE, mats []*corpusMatrix) kernelTimes {
	var kt kernelTimes
	csr := kernels.Method{Kind: kernels.CSR, Sched: kernels.Dyn}
	workers := kernels.DefaultWorkers()
	for _, c := range mats {
		m := c.M
		served := kernels.Build(m, c.Method, w.Mach.RowBlock)
		plain := kernels.Build(m, csr, w.Mach.RowBlock)
		x := make([]float64, m.Cols)
		for i := range x {
			x[i] = 1 + float64(i%7)/8
		}
		y := make([]float64, m.Rows)
		calls := 1
		for t0 := time.Now(); ; calls *= 2 {
			t0 = time.Now()
			for i := 0; i < calls; i++ {
				plain.SpMV(y, x)
			}
			if time.Since(t0) >= kernelBatch {
				break
			}
		}
		batch := func(fn func()) float64 {
			t0 := time.Now()
			for i := 0; i < calls; i++ {
				fn()
			}
			return float64(time.Since(t0)) / float64(calls)
		}
		var s, p, par []float64
		for r := 0; r < kernelRounds; r++ {
			s = append(s, batch(func() { served.SpMV(y, x) }))
			p = append(p, batch(func() { plain.SpMV(y, x) }))
			par = append(par, batch(func() { served.SpMVParallel(y, x, workers) }))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			served.SpMVParallel(y, x, workers)
		}
		runtime.ReadMemStats(&after)
		kt.parallelAllocs = append(kt.parallelAllocs, float64(after.Mallocs-before.Mallocs)/float64(calls))
		kt.served = append(kt.served, time.Duration(median(s)))
		kt.csr = append(kt.csr, time.Duration(median(p)))
		kt.parallel = append(kt.parallel, time.Duration(median(par)))
		kt.bytes = append(kt.bytes, float64(12*m.NNZ()+8*(m.Rows+1)+8*m.Cols+8*m.Rows))
	}
	return kt
}
