package kernels

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"wise/internal/gen"
	"wise/internal/machine"
	"wise/internal/matrix"
)

// testMatrices returns a diverse set of small matrices exercising every
// structural corner: the worked example, empty rows, dense rows, skew,
// locality, single row/column, and empty matrices.
func testMatrices(t testing.TB) map[string]*matrix.CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	ms := map[string]*matrix.CSR{
		"fig1":      matrix.Fig1Example(),
		"tridiag":   gen.Banded(rng, 64, []int{-1, 0, 1}),
		"stencil":   gen.Stencil2D(8, 8, true),
		"rmat-hs":   gen.RMAT(rng, 8, 8, gen.HighSkew),
		"rmat-ll":   gen.RMAT(rng, 8, 8, gen.LowLoc),
		"rgg":       gen.RGG(rng, 256, 6),
		"powerlaw":  gen.PowerLawRows(rng, 128, 2.0, 64),
		"singlerow": matrix.FromDense(1, 5, []float64{1, 0, 2, 0, 3}),
		"singlecol": matrix.FromDense(5, 1, []float64{1, 0, 2, 0, 3}),
		"arrow":     arrowMatrix(32),
	}
	// A matrix with empty rows interleaved.
	coo := matrix.NewCOO(10, 10)
	coo.Add(0, 0, 1)
	coo.Add(4, 9, 2)
	coo.Add(9, 4, 3)
	ms["sparse-rows"] = coo.ToCSR()
	// Completely empty matrix.
	ms["empty"] = matrix.NewCOO(6, 6).ToCSR()
	return ms
}

// arrowMatrix has one dense row and one dense column — maximal skew in both
// distributions.
func arrowMatrix(n int) *matrix.CSR {
	coo := matrix.NewCOO(n, n)
	for j := 0; j < n; j++ {
		coo.Add(0, int32(j), float64(j+1))
		coo.Add(int32(j), 0, float64(j+2))
	}
	for i := 0; i < n; i++ {
		coo.Add(int32(i), int32(i), 1)
	}
	return coo.ToCSR()
}

func methodsUnderTest() []Method {
	return ModelSpace(machine.Scaled())
}

// TestAllMethodsMatchReference is the central invariant: every method and
// parameter combination computes exactly the same product as the reference
// CSR loop, sequentially and in parallel, on every structural corner case.
func TestAllMethodsMatchReference(t *testing.T) {
	for name, m := range testMatrices(t) {
		want := make([]float64, m.Rows)
		x := matrix.Iota(m.Cols)
		for i := range x {
			x[i] = x[i]*0.25 + 1
		}
		m.SpMV(want, x)
		for _, method := range methodsUnderTest() {
			f := Build(m, method, 8)
			got := make([]float64, m.Rows)
			f.SpMV(got, x)
			if d := matrix.MaxAbsDiff(want, got); d > 1e-9 {
				t.Errorf("%s/%s sequential: max diff %g", name, method, d)
			}
			for i := range got {
				got[i] = -1 // poison
			}
			f.SpMVParallel(got, x, 4)
			if d := matrix.MaxAbsDiff(want, got); d > 1e-9 {
				t.Errorf("%s/%s parallel: max diff %g", name, method, d)
			}
		}
	}
}

func TestModelSpaceSize(t *testing.T) {
	space := ModelSpace(machine.Skylake24())
	if len(space) != 29 {
		t.Fatalf("model space = %d methods, want the paper's 29", len(space))
	}
	counts := map[Kind]int{}
	for _, m := range space {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m, err)
		}
		counts[m.Kind]++
	}
	want := map[Kind]int{CSR: 3, SELLPACK: 4, SellCSigma: 12, SellCR: 2, LAV1Seg: 2, LAV: 6}
	for k, n := range want {
		if counts[k] != n {
			t.Errorf("%s: %d models, want %d", k, counts[k], n)
		}
	}
}

func TestModelSpaceUniqueStrings(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range ModelSpace(machine.Skylake24()) {
		s := m.String()
		if seen[s] {
			t.Errorf("duplicate method string %q", s)
		}
		seen[s] = true
	}
}

func TestMethodValidate(t *testing.T) {
	bad := []Method{
		{Kind: CSR, C: 4},
		{Kind: SELLPACK, C: 0, Sched: Dyn},
		{Kind: SELLPACK, C: 4, Sched: St},
		{Kind: SellCSigma, C: 8, Sigma: 4, Sched: Dyn},
		{Kind: SellCSigma, C: 8, Sigma: 64, Sched: St},
		{Kind: SellCR, C: 8, Sched: StCont},
		{Kind: LAV1Seg, C: 0, Sched: Dyn},
		{Kind: LAV, C: 8, T: 0, Sched: Dyn},
		{Kind: LAV, C: 8, T: 1.5, Sched: Dyn},
		{Kind: LAV, C: 8, T: 0.8, Sched: St},
		{Kind: Kind(99)},
	}
	for _, m := range bad {
		if m.Validate() == nil {
			t.Errorf("%+v: expected validation error", m)
		}
	}
}

func TestPreprocessRankOrdering(t *testing.T) {
	// The paper's tie-break order: CSR < SELLPACK < Sell-c-sigma < Sell-c-R
	// < LAV-1Seg < LAV, and smaller parameters first within a family.
	ordered := []Method{
		{Kind: CSR, Sched: Dyn},
		{Kind: SELLPACK, C: 4, Sched: Dyn},
		{Kind: SELLPACK, C: 8, Sched: Dyn},
		{Kind: SellCSigma, C: 4, Sigma: 64, Sched: Dyn},
		{Kind: SellCSigma, C: 4, Sigma: 512, Sched: Dyn},
		{Kind: SellCR, C: 4, Sched: Dyn},
		{Kind: LAV1Seg, C: 4, Sched: Dyn},
		{Kind: LAV, C: 4, T: 0.7, Sched: Dyn},
		{Kind: LAV, C: 4, T: 0.8, Sched: Dyn},
		{Kind: LAV, C: 4, T: 0.9, Sched: Dyn},
	}
	for i := 1; i < len(ordered); i++ {
		if ordered[i-1].PreprocessRank() >= ordered[i].PreprocessRank() {
			t.Errorf("rank(%s) >= rank(%s)", ordered[i-1], ordered[i])
		}
	}
}

func TestSELLPACKPaddingOnSkew(t *testing.T) {
	// Alternating long (32-wide) and short (1-wide) rows: SELLPACK chunks mix
	// both and pad the short lanes to width 32; Sell-c-R groups equal-length
	// rows together and removes nearly all padding.
	coo := matrix.NewCOO(64, 64)
	for i := 0; i < 64; i++ {
		if i%2 == 0 {
			for j := 0; j < 32; j++ {
				coo.Add(int32(i), int32(j), 1)
			}
		} else {
			coo.Add(int32(i), int32(i), 1)
		}
	}
	m := coo.ToCSR()
	sellpack := BuildSRVPack(m, Method{Kind: SELLPACK, C: 8, Sched: Dyn})
	sellcr := BuildSRVPack(m, Method{Kind: SellCR, C: 8, Sched: Dyn})
	sp, sr := sellpack.Stats(), sellcr.Stats()
	if sp.NNZ != int64(m.NNZ()) || sr.NNZ != int64(m.NNZ()) {
		t.Fatalf("stats nnz wrong: %d/%d vs %d", sp.NNZ, sr.NNZ, m.NNZ())
	}
	if sp.Padding <= 2*sr.Padding {
		t.Errorf("SELLPACK padding %d not clearly above Sell-c-R padding %d", sp.Padding, sr.Padding)
	}
}

func TestSellCSigmaPaddingMonotone(t *testing.T) {
	// Larger sigma windows can only reduce (or keep) padding.
	rng := rand.New(rand.NewSource(9))
	m := gen.PowerLawRows(rng, 512, 2.0, 128)
	var prev int64 = -1
	for _, sigma := range []int{8, 32, 128, 512} {
		p := BuildSRVPack(m, Method{Kind: SellCSigma, C: 8, Sigma: sigma, Sched: Dyn})
		pad := p.Stats().Padding
		if prev >= 0 && pad > prev {
			t.Errorf("sigma=%d padding %d > smaller-sigma padding %d", sigma, pad, prev)
		}
		prev = pad
	}
}

func TestSellCRMatchesSigmaEqualsRows(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m := gen.RMAT(rng, 7, 6, gen.MedSkew)
	r := BuildSRVPack(m, Method{Kind: SellCR, C: 4, Sched: Dyn})
	s := BuildSRVPack(m, Method{Kind: SellCSigma, C: 4, Sigma: m.Rows, Sched: Dyn})
	rs, ss := r.Stats(), s.Stats()
	if rs.Padding != ss.Padding || rs.StoredSlots != ss.StoredSlots {
		t.Errorf("Sell-c-R stats %+v != Sell-c-sigma(R) stats %+v", rs, ss)
	}
}

func TestLAVSegmentSplit(t *testing.T) {
	counts := []int64{50, 30, 10, 5, 3, 2} // ranked descending, total 100
	cases := []struct {
		t    float64
		want int
	}{
		{0.5, 1},  // 50 >= 50
		{0.7, 2},  // 80 >= 70
		{0.8, 2},  // 80 >= 80
		{0.9, 3},  // 90 >= 90
		{0.95, 4}, // 95 >= 95
	}
	for _, c := range cases {
		if got := segmentSplit(counts, c.t); got != c.want {
			t.Errorf("segmentSplit(T=%v) = %d, want %d", c.t, got, c.want)
		}
	}
	if got := segmentSplit([]int64{0, 0}, 0.7); got != 2 {
		t.Errorf("zero-mass split = %d, want len", got)
	}
}

func TestLAVHasTwoSegmentsOnSkewedColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := gen.RMAT(rng, 9, 8, gen.HighSkew)
	p := BuildSRVPack(m, Method{Kind: LAV, C: 8, T: 0.7, Sched: Dyn})
	if len(p.Segments) != 2 {
		t.Fatalf("LAV segments = %d, want 2", len(p.Segments))
	}
	dense, sparse := p.Segments[0], p.Segments[1]
	if dense.ColHi != sparse.ColLo {
		t.Error("segments not contiguous in rank space")
	}
	// The dense segment must hold at least T of the nonzeros in fewer
	// columns than the sparse one.
	denseCols := int(dense.ColHi - dense.ColLo)
	sparseCols := int(sparse.ColHi - sparse.ColLo)
	if denseCols >= sparseCols {
		t.Errorf("dense segment has %d cols vs sparse %d; power-law should compress", denseCols, sparseCols)
	}
}

func TestLAV1SegSingleSegment(t *testing.T) {
	m := matrix.Fig1Example()
	p := BuildSRVPack(m, Method{Kind: LAV1Seg, C: 2, Sched: Dyn})
	if len(p.Segments) != 1 {
		t.Fatalf("LAV-1Seg segments = %d", len(p.Segments))
	}
	if p.ColPerm == nil {
		t.Fatal("LAV-1Seg must apply CFS")
	}
}

func TestCFSOrdersHotColumnsFirst(t *testing.T) {
	m := matrix.Fig1Example()
	perm := CFS(m)
	counts := m.ColCounts()
	// Figure 1 analog: the two hottest columns are c3 (5 nonzeros) and c0 (4).
	if perm[0] != 3 || perm[1] != 0 {
		t.Errorf("CFS order = %v (counts %v), want c3, c0 first", perm[:4], counts)
	}
}

func TestRFSOrdersHeavyRowsFirst(t *testing.T) {
	m := matrix.Fig1Example()
	perm := RFS(m)
	counts := m.RowCounts()
	if counts[perm[0]] != 3 {
		t.Errorf("RFS first row has %d nonzeros, want 3", counts[perm[0]])
	}
	for i := 1; i < len(perm); i++ {
		if counts[perm[i-1]] < counts[perm[i]] {
			t.Fatal("RFS not descending")
		}
	}
}

func TestWindowSortRows(t *testing.T) {
	counts := []int64{1, 5, 3, 9, 2, 8}
	base := matrix.Identity(6)
	// sigma=3: windows {0,1,2} and {3,4,5} sorted desc independently.
	got := WindowSortRows(base, counts, 3)
	want := matrix.Permutation{1, 2, 0, 3, 5, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("window sort = %v, want %v", got, want)
		}
	}
	// sigma=1: unchanged.
	if got := WindowSortRows(base, counts, 1); got[0] != 0 || got[5] != 5 {
		t.Error("sigma=1 should not reorder")
	}
	// sigma >= n: full sort.
	full := WindowSortRows(base, counts, 100)
	if counts[full[0]] != 9 || counts[full[5]] != 1 {
		t.Errorf("full sort wrong: %v", full)
	}
	// base must not be mutated.
	if base[0] != 0 || base[5] != 5 {
		t.Error("WindowSortRows mutated its input")
	}
}

func TestSRVPackGoldenFig1SELLPACK(t *testing.T) {
	// SELLPACK with c=2 on the worked example: chunk widths are the max row
	// length of each consecutive row pair: rows have lengths
	// {2,3,2,2,1,2,3,2} so chunks have widths {3,2,2,3}.
	m := matrix.Fig1Example()
	p := BuildSRVPack(m, Method{Kind: SELLPACK, C: 2, Sched: Dyn})
	seg := p.Segments[0]
	wantOff := []int64{0, 3, 5, 7, 10}
	if len(seg.ChunkOff) != len(wantOff) {
		t.Fatalf("chunk offsets %v", seg.ChunkOff)
	}
	for i := range wantOff {
		if seg.ChunkOff[i] != wantOff[i] {
			t.Fatalf("ChunkOff = %v, want %v", seg.ChunkOff, wantOff)
		}
	}
	st := p.Stats()
	if st.StoredSlots != 20 || st.Padding != 3 {
		t.Errorf("stats = %+v, want 20 slots, 3 padding", st)
	}
	// Row order is identity for SELLPACK.
	for i, r := range seg.RowOrder {
		if int(r) != i {
			t.Fatalf("RowOrder = %v, want identity", seg.RowOrder)
		}
	}
	// First chunk, lane 0 = row 0: values 1, 2 then padding 0.
	c := p.C
	if seg.Vals[0*c+0] != 1 || seg.Vals[1*c+0] != 2 || seg.Vals[2*c+0] != 0 {
		t.Errorf("row 0 packing wrong: %v", seg.Vals)
	}
	// Lane 1 = row 1: values 3, 4, 5.
	if seg.Vals[0*c+1] != 3 || seg.Vals[1*c+1] != 4 || seg.Vals[2*c+1] != 5 {
		t.Errorf("row 1 packing wrong")
	}
}

func TestSRVPackGoldenFig1SellCSigma(t *testing.T) {
	// Sell-c-sigma with c=2, sigma=4 on the example: windows {r0..r3} and
	// {r4..r7} sorted by length desc: first window lengths {2,3,2,2} ->
	// order r1,r0,r2,r3; second window lengths {1,2,3,2} -> r6,r5,r7,r4.
	m := matrix.Fig1Example()
	p := BuildSRVPack(m, Method{Kind: SellCSigma, C: 2, Sigma: 4, Sched: Dyn})
	seg := p.Segments[0]
	want := []int32{1, 0, 2, 3, 6, 5, 7, 4}
	for i := range want {
		if seg.RowOrder[i] != want[i] {
			t.Fatalf("RowOrder = %v, want %v", seg.RowOrder, want)
		}
	}
	// Padding shrinks from 3 (SELLPACK) to 2: chunks widths {3,2,3,2} = 10
	// stored per lane pair -> 20 slots; real nnz 17; padding 3? The sorted
	// pairing gives widths {3,2,3,2}: (r1:3,r0:2)->3, (r2:2,r3:2)->2,
	// (r6:3,r5:2)->3, (r7:2,r4:1)->2, total slots 20, padding 3.
	st := p.Stats()
	if st.StoredSlots != 20 || st.Padding != 3 {
		t.Errorf("stats = %+v", st)
	}
}

func TestStatsConsistency(t *testing.T) {
	for name, m := range testMatrices(t) {
		for _, method := range methodsUnderTest() {
			if method.Kind == CSR {
				continue
			}
			p := BuildSRVPack(m, method)
			st := p.Stats()
			if st.NNZ != int64(m.NNZ()) {
				t.Errorf("%s/%s: stats NNZ %d != %d", name, method, st.NNZ, m.NNZ())
			}
			if st.Padding < 0 {
				t.Errorf("%s/%s: negative padding %d", name, method, st.Padding)
			}
			if st.StoredSlots != st.NNZ+st.Padding {
				t.Errorf("%s/%s: slots %d != nnz+padding", name, method, st.StoredSlots)
			}
		}
	}
}

func TestSchedulingPoliciesSameResult(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := gen.RMAT(rng, 9, 8, gen.HighSkew)
	x := matrix.Iota(m.Cols)
	want := make([]float64, m.Rows)
	m.SpMV(want, x)
	for _, sched := range []Sched{Dyn, St, StCont} {
		for _, workers := range []int{1, 2, 3, 8, 100} {
			f := BuildCSRFormat(m, sched, 16)
			got := make([]float64, m.Rows)
			f.SpMVParallel(got, x, workers)
			if d := matrix.MaxAbsDiff(want, got); d > 1e-9 {
				t.Errorf("CSR[%s] workers=%d: diff %g", sched, workers, d)
			}
		}
	}
}

func TestBuildPanicsOnCSRPack(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BuildSRVPack(matrix.Fig1Example(), Method{Kind: CSR, Sched: Dyn})
}

func TestSpMVDimensionPanics(t *testing.T) {
	m := matrix.Fig1Example()
	pack := BuildSRVPack(m, Method{Kind: SELLPACK, C: 4, Sched: Dyn})
	csr := BuildCSRFormat(m, Dyn, 4)
	for name, fn := range map[string]func(){
		"pack-y": func() { pack.SpMV(make([]float64, 3), matrix.Ones(8)) },
		"pack-x": func() { pack.SpMV(make([]float64, 8), matrix.Ones(3)) },
		"csr-y":  func() { csr.SpMV(make([]float64, 3), matrix.Ones(8)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestEstimateBuildOpsOrdering(t *testing.T) {
	rows, cols, nnz := 10000, 10000, int64(100000)
	var prev float64 = -1
	for _, method := range []Method{
		{Kind: CSR, Sched: Dyn},
		{Kind: SELLPACK, C: 8, Sched: Dyn},
		{Kind: SellCSigma, C: 8, Sigma: 512, Sched: Dyn},
		{Kind: SellCR, C: 8, Sched: Dyn},
		{Kind: LAV1Seg, C: 8, Sched: Dyn},
		{Kind: LAV, C: 8, T: 0.7, Sched: Dyn},
	} {
		ops := EstimateBuildOps(rows, cols, nnz, method)
		total := float64(ops.ElementsMoved) + ops.Comparisons + float64(ops.ScanOps)
		if total < prev {
			t.Errorf("%s: build ops %v below cheaper method %v", method, total, prev)
		}
		prev = total
	}
}

func TestFeatureExtractionOpsScaleWithNNZ(t *testing.T) {
	small := FeatureExtractionOps(100, 100, 1000, 16)
	large := FeatureExtractionOps(100, 100, 100000, 16)
	if large.ElementsMoved <= small.ElementsMoved {
		t.Error("feature ops should scale with nnz")
	}
}

func TestSchedStrings(t *testing.T) {
	if Dyn.String() != "Dyn" || St.String() != "St" || StCont.String() != "StCont" {
		t.Error("sched strings wrong")
	}
	if Sched(9).String() == "" || Kind(9).String() == "" {
		t.Error("unknown enum strings empty")
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Error("DefaultWorkers < 1")
	}
}

func TestParallelUnitsCoverage(t *testing.T) {
	for _, sched := range []Sched{Dyn, St, StCont} {
		for _, n := range []int{0, 1, 7, 64} {
			for _, workers := range []int{1, 3, 16} {
				hits := make([]int32, n)
				var mu chan struct{} // no lock needed: distinct units
				_ = mu
				parallelUnits(workers, n, sched, func(u int) { hits[u]++ })
				for u, h := range hits {
					if h != 1 {
						t.Fatalf("sched=%s n=%d workers=%d: unit %d hit %d times", sched, n, workers, u, h)
					}
				}
			}
		}
	}
}

func TestSRVPackGoldenFig1LAV(t *testing.T) {
	// LAV with c=2, T=0.7 on the worked example. Column counts are
	// {c0:4, c1:1, c2:3, c3:5, c4:1, c5:1, c6:1, c7:1}, so CFS ranks columns
	// c3, c0, c2 first. The dense segment needs >= 0.7*17 = 11.9 nonzeros:
	// 5+4+3 = 12 >= 11.9, so it spans ranks [0,3) and the sparse segment
	// holds the remaining 5 columns.
	m := matrix.Fig1Example()
	p := BuildSRVPack(m, Method{Kind: LAV, C: 2, T: 0.7, Sched: Dyn})
	if len(p.Segments) != 2 {
		t.Fatalf("segments = %d", len(p.Segments))
	}
	if p.ColPerm[0] != 3 || p.ColPerm[1] != 0 || p.ColPerm[2] != 2 {
		t.Fatalf("CFS order = %v, want c3, c0, c2 first", p.ColPerm[:3])
	}
	dense, sparse := &p.Segments[0], &p.Segments[1]
	if dense.ColLo != 0 || dense.ColHi != 3 || sparse.ColLo != 3 || sparse.ColHi != 8 {
		t.Fatalf("segment ranges dense[%d,%d) sparse[%d,%d)",
			dense.ColLo, dense.ColHi, sparse.ColLo, sparse.ColHi)
	}
	// Dense segment row order: per-segment nonzero counts over (c3,c0,c2):
	// r1 has 3 (c0,c2,c3), r0/r2/r3/r6 have 2, r5 has 2, r4/r7 have 0.
	counts := map[int32]int{}
	st := p.Stats()
	if st.NNZ != 17 {
		t.Fatalf("stats nnz = %d", st.NNZ)
	}
	if dense.RowOrder[0] != 1 {
		t.Errorf("dense RFS should put r1 (3 in-segment nonzeros) first, got %v", dense.RowOrder)
	}
	// Count real slots per segment: dense must hold exactly 12.
	denseReal := 0
	for k := 0; k < dense.Chunks(); k++ {
		lo, hi := dense.ChunkOff[k], dense.ChunkOff[k+1]
		base := k * p.C
		lanes := len(dense.RowOrder) - base
		if lanes > p.C {
			lanes = p.C
		}
		for l := 0; l < lanes; l++ {
			for pos := lo; pos < hi; pos++ {
				if dense.Vals[pos*int64(p.C)+int64(l)] != 0 {
					denseReal++
				}
			}
		}
	}
	if denseReal != 12 {
		t.Errorf("dense segment holds %d nonzeros, want 12", denseReal)
	}
	_ = counts
}

// TestSpMVChainMatchesRepeatedSpMV checks y = A^k x against k reference
// products for every method (the ping-pong buffers must hand each product
// to the next multiply), that x is never written, and that a cancelled
// context stops the chain.
func TestSpMVChainMatchesRepeatedSpMV(t *testing.T) {
	m := gen.Banded(rand.New(rand.NewSource(3)), 96, []int{-2, 0, 3})
	x := make([]float64, m.Cols)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	orig := append([]float64(nil), x...)
	const iters = 3
	want := append([]float64(nil), x...)
	for i := 0; i < iters; i++ {
		next := make([]float64, m.Rows)
		m.SpMV(next, want)
		want = next
	}
	for _, meth := range methodsUnderTest() {
		f := Build(m, meth, 0)
		got, err := SpMVChain(context.Background(), m.Rows, x, iters, func(y, x []float64) { f.SpMVParallel(y, x, 2) })
		if err != nil {
			t.Fatalf("%s: %v", meth, err)
		}
		if d := matrix.MaxAbsDiff(got, want); d > 1e-9 {
			t.Errorf("%s: A^%d x off by %g", meth, iters, d)
		}
		if d := matrix.MaxAbsDiff(x, orig); d != 0 {
			t.Fatalf("%s: SpMVChain wrote x", meth)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SpMVChain(ctx, m.Rows, x, iters, func(y, x []float64) { m.SpMV(y, x) }); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled chain: err = %v, want context.Canceled", err)
	}
}
