package matrix

import (
	"math/rand"
	"testing"
)

// randomCSR builds a random rows x cols matrix with roughly density*rows*cols
// nonzeros, deterministic in seed.
func randomCSR(t testing.TB, rng *rand.Rand, rows, cols int, density float64) *CSR {
	t.Helper()
	c := NewCOO(rows, cols)
	n := int(density * float64(rows) * float64(cols))
	for k := 0; k < n; k++ {
		c.Add(int32(rng.Intn(rows)), int32(rng.Intn(cols)), rng.NormFloat64())
	}
	m := c.ToCSR()
	if err := m.Validate(); err != nil {
		t.Fatalf("randomCSR invalid: %v", err)
	}
	return m
}

func TestCOOAddPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range Add")
		}
	}()
	NewCOO(2, 2).Add(2, 0, 1)
}

func TestCOODedupSums(t *testing.T) {
	c := NewCOO(3, 3)
	c.Add(1, 1, 2)
	c.Add(0, 0, 1)
	c.Add(1, 1, 3)
	c.Dedup()
	if len(c.Entries) != 2 {
		t.Fatalf("dedup left %d entries, want 2", len(c.Entries))
	}
	if c.Entries[1].Val != 5 {
		t.Errorf("duplicate not summed: %v", c.Entries[1])
	}
	if c.Entries[0].Row != 0 || c.Entries[0].Col != 0 {
		t.Errorf("entries not sorted: %v", c.Entries[0])
	}
}

func TestToCSRRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randomCSR(t, rng, 50, 40, 0.1)
	back := m.ToCOO().ToCSR()
	if !m.Equal(back) {
		t.Error("COO->CSR->COO->CSR round trip changed matrix")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	m := Fig1Example()
	if err := m.Validate(); err != nil {
		t.Fatalf("example invalid: %v", err)
	}
	bad := m.Clone()
	bad.ColIdx[0] = 100
	if bad.Validate() == nil {
		t.Error("out-of-range column not caught")
	}
	bad = m.Clone()
	bad.RowPtr[1] = bad.RowPtr[2] + 1
	if bad.Validate() == nil {
		t.Error("non-monotone RowPtr not caught")
	}
	bad = m.Clone()
	bad.ColIdx[1], bad.ColIdx[2] = bad.ColIdx[2], bad.ColIdx[1]
	if bad.Validate() == nil {
		t.Error("unsorted columns not caught")
	}
	bad = m.Clone()
	bad.Vals = bad.Vals[:len(bad.Vals)-1]
	if bad.Validate() == nil {
		t.Error("length mismatch not caught")
	}
}

func TestRowColCounts(t *testing.T) {
	m := Fig1Example()
	rc := m.RowCounts()
	wantRows := []int64{2, 3, 2, 2, 1, 2, 3, 2}
	for i, w := range wantRows {
		if rc[i] != w {
			t.Errorf("row %d count = %d, want %d", i, rc[i], w)
		}
	}
	cc := m.ColCounts()
	wantCols := []int64{4, 1, 3, 5, 1, 1, 1, 1}
	for j, w := range wantCols {
		if cc[j] != w {
			t.Errorf("col %d count = %d, want %d", j, cc[j], w)
		}
	}
	var total int64
	for _, c := range cc {
		total += c
	}
	if total != int64(m.NNZ()) {
		t.Errorf("col counts sum %d != nnz %d", total, m.NNZ())
	}
}

func TestDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randomCSR(t, rng, 17, 23, 0.2)
	back := FromDense(m.Rows, m.Cols, m.ToDense())
	if !m.Equal(back) {
		t.Error("dense round trip changed matrix")
	}
}

func TestTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomCSR(t, rng, 30, 20, 0.15)
	tr := m.Transpose()
	if err := tr.Validate(); err != nil {
		t.Fatalf("transpose invalid: %v", err)
	}
	if tr.Rows != m.Cols || tr.Cols != m.Rows {
		t.Fatalf("transpose shape %dx%d", tr.Rows, tr.Cols)
	}
	if !m.Transpose().Transpose().Equal(m) {
		t.Error("double transpose changed matrix")
	}
	// (A^T)ij == Aji on the dense expansion.
	d, dt := m.ToDense(), tr.ToDense()
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if d[i*m.Cols+j] != dt[j*tr.Cols+i] {
				t.Fatalf("transpose value mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestSpMVAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := randomCSR(t, rng, 25, 35, 0.2)
	x := Iota(m.Cols)
	y := make([]float64, m.Rows)
	m.SpMV(y, x)
	d := m.ToDense()
	for i := 0; i < m.Rows; i++ {
		var want float64
		for j := 0; j < m.Cols; j++ {
			want += d[i*m.Cols+j] * x[j]
		}
		if diff := y[i] - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("SpMV row %d = %v, want %v", i, y[i], want)
		}
	}
}

func TestSpMVPanicsOnBadDims(t *testing.T) {
	m := Fig1Example()
	defer func() {
		if recover() == nil {
			t.Fatal("expected dimension panic")
		}
	}()
	m.SpMV(make([]float64, 3), make([]float64, m.Cols))
}

func TestVectorHelpers(t *testing.T) {
	if v := Ones(3); v[0] != 1 || v[2] != 1 {
		t.Error("Ones wrong")
	}
	if v := Iota(3); v[2] != 2 {
		t.Error("Iota wrong")
	}
	if d := MaxAbsDiff([]float64{1, 5}, []float64{2, 3}); d != 2 {
		t.Errorf("MaxAbsDiff = %v", d)
	}
	if n := Norm2([]float64{3, 4}); n != 5 {
		t.Errorf("Norm2 = %v", n)
	}
}

func TestMaxAbsDiffPanicsOnLenMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MaxAbsDiff([]float64{1}, []float64{1, 2})
}

func TestFig1ExampleShape(t *testing.T) {
	m := Fig1Example()
	if m.Rows != 8 || m.Cols != 8 || m.NNZ() != 17 {
		t.Fatalf("example shape %v nnz %d", m, m.NNZ())
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Values are 1..17 in row-major order of appearance.
	for k, v := range m.Vals {
		if v != float64(k+1) {
			t.Fatalf("val[%d] = %v, want %d", k, v, k+1)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	m := Fig1Example()
	c := m.Clone()
	c.Vals[0] = -999
	if m.Vals[0] == -999 {
		t.Error("Clone shares storage")
	}
}

func TestStringer(t *testing.T) {
	if s := Fig1Example().String(); s != "CSR{8x8, nnz=17}" {
		t.Errorf("String() = %q", s)
	}
}

func TestAddToDiagonal(t *testing.T) {
	m := FromDense(3, 3, []float64{
		1, 0, 0,
		0, 0, 2,
		0, 0, 0, // no diagonal entry in rows 1, 2
	})
	shifted := m.AddToDiagonal(5)
	d := shifted.ToDense()
	if d[0] != 6 || d[4] != 5 || d[8] != 5 {
		t.Errorf("diagonal wrong: %v", d)
	}
	if d[5] != 2 {
		t.Error("off-diagonal lost")
	}
	if err := shifted.Validate(); err != nil {
		t.Fatal(err)
	}
	// Rectangular: only the main diagonal up to min(rows, cols).
	r := FromDense(2, 3, make([]float64, 6)).AddToDiagonal(1)
	if r.NNZ() != 2 {
		t.Errorf("rect diagonal nnz = %d", r.NNZ())
	}
}

func TestScale(t *testing.T) {
	m := Fig1Example()
	s := m.Scale(2)
	for k := range s.Vals {
		if s.Vals[k] != 2*m.Vals[k] {
			t.Fatal("scale wrong")
		}
	}
	if m.Vals[0] != 1 {
		t.Error("Scale mutated original")
	}
}

// TestToCSRCountingSort checks the counting-sort conversion against the
// sort.Slice reference on shuffled entries with duplicates and a 1k-nnz hub
// row, and pins that duplicates are summed in input order.
func TestToCSRCountingSort(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	const rows, cols = 300, 1500
	c := NewCOO(rows, cols)
	for j := 0; j < 1000; j++ {
		c.Add(17, int32(j), rng.NormFloat64())
	}
	for k := 0; k < 3000; k++ {
		c.Add(int32(rng.Intn(rows)), int32(rng.Intn(cols)), rng.NormFloat64()*1e6)
	}
	for k := 0; k < 50; k++ {
		i, j := int32(rng.Intn(rows)), int32(rng.Intn(cols))
		for d := 0; d < 3+rng.Intn(4); d++ {
			c.Add(i, j, rng.NormFloat64()*1e12)
		}
	}
	// (1e16 + 1) - 1e16 is 0 in float64; any other order sums to 1.
	c.Add(5, 5, 1e16)
	c.Add(5, 5, 1)
	c.Add(5, 5, -1e16)
	rng.Shuffle(len(c.Entries)-3, func(a, b int) { c.Entries[a], c.Entries[b] = c.Entries[b], c.Entries[a] })

	want := referenceToCSR(&COO{Rows: rows, Cols: cols, Entries: append([]Entry(nil), c.Entries...)})
	got := c.ToCSR()
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if !sameCSR(got, want) {
		t.Fatal("counting-sort ToCSR differs from the sort.Slice reference")
	}
	if v := got.ToDense()[5*cols+5]; v != 0 {
		t.Fatalf("(5,5) = %v, want 0: duplicates not summed in input order", v)
	}
	if got.RowNNZ(17) < 1000 {
		t.Fatalf("hub row holds %d nonzeros, want >= 1000", got.RowNNZ(17))
	}
}
