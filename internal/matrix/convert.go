package matrix

// Dedup sorts the COO entries by (row, col) and merges duplicates by summing
// their values in input order. Entries that sum to exactly zero are kept
// (explicit zeros are legal nonzero slots in sparse formats).
func (c *COO) Dedup() {
	if len(c.Entries) == 0 {
		return
	}
	c.sortEntries()
	out := c.Entries[:1]
	for _, e := range c.Entries[1:] {
		last := &out[len(out)-1]
		if e.Row == last.Row && e.Col == last.Col {
			last.Val += e.Val
		} else {
			out = append(out, e)
		}
	}
	c.Entries = out
}

// sortEntries orders the entries by (row, col) with two stable counting
// sorts, by column and then by row, in O(nnz + rows + cols). Stability keeps
// duplicate coordinates in input order.
func (c *COO) sortEntries() {
	tmp := make([]Entry, len(c.Entries))
	next := make([]int, max(c.Rows, c.Cols)+1)
	for _, e := range c.Entries {
		next[e.Col+1]++
	}
	prefixSum(next[:c.Cols+1])
	for _, e := range c.Entries {
		tmp[next[e.Col]] = e
		next[e.Col]++
	}
	clear(next)
	for _, e := range tmp {
		next[e.Row+1]++
	}
	prefixSum(next[:c.Rows+1])
	for _, e := range tmp {
		c.Entries[next[e.Row]] = e
		next[e.Row]++
	}
}

// prefixSum turns per-key counts shifted by one slot into bucket offsets.
func prefixSum(a []int) {
	for i := 1; i < len(a); i++ {
		a[i] += a[i-1]
	}
}

// ToCSR converts the COO matrix to CSR. Entries are deduplicated (duplicate
// coordinates summed) and column indices end up sorted within each row. The
// COO is left in deduplicated, sorted state.
func (c *COO) ToCSR() *CSR {
	c.Dedup()
	m := &CSR{
		Rows:   c.Rows,
		Cols:   c.Cols,
		RowPtr: make([]int64, c.Rows+1),
		ColIdx: make([]int32, len(c.Entries)),
		Vals:   make([]float64, len(c.Entries)),
	}
	for _, e := range c.Entries {
		m.RowPtr[e.Row+1]++
	}
	for i := 0; i < c.Rows; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	for k, e := range c.Entries {
		m.ColIdx[k] = e.Col
		m.Vals[k] = e.Val
	}
	return m
}

// ToCOO converts the CSR matrix back to coordinate form.
func (m *CSR) ToCOO() *COO {
	c := NewCOO(m.Rows, m.Cols)
	c.Entries = make([]Entry, 0, m.NNZ())
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		for k := range cols {
			c.Entries = append(c.Entries, Entry{Row: int32(i), Col: cols[k], Val: vals[k]})
		}
	}
	return c
}

// FromDense builds a CSR matrix from a dense row-major slice, storing every
// element with a nonzero value.
func FromDense(rows, cols int, dense []float64) *CSR {
	c := NewCOO(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if v := dense[i*cols+j]; v != 0 { //lint:ignore floateq sparsity is defined by bit-exact zero
				c.Add(int32(i), int32(j), v)
			}
		}
	}
	return c.ToCSR()
}

// ToDense expands the matrix into a dense row-major slice. Intended for
// small matrices in tests.
func (m *CSR) ToDense() []float64 {
	dense := make([]float64, m.Rows*m.Cols)
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		for k := range cols {
			dense[i*m.Cols+int(cols[k])] = vals[k]
		}
	}
	return dense
}

// Transpose returns the transpose of the matrix in CSR form.
func (m *CSR) Transpose() *CSR {
	t := &CSR{
		Rows:   m.Cols,
		Cols:   m.Rows,
		RowPtr: make([]int64, m.Cols+1),
		ColIdx: make([]int32, m.NNZ()),
		Vals:   make([]float64, m.NNZ()),
	}
	for _, c := range m.ColIdx {
		t.RowPtr[c+1]++
	}
	for i := 0; i < t.Rows; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	next := append([]int64(nil), t.RowPtr[:t.Rows]...)
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		for k := range cols {
			pos := next[cols[k]]
			next[cols[k]]++
			t.ColIdx[pos] = int32(i)
			t.Vals[pos] = vals[k]
		}
	}
	return t
}
