package matrix

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// readReference is the MatrixMarket reader ReadMatrixMarketLimited replaced,
// kept verbatim as the oracle of FuzzReadMatrixMarketDiff: a bufio.Scanner
// with a 1 MiB buffer, strings.Fields per line, fmt.Sscan for the size line
// and strconv.Atoi for the indices. Its two documented divergences from the
// byte-level reader are non-ASCII Unicode whitespace, which strings.Fields
// splits on, and a non-decimal size line, which fmt.Sscan accepts.
func readReference(r io.Reader, lim ReadLimits) (*CSR, error) {
	br := bufio.NewScanner(r)
	br.Buffer(make([]byte, 1<<20), 1<<20)
	if !br.Scan() {
		return nil, fmt.Errorf("matrix: empty MatrixMarket stream")
	}
	header := strings.Fields(strings.ToLower(br.Text()))
	if len(header) < 4 || header[0] != "%%matrixmarket" || header[1] != "matrix" {
		return nil, fmt.Errorf("matrix: bad MatrixMarket header %q", br.Text())
	}
	if header[2] != "coordinate" {
		return nil, fmt.Errorf("matrix: only coordinate format supported, got %q", header[2])
	}
	valueType := header[3]
	symmetry := "general"
	if len(header) >= 5 {
		symmetry = header[4]
	}
	switch valueType {
	case "real", "integer", "pattern":
	default:
		return nil, fmt.Errorf("matrix: unsupported value type %q", valueType)
	}
	switch symmetry {
	case "general", "symmetric", "skew-symmetric":
	default:
		return nil, fmt.Errorf("matrix: unsupported symmetry %q", symmetry)
	}

	// Skip comments, read the size line.
	var rows, cols, nnz int
	for {
		if !br.Scan() {
			return nil, fmt.Errorf("matrix: missing size line")
		}
		line := strings.TrimSpace(br.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscan(line, &rows, &cols, &nnz); err != nil {
			return nil, fmt.Errorf("matrix: bad size line %q: %w", line, err)
		}
		break
	}
	if rows < 0 || cols < 0 || nnz < 0 {
		return nil, ErrDimension
	}
	if rows > lim.MaxRows || cols > lim.MaxCols || nnz > lim.MaxNNZ {
		return nil, fmt.Errorf("%w: %dx%d with %d entries exceeds read limits %dx%d/%d",
			ErrDimension, rows, cols, nnz, lim.MaxRows, lim.MaxCols, lim.MaxNNZ)
	}
	// Entry coordinates are stored as int32 (COO entries, CSR ColIdx), so a
	// caller-supplied limit above the int32 index space must not let the
	// int32 conversions below truncate silently on a huge-but-admitted file.
	if rows > math.MaxInt32 || cols > math.MaxInt32 {
		return nil, fmt.Errorf("%w: %dx%d exceeds the int32 index space", ErrDimension, rows, cols)
	}
	// The MatrixMarket spec defines symmetry only for square matrices; the
	// mirrored entry of a rectangular "symmetric" file could land outside
	// the matrix.
	if symmetry != "general" && rows != cols {
		return nil, fmt.Errorf("%w: %s matrix must be square, got %dx%d",
			ErrDimension, symmetry, rows, cols)
	}

	coo := NewCOO(rows, cols)
	coo.Entries = make([]Entry, 0, min(nnz, maxEntryPrealloc))
	read := 0
	for read < nnz && br.Scan() {
		line := strings.TrimSpace(br.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("matrix: bad entry line %q", line)
		}
		i, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("matrix: bad row index %q: %w", fields[0], err)
		}
		j, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("matrix: bad col index %q: %w", fields[1], err)
		}
		val := 1.0
		if valueType != "pattern" {
			if len(fields) < 3 {
				return nil, fmt.Errorf("matrix: missing value in %q", line)
			}
			val, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("matrix: bad value %q: %w", fields[2], err)
			}
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, fmt.Errorf("%w: entry (%d,%d) outside %dx%d", ErrIndexRange, i, j, rows, cols)
		}
		coo.Add(int32(i-1), int32(j-1), val)
		switch symmetry {
		case "symmetric":
			if i != j {
				coo.Add(int32(j-1), int32(i-1), val)
			}
		case "skew-symmetric":
			if i != j {
				coo.Add(int32(j-1), int32(i-1), -val)
			}
		}
		read++
	}
	if err := br.Err(); err != nil {
		return nil, err
	}
	if read != nnz {
		return nil, fmt.Errorf("matrix: expected %d entries, got %d", nnz, read)
	}
	return referenceToCSR(coo), nil
}

// referenceToCSR is the sort.Slice conversion COO.ToCSR replaced. Ties on
// (row, col) break on input position, so duplicates are summed in input
// order: the order the counting sort must reproduce.
func referenceToCSR(c *COO) *CSR {
	type indexed struct {
		e   Entry
		pos int
	}
	es := make([]indexed, len(c.Entries))
	for k, e := range c.Entries {
		es[k] = indexed{e, k}
	}
	sort.Slice(es, func(i, j int) bool {
		a, b := es[i], es[j]
		if a.e.Row != b.e.Row {
			return a.e.Row < b.e.Row
		}
		if a.e.Col != b.e.Col {
			return a.e.Col < b.e.Col
		}
		return a.pos < b.pos
	})
	m := &CSR{Rows: c.Rows, Cols: c.Cols, RowPtr: make([]int64, c.Rows+1)}
	for k, x := range es {
		if k > 0 && x.e.Row == es[k-1].e.Row && x.e.Col == es[k-1].e.Col {
			m.Vals[len(m.Vals)-1] += x.e.Val
			continue
		}
		m.RowPtr[x.e.Row+1]++
		m.ColIdx = append(m.ColIdx, x.e.Col)
		m.Vals = append(m.Vals, x.e.Val)
	}
	for i := 0; i < c.Rows; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	return m
}
