package matrix

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"wise/internal/resilience"
)

// MatrixMarket I/O. The coordinate real/integer/pattern general/symmetric
// subset is supported — enough to interchange with SuiteSparse-format files.

// WriteMatrixMarket writes the matrix in MatrixMarket coordinate real
// general format (1-based indices).
func WriteMatrixMarket(w io.Writer, m *CSR) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", m.Rows, m.Cols, m.NNZ()); err != nil {
		return err
	}
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		for k := range cols {
			if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", i+1, cols[k]+1, vals[k]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadLimits bounds what the MatrixMarket reader accepts. The header of an
// untrusted stream declares dimensions and entry counts that drive
// allocations, so defensive callers (and the fuzz harness) cap them.
type ReadLimits struct {
	MaxRows int
	MaxCols int
	MaxNNZ  int
}

// DefaultReadLimits admits anything addressable by the int32 index space
// CSR uses; only the entry count stays effectively unbounded.
func DefaultReadLimits() ReadLimits {
	return ReadLimits{MaxRows: math.MaxInt32, MaxCols: math.MaxInt32, MaxNNZ: math.MaxInt}
}

// maxEntryPrealloc caps the entry capacity reserved from the declared nnz
// before any entry has been read — a tiny header must not reserve gigabytes.
const maxEntryPrealloc = 1 << 16

// readBufSize is the reader's buffer: lines that fit are parsed in place.
// maxLineLen caps a line (terminator excluded); longer lines fail with
// bufio.ErrTooLong, so one hostile line cannot grow the reader unbounded.
const (
	readBufSize = 64 << 10
	maxLineLen  = 1 << 20
)

// ReadMatrixMarket parses a MatrixMarket coordinate file into CSR form.
// Symmetric and skew-symmetric matrices are expanded; pattern matrices get
// value 1 for every entry.
//
// The accepted grammar: fields are separated by ASCII whitespace (space,
// \t, \v, \f, \r); non-ASCII Unicode spaces such as U+00A0 or U+0085 are
// field bytes, not separators, since the format is ASCII. The size line and
// the entry indices are decimal integers (an optional sign and digits, no
// base prefixes or underscores); values are anything strconv.ParseFloat
// accepts. A line may hold at most 1 MiB; a longer one fails with
// bufio.ErrTooLong. Lines past the declared entry count are not read.
func ReadMatrixMarket(r io.Reader) (*CSR, error) {
	return ReadMatrixMarketLimited(r, DefaultReadLimits())
}

// ReadMatrixMarketLimited is ReadMatrixMarket with explicit header limits,
// for parsing untrusted input with bounded memory.
func ReadMatrixMarketLimited(r io.Reader, lim ReadLimits) (*CSR, error) {
	lr := lineReader{br: bufio.NewReaderSize(r, readBufSize)}
	first, ok := lr.next()
	if !ok {
		if lr.err != nil {
			return nil, lr.err
		}
		return nil, fmt.Errorf("matrix: empty MatrixMarket stream")
	}
	var header [5]string
	nh := 0
	for rest := []byte(strings.ToLower(string(first))); nh < len(header); nh++ {
		var f []byte
		if f, rest = nextField(rest); len(f) == 0 {
			break
		}
		header[nh] = string(f)
	}
	if nh < 4 || header[0] != "%%matrixmarket" || header[1] != "matrix" {
		return nil, fmt.Errorf("matrix: bad MatrixMarket header %q", first)
	}
	if header[2] != "coordinate" {
		return nil, fmt.Errorf("matrix: only coordinate format supported, got %q", header[2])
	}
	valueType := header[3]
	symmetry := "general"
	if nh >= 5 {
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
	var size [3]int
	for {
		line, ok := lr.dataLine()
		if !ok {
			if lr.err != nil {
				return nil, lr.err
			}
			return nil, fmt.Errorf("matrix: missing size line")
		}
		rest := line
		for k := range size {
			var f []byte
			f, rest = nextField(rest)
			if len(f) == 0 {
				return nil, fmt.Errorf("matrix: bad size line %q: %w", line, io.ErrUnexpectedEOF)
			}
			n, err := atoi(f)
			if err != nil {
				return nil, fmt.Errorf("matrix: bad size line %q: %w", line, err)
			}
			size[k] = n
		}
		break
	}
	rows, cols, nnz := size[0], size[1], size[2]
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
	pattern := valueType == "pattern"
	mirror, skew := symmetry != "general", symmetry == "skew-symmetric"

	coo := NewCOO(rows, cols)
	coo.Entries = make([]Entry, 0, min(nnz, maxEntryPrealloc))
	read := 0
	for read < nnz {
		line, ok := lr.dataLine()
		if !ok {
			break
		}
		fi, rest := nextField(line)
		fj, rest := nextField(rest)
		if len(fj) == 0 {
			return nil, fmt.Errorf("matrix: bad entry line %q", line)
		}
		i, err := atoi(fi)
		if err != nil {
			return nil, fmt.Errorf("matrix: bad row index %q: %w", fi, err)
		}
		j, err := atoi(fj)
		if err != nil {
			return nil, fmt.Errorf("matrix: bad col index %q: %w", fj, err)
		}
		val := 1.0
		if !pattern {
			fv, _ := nextField(rest)
			if len(fv) == 0 {
				return nil, fmt.Errorf("matrix: missing value in %q", line)
			}
			// string(fv) does not escape ParseFloat, so the conversion
			// uses a stack buffer instead of allocating.
			val, err = strconv.ParseFloat(string(fv), 64)
			if err != nil {
				return nil, fmt.Errorf("matrix: bad value %q: %w", fv, err)
			}
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, fmt.Errorf("%w: entry (%d,%d) outside %dx%d", ErrIndexRange, i, j, rows, cols)
		}
		coo.Add(int32(i-1), int32(j-1), val)
		if mirror && i != j {
			if skew {
				val = -val
			}
			coo.Add(int32(j-1), int32(i-1), val)
		}
		read++
	}
	if lr.err != nil {
		return nil, lr.err
	}
	if read != nnz {
		return nil, fmt.Errorf("matrix: expected %d entries, got %d", nnz, read)
	}
	return coo.ToCSR(), nil
}

// lineReader yields the lines of a stream as slices of its buffer, valid
// until the next call. Only a line longer than the buffer is copied, into
// long, which is reused across such lines.
type lineReader struct {
	br   *bufio.Reader
	long []byte
	err  error // first read error other than io.EOF
}

// next returns the next line without its "\n" terminator. At the end of the
// stream or on a read error it returns false, recording the error in err.
func (lr *lineReader) next() ([]byte, bool) {
	line, err := lr.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		lr.long = append(lr.long[:0], line...)
		for err == bufio.ErrBufferFull && len(lr.long) <= maxLineLen {
			line, err = lr.br.ReadSlice('\n')
			lr.long = append(lr.long, line...)
		}
		line = lr.long
	}
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	switch {
	case len(line) >= maxLineLen:
		lr.err = bufio.ErrTooLong
		return nil, false
	case err == io.EOF:
		return line, len(line) > 0
	case err != nil:
		lr.err = err
		return nil, false
	}
	return line, true
}

// dataLine returns the next line that is neither blank nor a comment, with
// surrounding ASCII whitespace trimmed.
func (lr *lineReader) dataLine() ([]byte, bool) {
	for {
		line, ok := lr.next()
		if !ok {
			return nil, false
		}
		line = trimSpace(line)
		if len(line) > 0 && line[0] != '%' {
			return line, true
		}
	}
}

// asciiSpace marks the ASCII whitespace bytes that separate fields.
var asciiSpace = [256]bool{' ': true, '\t': true, '\n': true, '\v': true, '\f': true, '\r': true}

func isSpace(c byte) bool { return asciiSpace[c] }

func trimSpace(b []byte) []byte {
	for len(b) > 0 && isSpace(b[0]) {
		b = b[1:]
	}
	for len(b) > 0 && isSpace(b[len(b)-1]) {
		b = b[:len(b)-1]
	}
	return b
}

// nextField splits the first whitespace-separated field off b. The field is
// empty when b holds no more fields.
func nextField(b []byte) (field, rest []byte) {
	i := 0
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	j := i
	for j < len(b) && !isSpace(b[j]) {
		j++
	}
	return b[i:j], b[j:]
}

// atoi parses a decimal integer: an optional sign and one or more digits,
// the grammar strconv.Atoi accepts, without converting b to a string. It
// fails with strconv.ErrSyntax on any other input and with strconv.ErrRange
// when the value does not fit an int.
func atoi(b []byte) (int, error) {
	s := b
	neg := false
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		neg = s[0] == '-'
		s = s[1:]
	}
	if len(s) == 0 {
		return 0, &strconv.NumError{Func: "Atoi", Num: string(b), Err: strconv.ErrSyntax}
	}
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	var mag uint64
	for k, c := range s {
		d := uint64(c - '0')
		if d > 9 {
			return 0, &strconv.NumError{Func: "Atoi", Num: string(b), Err: strconv.ErrSyntax}
		}
		// Eighteen digits cannot overflow; only longer numbers pay the check.
		if k >= 18 && mag > (limit-d)/10 {
			return 0, &strconv.NumError{Func: "Atoi", Num: string(b), Err: strconv.ErrRange}
		}
		mag = mag*10 + d
	}
	if neg {
		return int(-mag), nil
	}
	return int(mag), nil
}

// WriteFile writes the matrix to path in MatrixMarket format, atomically:
// readers never observe a partially written matrix.
func WriteFile(path string, m *CSR) error {
	f, err := resilience.CreateAtomic(path)
	if err != nil {
		return err
	}
	defer f.Abort()
	if err := WriteMatrixMarket(f, m); err != nil {
		return err
	}
	return f.Commit()
}

// ReadFile reads a MatrixMarket file from path.
func ReadFile(path string) (*CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadMatrixMarket(f)
}
