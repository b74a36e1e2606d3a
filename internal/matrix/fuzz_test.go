package matrix

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"slices"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// fuzzSeeds is the seed corpus for the MatrixMarket parser: valid files in
// every supported value-type/symmetry combination plus the malformed shapes
// the parser must reject cleanly. The seeds also run as plain subtests under
// go test (TestFuzzSeedsParse), so CI exercises them without -fuzz.
var fuzzSeeds = []string{
	// Valid: real general with comments and blank lines.
	"%%MatrixMarket matrix coordinate real general\n% comment\n\n2 3 3\n1 1 1.5\n1 3 -2\n2 2 4e-3\n",
	// Valid: symmetric with a diagonal entry (not mirrored twice).
	"%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n1 1 2\n2 1 -1\n3 2 0.5\n",
	// Valid: skew-symmetric (diagonal-free mirror with negation).
	"%%MatrixMarket matrix coordinate real skew-symmetric\n3 3 2\n2 1 1\n3 1 7\n",
	// Valid: pattern entries take value 1.
	"%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2 2\n",
	// Valid: integer values parse as floats.
	"%%MatrixMarket matrix coordinate integer general\n2 2 1\n2 1 -3\n",
	// Valid: duplicate coordinates are summed by canonicalization.
	"%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1\n1 1 2\n2 2 5\n",
	// Valid: empty matrix.
	"%%MatrixMarket matrix coordinate real general\n4 4 0\n",
	// Invalid: bad header.
	"%%NotMatrixMarket nonsense\n1 1 0\n",
	// Invalid: array format unsupported.
	"%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n",
	// Invalid: truncated entry list.
	"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n",
	// Invalid: index out of declared range.
	"%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1\n",
	// Invalid: unparsable value.
	"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 zebra\n",
	// Invalid: negative size line.
	"%%MatrixMarket matrix coordinate real general\n-1 2 0\n",
	// Invalid: rectangular symmetric (mirror would land out of range).
	"%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 3 5\n",
	// Invalid: header dimensions exceed the fuzz read limits.
	"%%MatrixMarket matrix coordinate real general\n999999999 1 0\n",
}

// fuzzLimits bounds allocations so mutated headers cannot OOM the harness.
var fuzzLimits = ReadLimits{MaxRows: 1 << 12, MaxCols: 1 << 12, MaxNNZ: 1 << 14}

// checkParsed asserts the invariants every successfully parsed matrix must
// satisfy, whatever the input bytes were.
func checkParsed(t *testing.T, m *CSR) {
	t.Helper()
	if m == nil {
		t.Fatal("nil matrix with nil error")
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("parsed matrix fails Validate: %v", err)
	}
	if m.Rows > fuzzLimits.MaxRows || m.Cols > fuzzLimits.MaxCols {
		t.Fatalf("parsed %dx%d exceeds read limits", m.Rows, m.Cols)
	}
}

// roundtrip writes m and parses it back, asserting the result is
// structurally identical with bit-equal (or both-NaN) values.
func roundtrip(t *testing.T, m *CSR) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, m); err != nil {
		t.Fatalf("writing parsed matrix: %v", err)
	}
	// The write-out of a symmetric input is the expanded general form and
	// may hold up to 2x the entries, so reread without the fuzz caps.
	m2, err := ReadMatrixMarket(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("rereading written matrix: %v\n%s", err, buf.String())
	}
	if m2.Rows != m.Rows || m2.Cols != m.Cols || m2.NNZ() != m.NNZ() {
		t.Fatalf("roundtrip shape drift: %dx%d/%d -> %dx%d/%d",
			m.Rows, m.Cols, m.NNZ(), m2.Rows, m2.Cols, m2.NNZ())
	}
	for i := range m.RowPtr {
		if m.RowPtr[i] != m2.RowPtr[i] {
			t.Fatalf("roundtrip RowPtr drift at %d", i)
		}
	}
	for i := range m.ColIdx {
		if m.ColIdx[i] != m2.ColIdx[i] {
			t.Fatalf("roundtrip ColIdx drift at %d", i)
		}
		a, b := m.Vals[i], m2.Vals[i]
		// Bit-exact on purpose: %.17g output must reparse to the same
		// float64 (NaN compares unequal to itself, hence the special case).
		if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
			t.Fatalf("roundtrip value drift at %d: %v -> %v", i, a, b)
		}
	}
}

// FuzzReadMatrixMarket asserts the parser never panics, that every accepted
// input yields a valid CSR within the read limits, and that write/reread is
// lossless.
func FuzzReadMatrixMarket(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<18 {
			t.Skip("oversized input")
		}
		m, err := ReadMatrixMarketLimited(bytes.NewReader(data), fuzzLimits)
		if err != nil {
			return // rejected cleanly
		}
		checkParsed(t, m)
		roundtrip(t, m)
	})
}

// FuzzReadMatrixMarketEntries fuzzes the entry-list tail behind a fixed
// valid header, steering mutations at index/value parsing instead of the
// header grammar.
func FuzzReadMatrixMarketEntries(f *testing.F) {
	f.Add("1 1 1.5\n2 3 -2e4\n3 2 0.25\n")
	f.Add("1 1 1\n1 1 2\n1 1 3\n")
	f.Add("3 3 nan\n1 2 1\n2 1 1\n")
	f.Fuzz(func(t *testing.T, entries string) {
		if len(entries) > 1<<16 {
			t.Skip("oversized input")
		}
		input := "%%MatrixMarket matrix coordinate real general\n4 4 3\n" + entries
		m, err := ReadMatrixMarketLimited(strings.NewReader(input), fuzzLimits)
		if err != nil {
			return
		}
		checkParsed(t, m)
		roundtrip(t, m)
	})
}

// TestFuzzSeedsParse runs the full seed corpus as ordinary subtests so the
// seeds are exercised by plain go test (and CI) without the fuzz engine.
func TestFuzzSeedsParse(t *testing.T) {
	for _, s := range fuzzSeeds {
		m, err := ReadMatrixMarketLimited(strings.NewReader(s), fuzzLimits)
		if err != nil {
			continue // invalid seeds are rejected cleanly by construction
		}
		checkParsed(t, m)
		roundtrip(t, m)
	}
}

// TestReadLimits pins the defensive-parsing behavior the fuzz harness
// relies on.
func TestReadLimits(t *testing.T) {
	big := "%%MatrixMarket matrix coordinate real general\n10000000 1 0\n"
	if _, err := ReadMatrixMarketLimited(strings.NewReader(big), fuzzLimits); err == nil {
		t.Fatal("header beyond MaxRows must be rejected")
	}
	if m, err := ReadMatrixMarket(strings.NewReader(big)); err != nil || m.Rows != 10000000 {
		t.Fatalf("default limits must admit large-but-addressable sizes: %v", err)
	}
	rect := "%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 3 5\n"
	if _, err := ReadMatrixMarket(strings.NewReader(rect)); err == nil {
		t.Fatal("rectangular symmetric matrix must be rejected, not mirrored out of range")
	}
}

// diffSeeds are bodies aimed at the conversion the two readers of
// FuzzReadMatrixMarketDiff implement differently: shuffled entry order,
// coordinates repeated three or more times, a hub row, and the
// column-major order SuiteSparse files use.
func diffSeeds() []string {
	rng := rand.New(rand.NewSource(23))
	const n = 64
	header := "%%MatrixMarket matrix coordinate real general\n"
	body := func(lines []string) string {
		return fmt.Sprintf("%s%d %d %d\n%s", header, n, n, len(lines), strings.Join(lines, ""))
	}
	var shuffled, dups, hub, colMajor []string
	for k := 0; k < 200; k++ {
		shuffled = append(shuffled, fmt.Sprintf("%d %d %.17g\n", 1+rng.Intn(n), 1+rng.Intn(n), rng.NormFloat64()))
	}
	for k := 0; k < 40; k++ {
		i, j := 1+rng.Intn(n), 1+rng.Intn(n)
		for c := 0; c < 3+rng.Intn(3); c++ {
			dups = append(dups, fmt.Sprintf("%d %d %.17g\n", i, j, rng.NormFloat64()*1e8))
		}
	}
	rng.Shuffle(len(dups), func(a, b int) { dups[a], dups[b] = dups[b], dups[a] })
	for j := n; j >= 1; j-- {
		hub = append(hub, fmt.Sprintf("7 %d %d\n", j, j))
	}
	for j := 1; j <= n; j++ {
		for i := 1; i <= n; i += 1 + rng.Intn(9) {
			colMajor = append(colMajor, fmt.Sprintf("%d %d %d\n", i, j, i*j))
		}
	}
	return []string{
		body(shuffled),
		body(dups),
		body(append(hub, shuffled[:50]...)),
		body(colMajor),
		strings.Replace(body(colMajor), "general", "symmetric", 1),
		strings.Replace(body(dups), "real general", "pattern general", 1),
		// Signs the bit-level comparison sees: negated NaN and -0 mirrors.
		"%%MatrixMarket matrix coordinate real skew-symmetric\n3 3 3\n2 1 nan\n3 1 -0\n3 2 0\n",
	}
}

// plainDecimal is the integer grammar fmt.Sscan and the reader agree on:
// no base prefix, no leading zero, no digit separator.
var plainDecimal = regexp.MustCompile(`^[+-]?(0|[1-9][0-9]*)$`)

// divergent reports whether data takes one of the reader's two documented
// departures from readReference: non-ASCII Unicode whitespace, which no
// longer separates fields, or a size line that is not three plain decimal
// integers, which fmt.Sscan read in other bases, in part, or run together
// ("0080" scans as the two integers 0 and 80).
func divergent(data []byte) bool {
	for s := string(data); s != ""; {
		r, size := utf8.DecodeRuneInString(s)
		if r > unicode.MaxASCII && unicode.IsSpace(r) {
			return true
		}
		s = s[size:]
	}
	lines := strings.Split(string(data), "\n")
	for _, line := range lines[1:] {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '%' {
			continue
		}
		f := strings.Fields(line)
		for _, x := range f[:min(len(f), 3)] {
			if !plainDecimal.MatchString(x) {
				return true
			}
		}
		return false
	}
	return false
}

// sameCSR reports whether a and b match in structure and, bit for bit, in
// values, so NaN entries compare equal to themselves.
func sameCSR(a, b *CSR) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || !slices.Equal(a.RowPtr, b.RowPtr) || !slices.Equal(a.ColIdx, b.ColIdx) {
		return false
	}
	return slices.EqualFunc(a.Vals, b.Vals, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}

// FuzzReadMatrixMarketDiff checks the reader against readReference, the
// strings.Fields/sort.Slice reader it replaced: both accept or both reject
// every input, and accepted inputs yield the same CSR.
func FuzzReadMatrixMarketDiff(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add([]byte(s))
	}
	for _, s := range diffSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<18 {
			t.Skip("oversized input")
		}
		if divergent(data) {
			t.Skip("documented divergence from the reference reader")
		}
		got, err := ReadMatrixMarketLimited(bytes.NewReader(data), fuzzLimits)
		want, refErr := readReference(bytes.NewReader(data), fuzzLimits)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("reader err = %v, reference err = %v", err, refErr)
		}
		if err == nil && !sameCSR(got, want) {
			t.Fatalf("reader and reference disagree: %v vs %v", got, want)
		}
	})
}
