package matrix

import (
	"bufio"
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
)

func TestMatrixMarketRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := randomCSR(t, rng, 20, 30, 0.1)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(back) {
		t.Error("MatrixMarket round trip changed matrix")
	}
}

func TestMatrixMarketFileRoundTrip(t *testing.T) {
	m := Fig1Example()
	path := filepath.Join(t.TempDir(), "fig1.mtx")
	if err := WriteFile(path, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(back) {
		t.Error("file round trip changed matrix")
	}
}

func TestReadSymmetric(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real symmetric
% a comment
3 3 3
1 1 2.0
2 1 5.0
3 3 1.0
`
	m, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 4 { // off-diagonal mirrored
		t.Fatalf("nnz = %d, want 4", m.NNZ())
	}
	d := m.ToDense()
	if d[0*3+1] != 5 || d[1*3+0] != 5 {
		t.Error("symmetric entry not mirrored")
	}
}

func TestReadSkewSymmetric(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real skew-symmetric
2 2 1
2 1 3.0
`
	m, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	d := m.ToDense()
	if d[1*2+0] != 3 || d[0*2+1] != -3 {
		t.Errorf("skew mirror wrong: %v", d)
	}
}

func TestReadPattern(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate pattern general
2 2 2
1 1
2 2
`
	m, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.Vals[0] != 1 || m.Vals[1] != 1 {
		t.Error("pattern values should be 1")
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"bad header":   "%%NotMatrixMarket\n1 1 1\n1 1 1\n",
		"array format": "%%MatrixMarket matrix array real general\n1 1\n1.0\n",
		"bad type":     "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n",
		"bad symmetry": "%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1\n",
		"short":        "%%MatrixMarket matrix coordinate real general\n3 3 5\n1 1 1.0\n",
		"out of range": "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n",
		"bad value":    "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 xyz\n",
		"bad index":    "%%MatrixMarket matrix coordinate real general\n2 2 1\nx 1 1.0\n",
		"no value":     "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n",
		"hex size":     "%%MatrixMarket matrix coordinate real general\n0x2 0b10 1\n1 1 1.0\n",
		"digit sep":    "%%MatrixMarket matrix coordinate real general\n1_0 2 1\n1 1 1.0\n",
	}
	for name, src := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(src)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real general
% comment 1

% comment 2
2 2 2
% inline comment
1 1 1.0

2 2 2.0
`
	m, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 2 {
		t.Fatalf("nnz = %d", m.NNZ())
	}
}

// mtxBody renders m as MatrixMarket text with its entry lines shuffled, so
// the reader's conversion has to sort.
func mtxBody(t testing.TB, rng *rand.Rand, m *CSR) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, m); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(buf.String(), "\n")
	entries := lines[2 : len(lines)-1]
	rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
	return []byte(strings.Join(lines, ""))
}

// TestReadMatrixMarketAllocs pins the reader's allocations per parse to a
// constant: doubling nnz must not add any, and neither may a line.
func TestReadMatrixMarketAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range []int{1 << 11, 1 << 12} {
		body := mtxBody(t, rng, randomCSR(t, rng, n, n, 8/float64(n)))
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := ReadMatrixMarket(bytes.NewReader(body)); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 64 {
			t.Errorf("%d rows, %d bytes: %.0f allocs/op, want <= 64", n, len(body), allocs)
		}
	}
}

// TestReadLongLines pins the 1 MiB line cap: a line longer than the read
// buffer still parses, one past the cap fails with bufio.ErrTooLong.
func TestReadLongLines(t *testing.T) {
	head := "%%MatrixMarket matrix coordinate real general\n2 2 1\n"
	pad := strings.Repeat(" ", 200<<10)
	m, err := ReadMatrixMarket(strings.NewReader(head + "% " + pad + "\n2 1" + pad + "7\n"))
	if err != nil || m.NNZ() != 1 || m.Vals[0] != 7 {
		t.Fatalf("padded lines: %v, %v", m, err)
	}
	long := head + "%" + strings.Repeat("x", 1<<20) + "\n1 1 1\n"
	if _, err := ReadMatrixMarket(strings.NewReader(long)); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("line past 1 MiB: err = %v, want bufio.ErrTooLong", err)
	}
}
