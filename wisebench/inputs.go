package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"wise/internal/bench"
	"wise/internal/core"
	"wise/internal/costmodel"
	"wise/internal/features"
	"wise/internal/gen"
	"wise/internal/kernels"
	"wise/internal/machine"
	"wise/internal/matrix"
	"wise/internal/ml"
	"wise/internal/perf"
	"wise/internal/session"
)

// corpusSpecs is the matrix corpus every workload draws from: the six
// internal/gen families at 2^10..2^13 rows. Kinds, sizes and degrees are
// fixed; the seed only moves the random structure inside each family, so
// runs with different seeds carry the same amount of work and their
// figures are comparable. The 2^10-row matrices keep the /spmv y echo
// (at most 1024 rows) on the request path.
var corpusSpecs = func() []bench.MatrixSpec {
	var specs []bench.MatrixSpec
	for _, scale := range []int{10, 11, 12, 13} {
		rows := 1 << scale
		deg := float64(2 * (scale - 7)) // 6, 8, 10, 12 nonzeros per row
		specs = append(specs,
			bench.MatrixSpec{Name: fmt.Sprintf("ms_r%d", scale), Kind: bench.KindRMATMed, Rows: rows, Degree: deg},
			bench.MatrixSpec{Name: fmt.Sprintf("hs_r%d", scale), Kind: bench.KindRMATHigh, Rows: rows, Degree: deg},
			bench.MatrixSpec{Name: fmt.Sprintf("rgg_r%d", scale), Kind: bench.KindRGG, Rows: rows, Degree: deg},
			bench.MatrixSpec{Name: fmt.Sprintf("stencil_r%d", scale), Kind: bench.KindStencil2D, Rows: rows},
			bench.MatrixSpec{Name: fmt.Sprintf("banded_r%d", scale), Kind: bench.KindBanded, Rows: rows, Degree: deg},
			bench.MatrixSpec{Name: fmt.Sprintf("powerlaw_r%d", scale), Kind: bench.KindPowerLaw, Rows: rows},
		)
	}
	return specs
}()

// Request-shape constants of the workloads.
const (
	warmIterations   = 16 // chained multiplies per warm /spmv: the iterative-solver use
	inlineIterations = 4  // chained multiplies per inline /spmv in ingest-mix
	ingestBlocks     = 24 // four passes over the corpus in fresh uploads
	// ingestSessionBytes is wise-serve's -session-bytes for ingest-mix:
	// about ten prepared sessions of the largest corpus matrices. That holds
	// the 8 bodies a block touches but is far below the 96 distinct bodies
	// of a pass, so the LRU evicts while re-uploads still hit.
	ingestSessionBytes = 32 << 20
)

// corpusMatrix is one generated matrix with everything the client and the
// checks need: its MatrixMarket body, the parsed form the server will see,
// and the reference answers.
type corpusMatrix struct {
	Name   string
	Body   []byte      // MatrixMarket text the server receives
	M      *matrix.CSR // parsed Body, the exact matrix the server computes on
	Method kernels.Method
	FP     string // session fingerprint of Body
}

// corpus generates the seed's matrices and serializes them.
func corpus(seed int64) ([]*corpusMatrix, error) {
	out := make([]*corpusMatrix, 0, len(corpusSpecs))
	for _, spec := range corpusSpecs {
		var buf bytes.Buffer
		if err := matrix.WriteMatrixMarket(&buf, spec.Build(seed)); err != nil {
			return nil, fmt.Errorf("serializing %s: %w", spec.Name, err)
		}
		m, err := matrix.ReadMatrixMarket(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return nil, fmt.Errorf("re-reading %s: %w", spec.Name, err)
		}
		out = append(out, &corpusMatrix{Name: spec.Name, Body: buf.Bytes(), M: m, FP: session.Fingerprint(buf.Bytes())})
	}
	return out, nil
}

// selectAll records the model's in-process answer for every matrix: the
// reference every /predict and /matrix method is checked against.
func selectAll(w *core.WISE, mats []*corpusMatrix) {
	for _, c := range mats {
		c.Method = w.SelectFromFeatures(features.Extract(c.M, w.FeatureCfg)).Method
	}
}

// modelSeed is the corpus seed of the served model. The model is part of
// the server's configuration, not of the traffic: with a model per input
// seed, the selected kernels (and so warm-spmv's latency tail and the
// speedup over CSR) would change with the seed and hide what a code change
// does.
const modelSeed = 1

// trainModel returns the path of the served model, training it on first
// use: a cost-model-labelled corpus the shape of `wise-train -small`,
// fitted with core.Train. Training is offline work, outside every metric.
//
// The cached model is keyed by the sha256 of this executable, which links
// all the code that generates, labels, trains and saves the model. A build
// of other sources therefore trains its own model rather than serving one
// that other code trained into the same work dir.
func trainModel(workDir string) (string, error) {
	key, err := executableKey()
	if err != nil {
		return "", err
	}
	path := filepath.Join(workDir, fmt.Sprintf("model-seed%d-%s.json", modelSeed, key))
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	mach := machine.Scaled()
	labels := perf.LabelCorpus(perf.LabelConfig{
		Estimator: costmodel.New(mach),
		Space:     kernels.ModelSpace(mach),
		Features:  features.DefaultConfig(),
	}, gen.Corpus(gen.CorpusConfig{
		Seed:      modelSeed,
		RowScales: []float64{9, 11, 13},
		Degrees:   []float64{4, 16},
		MaxNNZ:    1 << 21,
		SciCount:  10,
	}))
	w, err := core.Train(labels, ml.TreeConfig{MaxDepth: 15, MinSamplesLeaf: 1, CCPAlpha: 0.005}, features.DefaultConfig(), mach)
	if err != nil {
		return "", fmt.Errorf("training model: %w", err)
	}
	// Write and rename, so a run stopped mid-write leaves no partial model
	// for the next run to load.
	tmp := path + ".tmp"
	if err := w.Save(tmp); err != nil {
		return "", err
	}
	return path, os.Rename(tmp, path)
}

// executableKey is the first 16 hex digits of the sha256 of the running
// executable.
func executableKey() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("hashing %s: %w", exe, err)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// op is one request of a workload's fixed sequence.
type op struct {
	Path  string   // "/predict", "/matrix" or "/spmv"
	Parts [][]byte // request body, concatenated at send time
	Mat   int      // corpus index of the matrix the request carries or names
	Iters int      // chained multiplies of a /spmv request
	FP    string   // fingerprint the server must report (/matrix)
}

// body concatenates the op's parts into buf and returns the bytes.
func (o op) body(buf *bytes.Buffer) []byte {
	buf.Reset()
	for _, p := range o.Parts {
		buf.Write(p)
	}
	return buf.Bytes()
}

// reader streams the op's body without copying it, and returns its length.
func (o op) reader() (io.Reader, int64) {
	rs := make([]io.Reader, len(o.Parts))
	var n int64
	for i, p := range o.Parts {
		rs[i] = bytes.NewReader(p)
		n += int64(len(p))
	}
	return io.MultiReader(rs...), n
}

// passes is how many seeded orders of the corpus a cold-predict or
// warm-spmv sequence holds. Two clients share one sequence, so its order
// decides which matrices run side by side; several orders per sequence
// keep that pairing from differing much between seeds.
const passes = 10

// coldOps is cold-predict's sequence: the corpus matrices, inline, in
// seeded orders.
func coldOps(seed int64, mats []*corpusMatrix) []op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]op, 0, passes*len(mats))
	for p := 0; p < passes; p++ {
		for _, i := range rng.Perm(len(mats)) {
			ops = append(ops, op{Path: "/predict", Parts: [][]byte{mats[i].Body}, Mat: i})
		}
	}
	return ops
}

// warmOps is warm-spmv's sequence: the prepared matrices, by fingerprint,
// in seeded orders.
func warmOps(seed int64, mats []*corpusMatrix) []op {
	rng := rand.New(rand.NewSource(seed + 1))
	ops := make([]op, 0, passes*len(mats))
	for p := 0; p < passes; p++ {
		for _, i := range rng.Perm(len(mats)) {
			req := fmt.Sprintf(`{"fingerprint":%q,"iterations":%d}`, mats[i].FP, warmIterations)
			ops = append(ops, op{Path: "/spmv", Parts: [][]byte{[]byte(req)}, Mat: i, Iters: warmIterations})
		}
	}
	return ops
}

// ingestOps is ingest-mix's sequence of ingestBlocks blocks. Block b holds,
// in a seeded order,
//   - 4 fresh uploads: a corpus body with a nonce comment, so every one is
//     a distinct fingerprint and a session build;
//   - re-uploads of block b-1's 4 fresh bodies: hits while the LRU still
//     holds them, rebuilds after eviction;
//   - inline /spmv of block b-1's 4 fresh bodies: hit or rebuild, never a
//     404.
//
// Fresh bodies walk the corpus in seeded orders, so every matrix is
// uploaded, re-uploaded and executed equally often, and the work per pass
// is the same from seed to seed. Block 0 reuses the last block's bodies,
// so the sequence also repeats seamlessly.
func ingestOps(seed int64, mats []*corpusMatrix) []op {
	rng := rand.New(rand.NewSource(seed + 2))
	// The bodies after their header lines, shared by every op that sends
	// them, as text and escaped for a JSON string.
	rest := make([][]byte, len(mats))
	jsonRest := make([][]byte, len(mats))
	for i, c := range mats {
		rest[i] = c.Body[bytes.IndexByte(c.Body, '\n')+1:]
		jsonRest[i] = jsonEscape(rest[i])
	}
	const perBlock = 4
	var fresh []op // upload ops, perBlock per block
	var inline []op
	for len(fresh) < ingestBlocks*perBlock {
		for _, i := range rng.Perm(len(mats)) {
			k := len(fresh)
			head := append(append([]byte{}, mats[i].Body[:len(mats[i].Body)-len(rest[i])]...),
				fmt.Sprintf("%% wisebench nonce %d-%d\n", seed, k)...)
			full := append(append(make([]byte, 0, len(mats[i].Body)+len(head)), head...), rest[i]...)
			fp := session.Fingerprint(full)
			fresh = append(fresh, op{Path: "/matrix", Parts: [][]byte{head, rest[i]}, Mat: i, FP: fp})
			pre := []byte(fmt.Sprintf(`{"iterations":%d,"matrix":"`, inlineIterations))
			inline = append(inline, op{Path: "/spmv", Parts: [][]byte{pre, jsonEscape(head), jsonRest[i], []byte(`"}`)},
				Mat: i, Iters: inlineIterations, FP: fp})
		}
	}
	ops := make([]op, 0, 3*len(fresh))
	for b := 0; b < ingestBlocks; b++ {
		prev := (b + ingestBlocks - 1) % ingestBlocks
		block := append(append(append([]op{}, fresh[b*perBlock:(b+1)*perBlock]...),
			fresh[prev*perBlock:(prev+1)*perBlock]...), inline[prev*perBlock:(prev+1)*perBlock]...)
		rng.Shuffle(len(block), func(x, y int) { block[x], block[y] = block[y], block[x] })
		ops = append(ops, block...)
	}
	return ops
}

// jsonEscape escapes MatrixMarket text for a JSON string. The writer emits
// only digits, letters, spaces, '%', '.', '+', '-' and newlines, so the
// newline is the one character that needs escaping.
func jsonEscape(b []byte) []byte {
	return []byte(strings.ReplaceAll(string(b), "\n", `\n`))
}

// reference holds the expected /spmv answers of one matrix: y = A^k * 1.
type reference struct {
	Y     []float64
	YNorm float64
}

// referenceSpMV chains the textbook CSR SpMV iters times from x = ones.
func referenceSpMV(m *matrix.CSR, iters int) reference {
	x := matrix.Ones(m.Cols)
	y := make([]float64, m.Rows)
	for i := 0; i < iters; i++ {
		m.SpMV(y, x)
		x, y = y, x
	}
	return reference{Y: x, YNorm: matrix.Norm2(x)}
}

// spmvTolerance is the relative tolerance of a served /spmv result against
// the reference: formats sum a row's products in different orders, and the
// rounding difference grows with chained multiplies, but stays far below
// this.
const spmvTolerance = 1e-9

// checkSpMV compares a served y_norm (and y, when echoed) with the
// reference.
func checkSpMV(ref reference, yNorm float64, y []float64, echoed bool) error {
	if !(math.Abs(yNorm-ref.YNorm) <= spmvTolerance*math.Max(ref.YNorm, 1)) {
		return fmt.Errorf("y_norm %g, reference %g", yNorm, ref.YNorm)
	}
	if !echoed {
		if y != nil {
			return fmt.Errorf("y echoed for %d rows", len(ref.Y))
		}
		return nil
	}
	if len(y) != len(ref.Y) {
		return fmt.Errorf("y has %d entries, want %d", len(y), len(ref.Y))
	}
	scale := math.Max(matrix.MaxAbsDiff(ref.Y, make([]float64, len(ref.Y))), 1)
	if d := matrix.MaxAbsDiff(y, ref.Y); !(d <= spmvTolerance*scale) {
		return fmt.Errorf("max |y - y_ref| = %g", d)
	}
	return nil
}
