// Package features extracts the WISE sparse-matrix feature set (paper
// Table 2): matrix size, nonzero skew of the row and column distributions,
// and nonzero locality statistics over a K x K logical tiling — including the
// per-tile unique-row/column and potential-reuse metrics with adjacency
// group sizes X in {4, 8, 16, 32, 64}.
package features

import (
	"context"
	"fmt"

	"wise/internal/matrix"
	"wise/internal/stats"
)

// GroupSizes are the adjacency group widths X used for GrX_uniq and
// GrX_potReuse features (paper Section 4.2).
var GroupSizes = [...]int{4, 8, 16, 32, 64}

// featureNames is the fixed feature layout, built once; Extract copies it
// into each result.
var featureNames = func() []string {
	names := []string{"n_rows", "n_cols", "nnz"}
	for _, dist := range []string{"R", "C", "T", "RB", "CB"} {
		for _, stat := range []string{"mu", "sigma", "var", "gini", "p", "min", "max", "ne"} {
			names = append(names, stat+"_"+dist)
		}
	}
	names = append(names, "uniqR", "uniqC")
	for _, x := range GroupSizes {
		names = append(names, fmt.Sprintf("gr%d_uniqR", x), fmt.Sprintf("gr%d_uniqC", x))
	}
	names = append(names, "potReuseR", "potReuseC")
	for _, x := range GroupSizes {
		names = append(names, fmt.Sprintf("gr%d_potReuseR", x), fmt.Sprintf("gr%d_potReuseC", x))
	}
	return names
}()

// Config controls feature extraction.
type Config struct {
	// K is the logical tiling factor: the matrix is split into up to K x K
	// tiles of ceil(nR/K) x ceil(nC/K) elements. The paper uses K = 2048 for
	// 1-67M-row matrices; the scaled default is 64 so tiles keep the same
	// relationship to the scaled cache hierarchy.
	K int
}

// DefaultConfig returns the scaled tiling configuration.
func DefaultConfig() Config { return Config{K: 64} }

// PaperConfig returns the paper's tiling configuration (K = 2048).
func PaperConfig() Config { return Config{K: 2048} }

// Features is a named feature vector. Values and Names align by index; the
// layout is fixed for a given Config, so vectors from different matrices are
// directly comparable.
type Features struct {
	Names  []string
	Values []float64
}

// Get returns the value of the named feature, panicking if absent (a typo'd
// feature name is a programming error).
func (f Features) Get(name string) float64 {
	for i, n := range f.Names {
		if n == name {
			return f.Values[i]
		}
	}
	panic(fmt.Sprintf("features: unknown feature %q", name))
}

// FeatureCount returns the number of features extracted per matrix:
// 3 size + 2 x 8 skew + 3 x 8 locality-distribution + 4 uniq/potReuse +
// 4 x len(GroupSizes) grouped variants.
func FeatureCount() int { return 3 + 5*8 + 4 + 4*len(GroupSizes) }

// ctxCheckRows is the cancellation-check stride of the extraction loops: a
// ctx.Err() poll every 2^12 rows keeps deadline overruns bounded to one
// stride of work without measurable cost on the hot path.
const ctxCheckRows = 1 << 12

// Extract computes the full WISE feature vector of a matrix.
func Extract(m *matrix.CSR, cfg Config) Features {
	f, err := ExtractCtx(context.Background(), m, cfg)
	if err != nil {
		// Unreachable: ExtractCtx fails only on ctx cancellation, and the
		// background context is never cancelled.
		panic(err)
	}
	return f
}

// ExtractCtx is Extract with cancellation threaded through the row-scan
// loop, for callers with deadlines (wise-serve requests, wise-predict
// -timeout). On cancellation it returns ctx's error; the partial vector is
// discarded.
func ExtractCtx(ctx context.Context, m *matrix.CSR, cfg Config) (Features, error) {
	if cfg.K < 1 {
		cfg.K = 1
	}
	if err := ctx.Err(); err != nil {
		return Features{}, fmt.Errorf("features: extract: %w", err)
	}
	t := newTiling(m.Rows, m.Cols, cfg.K)
	l, err := scan(ctx, m, t)
	if err != nil {
		return Features{}, err
	}

	f := Features{
		Names:  append([]string(nil), featureNames...),
		Values: make([]float64, 0, len(featureNames)),
	}
	add := func(v float64) { f.Values = append(f.Values, v) }
	addSummary := func(counts []int64) {
		s := stats.Summarize(counts)
		add(s.Mean)
		add(s.Std)
		add(s.Variance)
		add(s.Gini)
		add(s.PRatio)
		add(s.Min)
		add(s.Max)
		add(float64(s.NonEmpty))
	}

	// (1) Size properties.
	nnz := int64(m.NNZ())
	add(float64(m.Rows))
	add(float64(m.Cols))
	add(float64(nnz))

	// (2) Skew: R and C distributions.
	addSummary(m.RowCounts())
	addSummary(l.colCounts)

	// (3) Locality: T/RB/CB distributions over the tiling, then the
	// tile-layout features: unique rows/cols and reuse potential.
	addSummary(l.tileCounts)
	addSummary(l.rbCounts)
	addSummary(l.cbCounts)
	denomNNZ := float64(nnz)
	if nnz == 0 {
		denomNNZ = 1
	}
	for g := range l.rowSide {
		add(float64(l.rowSide[g]) / denomNNZ)
		add(float64(l.colSide[g]) / denomNNZ)
	}
	for g := range l.rowSide {
		x := 1
		if g > 0 {
			x = GroupSizes[g-1]
		}
		nGroupsR := (m.Rows + x - 1) / x
		nGroupsC := (m.Cols + x - 1) / x
		add(float64(l.rowSide[g]) / float64(maxInt(nGroupsR, 1)))
		add(float64(l.colSide[g]) / float64(maxInt(nGroupsC, 1)))
	}
	return f, nil
}

// tiling describes the logical K x K grid over a matrix.
type tiling struct {
	tileRows, tileCols int // elements per tile in each dimension
	kr, kc             int // number of tile rows / columns
}

func newTiling(rows, cols, k int) tiling {
	tr := (rows + k - 1) / k
	if tr < 1 {
		tr = 1
	}
	tc := (cols + k - 1) / k
	if tc < 1 {
		tc = 1
	}
	kr := (rows + tr - 1) / tr
	if kr < 1 {
		kr = 1
	}
	kc := (cols + tc - 1) / tc
	if kc < 1 {
		kc = 1
	}
	return tiling{tileRows: tr, tileCols: tc, kr: kr, kc: kc}
}

// numGroups counts the group widths the row- and column-side counters
// track: X = 1 at position 0, then GroupSizes.
const numGroups = 1 + len(GroupSizes)

// locality holds the per-nonzero counts of one pass over the matrix.
type locality struct {
	colCounts  []int64 // nonzeros per column
	tileCounts []int64 // nonzeros per tile, row-major over the kr x kc grid
	rbCounts   []int64 // nonzeros per tile row
	cbCounts   []int64 // nonzeros per tile column

	// rowSide[g] is the number of distinct (tile, row-group) pairs with at
	// least one nonzero, for group width X = 1 at g = 0 and GroupSizes[g-1]
	// after. With X = 1 it is the sum over tiles of uniqR_i; for larger X
	// it is the sum of GrX_uniqR_i, and divided by the group count it
	// equals the mean GrX_potReuseR. colSide mirrors it for column groups.
	rowSide, colSide [numGroups]int64
}

// scan computes every per-nonzero count of the feature set in one pass over
// the rows in ascending order, computing each nonzero's tile column once.
//
// Row side: rows arrive in order, so remembering the last row seen per tile
// makes the "new row-group in this tile" test exact.
//
// Column side: columns are not globally sorted, so distinct pairs are
// deduplicated per tile row with epoch stamps; the epoch advances at every
// tile-row boundary. For X = 1 the tile column is a function of the column,
// so a per-column stamp suffices; for larger X a group can straddle
// tile-column boundaries, so the stamp is keyed by the exact
// (group, tile column) pair.
func scan(ctx context.Context, m *matrix.CSR, t tiling) (locality, error) {
	l := locality{
		colCounts:  make([]int64, m.Cols),
		tileCounts: make([]int64, t.kr*t.kc),
		rbCounts:   make([]int64, t.kr),
		cbCounts:   make([]int64, t.kc),
	}
	lastRow := make([]int, t.kr*t.kc)
	for i := range lastRow {
		lastRow[i] = -1
	}
	colEpoch := make([]int32, m.Cols)
	// pairEpoch holds one stamp block per group width, each with a slot
	// for every (group, tile column) pair: block g starts at pairBase[g].
	var pairBase [len(GroupSizes) + 1]int
	for g, x := range GroupSizes {
		pairBase[g+1] = pairBase[g] + ((m.Cols+x-1)/x+1)*t.kc
	}
	pairEpoch := make([]int32, pairBase[len(GroupSizes)])
	epoch := int32(0)
	for i := 0; i < m.Rows; i++ {
		if i%ctxCheckRows == 0 && ctx.Err() != nil {
			return locality{}, fmt.Errorf("features: extract: %w", ctx.Err())
		}
		if i%t.tileRows == 0 {
			epoch++
		}
		tr := i / t.tileRows
		cols, _ := m.Row(i)
		l.rbCounts[tr] += int64(len(cols))
		tileRow := tr * t.kc
		prevTC := -1
		for _, c := range cols {
			tc := int(c) / t.tileCols
			tile := tileRow + tc
			l.colCounts[c]++
			l.tileCounts[tile]++
			l.cbCounts[tc]++
			if tc != prevTC { // first nonzero of this row in this tile
				prevTC = tc
				last := lastRow[tile]
				l.rowSide[0]++ // X = 1: every (tile, row) pair is new here
				for g, x := range GroupSizes {
					if last < 0 || last/x != i/x {
						l.rowSide[g+1]++
					}
				}
				lastRow[tile] = i
			}
			if colEpoch[c] != epoch {
				colEpoch[c] = epoch
				l.colSide[0]++
			}
			for g, x := range GroupSizes {
				pair := pairBase[g] + int(c)/x*t.kc + tc
				if pairEpoch[pair] != epoch {
					pairEpoch[pair] = epoch
					l.colSide[g+1]++
				}
			}
		}
	}
	return l, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
