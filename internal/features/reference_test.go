package features

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"wise/internal/gen"
	"wise/internal/matrix"
	"wise/internal/stats"
)

// referenceExtract is the multi-pass extraction Extract replaced: separate
// row-side and column-side passes that recompute each nonzero's tile column,
// map counters keyed by group width, per-call feature names, and summaries
// that sort with sort.Slice. It is the oracle Extract must match bit for bit.
func referenceExtract(m *matrix.CSR, cfg Config) Features {
	if cfg.K < 1 {
		cfg.K = 1
	}
	var f Features
	add := func(name string, v float64) {
		f.Names = append(f.Names, name)
		f.Values = append(f.Values, v)
	}
	addSummary := func(dist string, s stats.Summary) {
		add("mu_"+dist, s.Mean)
		add("sigma_"+dist, s.Std)
		add("var_"+dist, s.Variance)
		add("gini_"+dist, s.Gini)
		add("p_"+dist, s.PRatio)
		add("min_"+dist, s.Min)
		add("max_"+dist, s.Max)
		add("ne_"+dist, float64(s.NonEmpty))
	}

	nnz := int64(m.NNZ())
	add("n_rows", float64(m.Rows))
	add("n_cols", float64(m.Cols))
	add("nnz", float64(nnz))

	addSummary("R", referenceSummarize(m.RowCounts()))
	addSummary("C", referenceSummarize(m.ColCounts()))

	t := newTiling(m.Rows, m.Cols, cfg.K)
	tileCounts := make([]int64, t.kr*t.kc)
	rbCounts := make([]int64, t.kr)
	cbCounts := make([]int64, t.kc)
	for i := 0; i < m.Rows; i++ {
		tr := i / t.tileRows
		cols, _ := m.Row(i)
		rbCounts[tr] += int64(len(cols))
		for _, c := range cols {
			tc := int(c) / t.tileCols
			tileCounts[tr*t.kc+tc]++
			cbCounts[tc]++
		}
	}
	addSummary("T", referenceSummarize(tileCounts))
	addSummary("RB", referenceSummarize(rbCounts))
	addSummary("CB", referenceSummarize(cbCounts))

	rowSide := referenceRowSide(m, t)
	colSide := referenceColSide(m, t)
	denomNNZ := float64(nnz)
	if nnz == 0 {
		denomNNZ = 1
	}
	add("uniqR", float64(rowSide[1])/denomNNZ)
	add("uniqC", float64(colSide[1])/denomNNZ)
	for _, x := range GroupSizes {
		add(fmt.Sprintf("gr%d_uniqR", x), float64(rowSide[x])/denomNNZ)
		add(fmt.Sprintf("gr%d_uniqC", x), float64(colSide[x])/denomNNZ)
	}
	add("potReuseR", float64(rowSide[1])/float64(maxInt(m.Rows, 1)))
	add("potReuseC", float64(colSide[1])/float64(maxInt(m.Cols, 1)))
	for _, x := range GroupSizes {
		nGroupsR := (m.Rows + x - 1) / x
		nGroupsC := (m.Cols + x - 1) / x
		add(fmt.Sprintf("gr%d_potReuseR", x), float64(rowSide[x])/float64(maxInt(nGroupsR, 1)))
		add(fmt.Sprintf("gr%d_potReuseC", x), float64(colSide[x])/float64(maxInt(nGroupsC, 1)))
	}
	return f
}

// referenceRowSide counts distinct (tile, row-group) pairs per group width,
// streaming rows in ascending order with the last row seen per tile.
func referenceRowSide(m *matrix.CSR, t tiling) map[int]int64 {
	xs := append([]int{1}, GroupSizes[:]...)
	counts := make(map[int]int64, len(xs))
	lastRow := make([]int64, t.kr*t.kc)
	for i := range lastRow {
		lastRow[i] = -1
	}
	for i := 0; i < m.Rows; i++ {
		tr := i / t.tileRows
		cols, _ := m.Row(i)
		prevTC := -1
		for _, c := range cols {
			tc := int(c) / t.tileCols
			if tc == prevTC {
				continue
			}
			prevTC = tc
			tile := tr*t.kc + tc
			last := lastRow[tile]
			for _, x := range xs {
				if last < 0 || last/int64(x) != int64(i)/int64(x) {
					counts[x]++
				}
			}
			lastRow[tile] = int64(i)
		}
	}
	return counts
}

// referenceColSide counts distinct (tile, col-group) pairs per group width,
// one tile row at a time with epoch-stamped dedupe.
func referenceColSide(m *matrix.CSR, t tiling) map[int]int64 {
	counts := make(map[int]int64, 1+len(GroupSizes))
	colEpoch := make([]int32, m.Cols)
	pairEpochs := make([][]int32, len(GroupSizes))
	for xi, x := range GroupSizes {
		nGroups := (m.Cols+x-1)/x + 1
		pairEpochs[xi] = make([]int32, nGroups*t.kc)
	}
	epoch := int32(0)
	for trLo := 0; trLo < m.Rows; trLo += t.tileRows {
		epoch++
		trHi := min(trLo+t.tileRows, m.Rows)
		for i := trLo; i < trHi; i++ {
			cols, _ := m.Row(i)
			for _, c := range cols {
				tc := int(c) / t.tileCols
				if colEpoch[c] != epoch {
					colEpoch[c] = epoch
					counts[1]++
				}
				for xi, x := range GroupSizes {
					pair := (int(c)/x)*t.kc + tc
					if pairEpochs[xi][pair] != epoch {
						pairEpochs[xi][pair] = epoch
						counts[x]++
					}
				}
			}
		}
	}
	return counts
}

// referenceSummarize is stats.Summarize as it was before the single sort:
// min and max from a scan, and Gini and PRatio each sorting their own copy
// with sort.Slice.
func referenceSummarize(counts []int64) stats.Summary {
	if len(counts) == 0 {
		return stats.Summary{PRatio: 0.5}
	}
	var (
		sum      float64
		lo       = float64(counts[0])
		hi       = float64(counts[0])
		nonEmpty int
	)
	for _, c := range counts {
		v := float64(c)
		sum += v
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
		if c != 0 {
			nonEmpty++
		}
	}
	n := float64(len(counts))
	mean := sum / n
	var ss float64
	for _, c := range counts {
		d := float64(c) - mean
		ss += d * d
	}
	variance := ss / n
	return stats.Summary{
		Mean:     mean,
		Std:      math.Sqrt(variance),
		Variance: variance,
		Min:      lo,
		Max:      hi,
		Gini:     referenceGini(counts),
		PRatio:   referencePRatio(counts),
		NonEmpty: nonEmpty,
	}
}

func referenceGini(counts []int64) float64 {
	n := len(counts)
	if n <= 1 {
		return 0
	}
	sorted := append([]int64(nil), counts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var total, weighted float64
	for i, c := range sorted {
		v := float64(c)
		total += v
		weighted += float64(i+1) * v
	}
	if total == 0 {
		return 0
	}
	nf := float64(n)
	return math.Max(0, 2*weighted/(nf*total)-(nf+1)/nf)
}

func referencePRatio(counts []int64) float64 {
	n := len(counts)
	if n == 0 {
		return 0.5
	}
	sorted := append([]int64(nil), counts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	var total float64
	for _, c := range sorted {
		total += float64(c)
	}
	if total == 0 {
		return 0.5
	}
	nf := float64(n)
	var cum float64
	prevFrac, prevShare := 0.0, 0.0
	for i, c := range sorted {
		cum += float64(c)
		frac := float64(i+1) / nf
		share := cum / total
		if share+frac >= 1 {
			f0 := prevShare + prevFrac - 1
			f1 := share + frac - 1
			if f1 == f0 {
				return frac
			}
			tt := -f0 / (f1 - f0)
			return prevFrac + tt*(frac-prevFrac)
		}
		prevFrac, prevShare = frac, share
	}
	return 1.0
}

// familyMatrices builds one matrix of each corpus family the benchmark serves:
// medium- and high-skew RMAT, RGG, 2-D stencil, banded and power-law rows.
func familyMatrices(rng *rand.Rand, rows int) map[string]*matrix.CSR {
	g := int(math.Sqrt(float64(rows)))
	return map[string]*matrix.CSR{
		"rmat-ms":   gen.CapRowDegree(rng, gen.RMATRows(rng, rows, 8, gen.MedSkew), 64),
		"rmat-hs":   gen.RMATRows(rng, rows, 8, gen.HighSkew),
		"rgg":       gen.RGG(rng, rows, 6),
		"stencil2d": gen.Stencil2D(g, g, true),
		"banded":    gen.Banded(rng, rows, []int{-4, -1, 0, 1, 4}),
		"powerlaw":  gen.PowerLawRows(rng, rows, 2.1, 256),
	}
}

// TestExtractMatchesReference pins Extract to the reference extraction bit
// for bit (math.Float64bits), names included, so the served model and every
// recorded feature vector stay where they are.
func TestExtractMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	cases := map[string]*matrix.CSR{}
	for _, rows := range []int{1 << 10, 1 << 11, 1 << 12} {
		for name, m := range familyMatrices(rng, rows) {
			cases[fmt.Sprintf("%s/%d", name, rows)] = m
		}
	}
	// Empty rows and columns: only every third row and column is used.
	sparse := matrix.NewCOO(300, 500)
	for i := 0; i < 300; i += 3 {
		for j := i % 7; j < 500; j += 33 {
			sparse.Add(int32(i), int32(j), 1)
		}
	}
	cases["empty-rows-cols"] = sparse.ToCSR()
	// Fewer rows than K: 1x1-element tiles along the rows.
	cases["rows-below-K"] = gen.Uniform(rng, 40, 5)

	for name, m := range cases {
		for _, cfg := range []Config{DefaultConfig(), {K: 16}, PaperConfig()} {
			got, want := Extract(m, cfg), referenceExtract(m, cfg)
			if len(got.Values) != len(want.Values) || len(got.Names) != len(want.Names) {
				t.Fatalf("%s K=%d: %d/%d values/names, reference %d/%d",
					name, cfg.K, len(got.Values), len(got.Names), len(want.Values), len(want.Names))
			}
			for i := range want.Values {
				if got.Names[i] != want.Names[i] {
					t.Fatalf("%s K=%d: feature %d named %q, reference %q", name, cfg.K, i, got.Names[i], want.Names[i])
				}
				if math.Float64bits(got.Values[i]) != math.Float64bits(want.Values[i]) {
					t.Errorf("%s K=%d: %s = %v, reference %v", name, cfg.K, want.Names[i], got.Values[i], want.Values[i])
				}
			}
		}
	}
}

// TestExtractAllocs bounds Extract's heap allocations: a fixed number of
// count arrays and summary copies, independent of nnz.
func TestExtractAllocs(t *testing.T) {
	m := gen.RMATRows(rand.New(rand.NewSource(15)), 1<<12, 8, gen.MedSkew)
	allocs := testing.AllocsPerRun(10, func() { Extract(m, DefaultConfig()) })
	if allocs > 30 {
		t.Fatalf("Extract: %.0f allocs/op, want <= 30", allocs)
	}
}

// TestExtractNamesAreCopies pins that each result owns its Names: editing
// one vector's names must not rename features in the next.
func TestExtractNamesAreCopies(t *testing.T) {
	m := matrix.Fig1Example()
	a := Extract(m, DefaultConfig())
	a.Names[0] = "clobbered"
	if b := Extract(m, DefaultConfig()); b.Names[0] != "n_rows" {
		t.Fatalf("Names[0] = %q after editing an earlier result", b.Names[0])
	}
}
