package bench

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"wise/internal/gen"
	"wise/internal/matrix"
)

// MatrixKind names a deterministic corpus-matrix builder. The kinds mirror
// the generator families of internal/gen that span the paper's corpus:
// skewed and local RMAT, road-like RGG, and the science-like stand-ins.
type MatrixKind string

// Matrix kinds available to presets.
const (
	KindRMATMed   MatrixKind = "rmat-ms"   // RMAT medium skew, hub-capped
	KindRMATHigh  MatrixKind = "rmat-hs"   // RMAT high skew (Graph500-like)
	KindRGG       MatrixKind = "rgg"       // random geometric graph
	KindStencil2D MatrixKind = "stencil2d" // 5/9-point grid
	KindBanded    MatrixKind = "banded"    // diagonal band
	KindPowerLaw  MatrixKind = "powerlaw"  // heavy-tailed row degrees
)

// MatrixSpec is one deterministic corpus entry: kind, size, and average
// degree fully determine the matrix given the preset seed, so two runs of
// the same preset measure byte-identical inputs.
type MatrixSpec struct {
	Name   string     `json:"name"`
	Kind   MatrixKind `json:"kind"`
	Rows   int        `json:"rows"`
	Degree float64    `json:"degree"`
}

// Build generates the matrix. Each spec draws from its own seeded source
// (seed + a stable per-spec offset), so reordering or subsetting a preset's
// matrix list never changes the matrices themselves.
func (ms MatrixSpec) Build(seed int64) *matrix.CSR {
	rng := rand.New(rand.NewSource(seed + int64(specOffset(ms.Name))))
	switch ms.Kind {
	case KindRMATMed, KindRMATHigh:
		params := gen.MedSkew
		if ms.Kind == KindRMATHigh {
			params = gen.HighSkew
		}
		m := gen.RMATRows(rng, ms.Rows, ms.Degree, params)
		capDeg := m.NNZ() / 500
		if capDeg < 32 {
			capDeg = 32
		}
		return gen.CapRowDegree(rng, m, capDeg)
	case KindRGG:
		return gen.RGG(rng, ms.Rows, ms.Degree)
	case KindStencil2D:
		g := int(math.Sqrt(float64(ms.Rows)))
		return gen.Stencil2D(g, g, true)
	case KindBanded:
		w := int(ms.Degree / 2)
		if w < 1 {
			w = 1
		}
		offsets := make([]int, 0, 2*w+1)
		for o := -w; o <= w; o++ {
			offsets = append(offsets, o)
		}
		return gen.Banded(rng, ms.Rows, offsets)
	case KindPowerLaw:
		return gen.PowerLawRows(rng, ms.Rows, 2.1, 256)
	default:
		panic(fmt.Sprintf("bench: unknown matrix kind %q", ms.Kind))
	}
}

// specOffset derives a stable per-spec seed offset from the spec name, so
// matrix identity depends on the name, not the list position.
func specOffset(name string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return h % 1_000_003
}

// Preset is one suite size: a fixed matrix corpus plus measurement budgets.
// Everything that determines the benchmark list lives here; nothing in a
// preset depends on measured time.
type Preset struct {
	Name        string
	Description string
	Seed        int64         // corpus seed (overridable with -seed)
	Warmup      int           // untimed runs per benchmark
	MinRuns     int           // timed runs taken regardless of budget
	MaxRuns     int           // repetition cap
	MaxTime     time.Duration // per-benchmark time budget
	Matrices    []MatrixSpec
	Expected    string // human estimate of a full run, for -list
}

// Opts returns the measurement options for ordinary (per-op) benchmarks.
func (p Preset) Opts() Options {
	return Options{Warmup: p.Warmup, MinRuns: p.MinRuns, MaxRuns: p.MaxRuns, MaxTime: p.MaxTime}
}

// HeavyOpts returns the options for one-shot pipeline stages (corpus
// generation, full-space labeling, training): no warmup, a single mandatory
// run, and the same time budget deciding whether more repetitions fit.
func (p Preset) HeavyOpts() Options {
	return Options{Warmup: 0, MinRuns: 1, MaxRuns: p.MaxRuns, MaxTime: p.MaxTime}
}

// BenchmarkCount predicts the number of results a suite run emits — used by
// -list and pinned to the real suite by test, so the two can never drift.
func (p Preset) BenchmarkCount() int {
	perMatrix := 2*len(suiteMethods()) + len(convertMethods()) + 5 // kernels serial+parallel, conversions, features+predict+serve+session cold/warm
	return len(p.Matrices)*perMatrix + len(pipelineStages)
}

// Presets returns the suite sizes, smallest first. S is the CI smoke preset
// check.sh runs on every gate; paper approximates the paper's matrix scales
// (within this reproduction's scaled machine model).
func Presets() []Preset {
	return []Preset{
		{
			Name:        "S",
			Description: "CI smoke: four small matrices, seconds per run",
			Seed:        1,
			Warmup:      1,
			MinRuns:     3,
			MaxRuns:     100,
			MaxTime:     40 * time.Millisecond,
			Matrices: []MatrixSpec{
				{Name: "ms_r11_d8", Kind: KindRMATMed, Rows: 1 << 11, Degree: 8},
				{Name: "rgg_r11_d6", Kind: KindRGG, Rows: 1 << 11, Degree: 6},
				{Name: "stencil_r11", Kind: KindStencil2D, Rows: 1 << 11},
				{Name: "banded_r11_d5", Kind: KindBanded, Rows: 1 << 11, Degree: 5},
			},
			Expected: "~10 s",
		},
		{
			Name:        "M",
			Description: "developer default: six mid-size matrices",
			Seed:        1,
			Warmup:      2,
			MinRuns:     5,
			MaxRuns:     300,
			MaxTime:     150 * time.Millisecond,
			Matrices: []MatrixSpec{
				{Name: "ms_r13_d16", Kind: KindRMATMed, Rows: 1 << 13, Degree: 16},
				{Name: "hs_r13_d16", Kind: KindRMATHigh, Rows: 1 << 13, Degree: 16},
				{Name: "rgg_r13_d8", Kind: KindRGG, Rows: 1 << 13, Degree: 8},
				{Name: "stencil_r13", Kind: KindStencil2D, Rows: 1 << 13},
				{Name: "banded_r13_d9", Kind: KindBanded, Rows: 1 << 13, Degree: 9},
				{Name: "powerlaw_r13", Kind: KindPowerLaw, Rows: 1 << 13},
			},
			Expected: "~1 min",
		},
		{
			Name:        "L",
			Description: "pre-release: eight larger matrices, cache-capacity crossings",
			Seed:        1,
			Warmup:      3,
			MinRuns:     5,
			MaxRuns:     500,
			MaxTime:     400 * time.Millisecond,
			Matrices: []MatrixSpec{
				{Name: "ms_r14_d16", Kind: KindRMATMed, Rows: 1 << 14, Degree: 16},
				{Name: "ms_r15_d8", Kind: KindRMATMed, Rows: 1 << 15, Degree: 8},
				{Name: "hs_r14_d32", Kind: KindRMATHigh, Rows: 1 << 14, Degree: 32},
				{Name: "rgg_r15_d8", Kind: KindRGG, Rows: 1 << 15, Degree: 8},
				{Name: "stencil_r15", Kind: KindStencil2D, Rows: 1 << 15},
				{Name: "banded_r15_d9", Kind: KindBanded, Rows: 1 << 15, Degree: 9},
				{Name: "powerlaw_r15", Kind: KindPowerLaw, Rows: 1 << 15},
				{Name: "ms_r15_d32", Kind: KindRMATMed, Rows: 1 << 15, Degree: 32},
			},
			Expected: "~4 min",
		},
		{
			Name:        "paper",
			Description: "paper-scale (scaled corpus rows 2^16-2^17, degrees to 64)",
			Seed:        1,
			Warmup:      3,
			MinRuns:     5,
			MaxRuns:     500,
			MaxTime:     time.Second,
			Matrices: []MatrixSpec{
				{Name: "ms_r16_d16", Kind: KindRMATMed, Rows: 1 << 16, Degree: 16},
				{Name: "ms_r17_d16", Kind: KindRMATMed, Rows: 1 << 17, Degree: 16},
				{Name: "hs_r16_d64", Kind: KindRMATHigh, Rows: 1 << 16, Degree: 64},
				{Name: "rgg_r17_d8", Kind: KindRGG, Rows: 1 << 17, Degree: 8},
				{Name: "stencil_r17", Kind: KindStencil2D, Rows: 1 << 17},
				{Name: "banded_r17_d9", Kind: KindBanded, Rows: 1 << 17, Degree: 9},
				{Name: "powerlaw_r16", Kind: KindPowerLaw, Rows: 1 << 16},
				{Name: "ms_r17_d64", Kind: KindRMATMed, Rows: 1 << 17, Degree: 64},
			},
			Expected: "~15 min",
		},
	}
}

// LookupPreset finds a preset by name (case-insensitive).
func LookupPreset(name string) (Preset, bool) {
	for _, p := range Presets() {
		if strings.EqualFold(p.Name, name) {
			return p, true
		}
	}
	return Preset{}, false
}

// PresetNames lists the preset names in size order, for error messages.
func PresetNames() []string {
	ps := Presets()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

// ListPresets renders the -list table: name, matrix count, benchmark count,
// per-benchmark budget, and the expected wall-clock of a full run.
func ListPresets() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-7s %9s %11s %10s %10s  %s\n",
		"preset", "matrices", "benchmarks", "budget/bm", "expected", "description")
	for _, p := range Presets() {
		fmt.Fprintf(&b, "%-7s %9d %11d %10s %10s  %s\n",
			p.Name, len(p.Matrices), p.BenchmarkCount(), p.MaxTime, p.Expected, p.Description)
	}
	return b.String()
}

// sortSpecsBySize orders matrix specs smallest-rows-first so the cheapest
// matrices (and their one-shot pipeline stages) run first.
func sortSpecsBySize(specs []MatrixSpec) []MatrixSpec {
	out := make([]MatrixSpec, len(specs))
	copy(out, specs)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Rows < out[j].Rows })
	return out
}
