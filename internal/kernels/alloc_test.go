package kernels

import (
	"math/rand"
	"testing"

	"wise/internal/gen"
	"wise/internal/machine"
	"wise/internal/matrix"
)

// TestSerialSpMVZeroAllocs pins the steady-state allocation behavior of the
// serial SpMV path of every method the selector can pick — the model space
// plus the SegCSR extension — on a banded matrix and on a low-locality
// R-MAT matrix, whose LAV packs gather x through a column permutation into
// reused scratch. After a warm-up call (which may size per-pack scratch),
// repeated products must not touch the heap. This runtime check is the
// allocation gate for the kernels; no static analyzer repeats it. Subtests
// group the methods by family.
func TestSerialSpMVZeroAllocs(t *testing.T) {
	mach := machine.Scaled()
	methods := append(ModelSpace(mach), ExtensionMethods(mach.LLCDoubles())...)
	// The machine's SegCSR window covers all 256 columns of these matrices
	// in one segment; a 64-column window also walks the multi-segment path.
	methods = append(methods, ExtensionMethods(128)...)
	matrices := []struct {
		name string
		m    *matrix.CSR
	}{
		{"banded", gen.Banded(rand.New(rand.NewSource(7)), 256, []int{-4, -1, 0, 1, 4})},
		{"rmat-lowloc", gen.RMAT(rand.New(rand.NewSource(11)), 8, 8, gen.LowLoc)},
	}

	var kinds []Kind
	byKind := make(map[Kind][]Method)
	for _, method := range methods {
		if _, seen := byKind[method.Kind]; !seen {
			kinds = append(kinds, method.Kind)
		}
		byKind[method.Kind] = append(byKind[method.Kind], method)
	}
	for _, kind := range kinds {
		t.Run(kind.String(), func(t *testing.T) {
			for _, mat := range matrices {
				x := make([]float64, mat.m.Cols)
				for i := range x {
					x[i] = float64(i%13) - 6
				}
				y := make([]float64, mat.m.Rows)
				for _, method := range byKind[kind] {
					f := Build(mat.m, method, 8)
					f.SpMV(y, x) // warm-up: scratch buffers reach steady state
					allocs := testing.AllocsPerRun(100, func() {
						f.SpMV(y, x)
					})
					if allocs != 0 {
						t.Errorf("%s on %s: serial SpMV allocates %.1f objects/op in steady state, want 0", method, mat.name, allocs)
					}
				}
			}
		})
	}
}
