package rgs

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"tcqr/internal/dense"
	"tcqr/internal/hazard"
	"tcqr/internal/matgen"
)

// TestSweepNamesFirstOffender: load sweeps a 4096×128 input in column chunks
// on several workers, and the error still names the first non-finite element
// in column-major order. A NaN at (5,100) and a +Inf at (3,7) sit in chunks
// that different tasks sweep; whichever task finds its offender first, the
// error names A(3,7), from a float32 and from a float64 source, through
// Factor and FactorIn alike.
func TestSweepNamesFirstOffender(t *testing.T) {
	a64 := matgen.Normal(rand.New(rand.NewSource(81)), 4096, 128)
	a64.Set(5, 100, math.NaN())
	a64.Set(3, 7, math.Inf(1))
	work := make([]float32, 4096*128)
	for _, src := range []string{"float32", "float64"} {
		for _, entry := range []string{"Factor", "FactorIn"} {
			var err error
			switch {
			case src == "float32" && entry == "Factor":
				_, err = Factor(dense.ToF32(a64), Options{})
			case src == "float32":
				_, err = FactorIn(work, dense.ToF32(a64), Options{})
			case entry == "Factor":
				_, err = Factor(a64, Options{})
			default:
				_, err = FactorIn(work, a64, Options{})
			}
			var in *InputError
			if !errors.As(err, &in) || !errors.Is(err, hazard.ErrNonFinite) || !strings.Contains(err.Error(), "A(3,7) = +Inf") {
				t.Errorf("%s source, %s: %v, want an *InputError naming A(3,7) = +Inf", src, entry, err)
			}
		}
	}
}

// TestFactorInIgnoresWorkspaceContents: FactorIn overwrites its workspace
// unread, so a workspace full of NaN gives Factor's bits, and the Q it
// returns is that workspace. One too short is passed over for a new buffer.
func TestFactorInIgnoresWorkspaceContents(t *testing.T) {
	const m, n = 2048, 96
	a := matgen.BadlyScaled(rand.New(rand.NewSource(82)), m, n, 3)
	want, err := Factor(a, Options{ReOrthogonalize: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{m*n + 5, m*n - 1} {
		work := make([]float32, size)
		for i := range work {
			work[i] = float32(math.NaN())
		}
		got, err := FactorIn(work, a, Options{ReOrthogonalize: true})
		if err != nil {
			t.Fatal(err)
		}
		if bitsHash(got.Q.Data) != bitsHash(want.Q.Data) || bitsHash(got.R.Data) != bitsHash(want.R.Data) ||
			bitsHash(got.ColumnScales) != bitsHash(want.ColumnScales) {
			t.Errorf("workspace of %d elements: FactorIn's bits differ from Factor's", size)
		}
		if shares := &got.Q.Data[0] == &work[0]; shares != (size >= m*n) {
			t.Errorf("workspace of %d elements: Q shares it = %v", size, shares)
		}
	}
}

// TestFiniteScansEveryColumn: Finite, split into column chunks above
// sweepSplitMin, answers what hazard.MatrixFinite answers, for a NaN or an
// Inf in the first, the last, or a chunk-boundary column, and below the
// split threshold too.
func TestFiniteScansEveryColumn(t *testing.T) {
	for _, sh := range []struct{ m, n int }{{4096, 128}, {4096, 13}, {64, 8}} {
		q := dense.ToF32(matgen.Normal(rand.New(rand.NewSource(83)), sh.m, sh.n))
		if !Finite(q) {
			t.Fatalf("%dx%d: a finite matrix reads non-finite", sh.m, sh.n)
		}
		for _, j := range []int{0, 1, sh.n / 2, sh.n - 1} {
			for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(-1))} {
				i := (j * 37) % sh.m
				keep := q.At(i, j)
				q.Set(i, j, bad)
				if Finite(q) || hazard.MatrixFinite(q) {
					t.Errorf("%dx%d: %v at (%d,%d) not found", sh.m, sh.n, bad, i, j)
				}
				q.Set(i, j, keep)
			}
		}
	}
}
