package rgs

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"tcqr/internal/accuracy"
	"tcqr/internal/blas"
	"tcqr/internal/dense"
	"tcqr/internal/f16"
	"tcqr/internal/gram"
	"tcqr/internal/hazard"
	"tcqr/internal/matgen"
	"tcqr/internal/tcsim"
)

func condMat(seed int64, m, n int, cond float64, dist matgen.Dist) *dense.M32 {
	rng := rand.New(rand.NewSource(seed))
	return dense.ToF32(matgen.WithCond(rng, m, n, cond, dist))
}

func TestFactorBasicShapes(t *testing.T) {
	a := condMat(1, 600, 256, 10, matgen.Arithmetic)
	res, err := Factor(a, Options{Cutoff: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.Q.Rows != 600 || res.Q.Cols != 256 || res.R.Rows != 256 || res.R.Cols != 256 {
		t.Fatalf("shapes Q %dx%d R %dx%d", res.Q.Rows, res.Q.Cols, res.R.Rows, res.R.Cols)
	}
	if !accuracy.UpperTriangular(res.R) {
		t.Error("R not upper triangular")
	}
	if be := accuracy.BackwardError(a, res.Q, res.R); be > 5e-3 {
		t.Errorf("backward error %g", be)
	}
}

func TestFactorRejectsWide(t *testing.T) {
	if _, err := Factor(dense.New[float32](3, 5), Options{}); err == nil {
		t.Fatal("wide matrix must be rejected")
	}
}

func TestFactorEmpty(t *testing.T) {
	res, err := Factor(dense.New[float32](4, 0), Options{})
	if err != nil || res.Q.Cols != 0 {
		t.Fatalf("empty factorization: %v %+v", err, res)
	}
}

func TestInputNotModified(t *testing.T) {
	a := condMat(2, 300, 128, 100, matgen.Geometric)
	orig := a.Clone()
	if _, err := Factor(a, Options{Cutoff: 32}); err != nil {
		t.Fatal(err)
	}
	if !dense.Equal(a, orig) {
		t.Error("Factor modified its input")
	}
}

// TestBackwardErrorFlatInCond reproduces the Figure 3 claim at test scale:
// the backward error of RGSQRF sits at the half-precision level and does
// not grow with the condition number.
func TestBackwardErrorFlatInCond(t *testing.T) {
	var prev float64
	for i, cond := range []float64{1e1, 1e3, 1e5, 1e7} {
		a := condMat(3, 512, 128, cond, matgen.Arithmetic)
		res, err := Factor(a, Options{Cutoff: 32})
		if err != nil {
			t.Fatal(err)
		}
		be := accuracy.BackwardError(a, res.Q, res.R)
		if be > 50*f16.Eps {
			t.Errorf("cond=%g: backward error %g above half-precision level", cond, be)
		}
		if i > 0 && be > 100*prev {
			t.Errorf("backward error grew with cond: %g -> %g", prev, be)
		}
		prev = be
	}
}

// TestOrthogonalityDegradesAndReorthoRestores reproduces the Figure 4
// claims: RGSQRF orthogonality deteriorates roughly linearly in κ(A), and
// one re-orthogonalization pass restores it to working precision.
func TestOrthogonalityDegradesAndReorthoRestores(t *testing.T) {
	oeAt := func(cond float64, reortho bool) float64 {
		a := condMat(4, 512, 128, cond, matgen.Arithmetic)
		res, err := Factor(a, Options{Cutoff: 32, ReOrthogonalize: reortho})
		if err != nil {
			t.Fatal(err)
		}
		if reortho && !res.Reorthogonalized {
			t.Fatal("reortho flag not set")
		}
		return accuracy.OrthoError(res.Q)
	}
	oeLow := oeAt(1e1, false)
	oeHigh := oeAt(1e5, false)
	if oeHigh < 20*oeLow {
		t.Errorf("orthogonality should degrade with cond: κ=10: %g, κ=1e5: %g", oeLow, oeHigh)
	}
	oeFixed := oeAt(1e5, true)
	if oeFixed > oeHigh/20 {
		t.Errorf("re-orthogonalization barely helped: %g -> %g", oeHigh, oeFixed)
	}
	if oeFixed > 0.05 {
		t.Errorf("re-orthogonalized Q still far from orthogonal: %g", oeFixed)
	}
}

// TestEngineAblation reproduces the Figure 7 accuracy ordering: the FP32
// engine is strictly more accurate than the TensorCore engine.
func TestEngineAblation(t *testing.T) {
	a := condMat(5, 512, 128, 1e2, matgen.Geometric)
	tc, err := Factor(a, Options{Cutoff: 32, Engine: &tcsim.TensorCore{}})
	if err != nil {
		t.Fatal(err)
	}
	fp, err := Factor(a, Options{Cutoff: 32, Engine: &tcsim.FP32{}})
	if err != nil {
		t.Fatal(err)
	}
	beTC := accuracy.BackwardError(a, tc.Q, tc.R)
	beFP := accuracy.BackwardError(a, fp.Q, fp.R)
	if beTC < 10*beFP {
		t.Errorf("TC backward error %g should be ≫ FP32's %g", beTC, beFP)
	}
	if beFP > 1e-5 {
		t.Errorf("FP32 backward error %g too large", beFP)
	}
}

// TestColumnScalingPreventsOverflow reproduces the Section 3.5 safeguard: a
// badly scaled matrix overflows fp16 (poisoning the result with Inf/NaN)
// without scaling, and factors cleanly with it.
func TestColumnScalingPreventsOverflow(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a64 := matgen.BadlyScaled(rng, 512, 128, 7) // columns up to ~1e7: overflows fp16
	a := dense.ToF32(a64)

	engine := &tcsim.TensorCore{TrackSpecials: true}
	res, err := Factor(a, Options{Cutoff: 32, Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	if engine.Stats().Overflows != 0 {
		t.Errorf("scaling enabled but %d operands overflowed", engine.Stats().Overflows)
	}
	if res.Q.HasNaN() || res.R.HasNaN() {
		t.Error("scaled factorization contains NaN/Inf")
	}
	if be := accuracy.BackwardError(a, res.Q, res.R); be > 1e-2 {
		t.Errorf("scaled backward error %g", be)
	}
	if res.ColumnScales == nil {
		t.Error("ColumnScales not reported")
	}

	// Without scaling the fp16 operands overflow, poison the trailing
	// panels, and the breakdown is now detected instead of returning NaN.
	engine2 := &tcsim.TensorCore{TrackSpecials: true}
	_, err = Factor(a, Options{Cutoff: 32, Engine: engine2, DisableScaling: true})
	if !errors.Is(err, hazard.ErrBreakdown) {
		t.Errorf("unscaled overflow: got %v, want an error wrapping hazard.ErrBreakdown", err)
	}
	if engine2.Stats().Overflows == 0 {
		t.Error("expected fp16 overflows without scaling")
	}
}

// TestScalingLeavesQUnchanged verifies the mathematical property scaling
// relies on: column scaling changes R but not Q (up to fp32 roundoff from
// the exact power-of-two scaling).
func TestScalingLeavesQUnchanged(t *testing.T) {
	a := condMat(7, 384, 96, 10, matgen.Arithmetic)
	// Mild, well-in-range scaling so both runs stay finite.
	for j := 0; j < a.Cols; j++ {
		s := float32(math.Exp2(float64(j%5 - 2)))
		for i := 0; i < a.Rows; i++ {
			a.Set(i, j, a.At(i, j)*s)
		}
	}
	fp := &tcsim.FP32{}
	with, err := Factor(a, Options{Cutoff: 32, Engine: fp})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Factor(a, Options{Cutoff: 32, Engine: fp, DisableScaling: true})
	if err != nil {
		t.Fatal(err)
	}
	var maxQ float64
	for i := range with.Q.Data {
		d := math.Abs(float64(with.Q.Data[i] - without.Q.Data[i]))
		if d > maxQ {
			maxQ = d
		}
	}
	// Power-of-two scaling is exact, so even the floating point trajectory
	// matches up to tiny reassociation effects in norms.
	if maxQ > 1e-5 {
		t.Errorf("Q changed by %g under column scaling", maxQ)
	}
	// R must match too (scaling is undone exactly).
	var maxR float64
	for i := range with.R.Data {
		d := math.Abs(float64(with.R.Data[i] - without.R.Data[i]))
		if d > maxR {
			maxR = d
		}
	}
	if maxR > 1e-3 {
		t.Errorf("R changed by %g after unscaling", maxR)
	}
}

func TestPanelAblation(t *testing.T) {
	// CAQR vs Householder panel: both must deliver a valid factorization
	// through the full recursion.
	a := condMat(8, 700, 192, 50, matgen.Geometric)
	for _, p := range []gram.Panel{&gram.CAQRPanel{}, &gram.HouseholderPanel{}} {
		res, err := Factor(a, Options{Cutoff: 48, Panel: p})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if be := accuracy.BackwardError(a, res.Q, res.R); be > 5e-3 {
			t.Errorf("%s panel: backward error %g", p.Name(), be)
		}
	}
}

func TestFlopCount(t *testing.T) {
	// For n == cutoff the count is the panel's 2mn².
	if got, want := FlopCount(100, 16, 16), int64(2*100*16*16); got != want {
		t.Errorf("panel flops %d, want %d", got, want)
	}
	// For n ≫ cutoff the total approaches 2mn² (recurrence (5)).
	m, n := 4096, 1024
	got := FlopCount(m, n, 128)
	want := 2 * int64(m) * int64(n) * int64(n)
	ratio := float64(got) / float64(want)
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("flop ratio %g, want ~1 (got %d, 2mn² = %d)", ratio, got, want)
	}
	// Odd sizes must not lose flops to integer division.
	if FlopCount(511, 333, 100) <= 0 {
		t.Error("odd-size flop count non-positive")
	}
}

func TestNonPowerOfTwoSizes(t *testing.T) {
	a := condMat(9, 517, 133, 10, matgen.Arithmetic)
	res, err := Factor(a, Options{Cutoff: 32})
	if err != nil {
		t.Fatal(err)
	}
	if be := accuracy.BackwardError(a, res.Q, res.R); be > 5e-3 {
		t.Errorf("odd sizes backward error %g", be)
	}
	if !accuracy.UpperTriangular(res.R) {
		t.Error("R not triangular for odd sizes")
	}
}

func TestHazardsReturnTypedErrors(t *testing.T) {
	// A NaN input is rejected up front with ErrNonFinite instead of
	// poisoning the factors.
	a := condMat(30, 256, 64, 10, matgen.Arithmetic)
	a.Set(5, 3, float32(math.NaN()))
	if _, err := Factor(a, Options{Cutoff: 16}); !errors.Is(err, hazard.ErrNonFinite) {
		t.Errorf("NaN input: got %v, want an error wrapping hazard.ErrNonFinite", err)
	}
	// A zero matrix makes every Gram-Schmidt panel break down (every column
	// is dependent): typed breakdown instead of a silent zero Q.
	z := dense.New[float32](64, 16)
	if _, err := Factor(z, Options{Cutoff: 8}); !errors.Is(err, hazard.ErrBreakdown) {
		t.Errorf("zero matrix: got %v, want an error wrapping hazard.ErrBreakdown", err)
	}
	// The Householder panel, the last panel rung of the Factorize ladder,
	// factors the same input: it has no Gram-Schmidt breakdown mode.
	res, err := Factor(z, Options{Cutoff: 8, Panel: &gram.HouseholderPanel{}})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.R.Data {
		if v != 0 {
			t.Fatal("zero matrix should give zero R")
		}
	}
	if res.Q.HasNaN() {
		t.Error("recovered Q contains NaN")
	}
}

// scaleColumns is the scaling step of Factor's sweep on every column of w,
// in place, returning the scales.
func scaleColumns(w *dense.M32) []float32 {
	scales := make([]float32, w.Cols)
	for j := range scales {
		col := w.Col(j)
		if scales[j] = columnScale(col); scales[j] != 1 {
			blas.ScalTo(scales[j], col, col)
		}
	}
	return scales
}

// oldScaleColumns is scaleColumns as it stood when |v| was a sign test, kept
// as the oracle for the branch-free scan.
func oldScaleColumns(w *dense.M32) []float32 {
	scales := make([]float32, w.Cols)
	for j := range scales {
		scales[j] = 1
		col := w.Col(j)
		var mx float32
		for _, v := range col {
			a := v
			if a < 0 {
				a = -a
			}
			if a > mx {
				mx = a
			}
		}
		if mx == 0 || math.IsInf(float64(mx), 0) || math.IsNaN(float64(mx)) {
			continue
		}
		e := math.Floor(math.Log2(float64(mx)))
		s := float32(math.Exp2(-e))
		if s != 1 {
			blas.Scal(s, col)
			scales[j] = s
		}
	}
	return scales
}

// TestScaleColumnsBitIdentical: the same scales and the same scaled bits as
// the branching scan, on columns that are all negative, zero, subnormal,
// huge, or hold a NaN or an Inf anywhere (which the scan must skip over or
// stop on exactly as before).
func TestScaleColumnsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	specials := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.NaN()), math.SmallestNonzeroFloat32, -math.MaxFloat32, 65504, -1, 1}
	for trial := 0; trial < 300; trial++ {
		m, n := 1+rng.Intn(37), 1+rng.Intn(9)
		w := dense.New[float32](m, n)
		for j := 0; j < n; j++ {
			scale := math.Ldexp(1, rng.Intn(60)-30)
			for i, col := 0, w.Col(j); i < m; i++ {
				col[i] = float32(rng.NormFloat64() * scale)
				if j%4 == 1 {
					col[i] = -float32(math.Abs(float64(col[i])))
				}
				if j%4 == 2 && rng.Intn(4) == 0 {
					col[i] = specials[rng.Intn(len(specials))]
				}
			}
		}
		want := w.Clone()
		gotScales, wantScales := scaleColumns(w), oldScaleColumns(want)
		for j := range wantScales {
			if math.Float32bits(gotScales[j]) != math.Float32bits(wantScales[j]) {
				t.Fatalf("trial %d column %d: scale %g, branching scan %g", trial, j, gotScales[j], wantScales[j])
			}
		}
		for i := range want.Data {
			if math.Float32bits(w.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("trial %d element %d: %x, branching scan %x", trial, i, math.Float32bits(w.Data[i]), math.Float32bits(want.Data[i]))
			}
		}
	}
}

// TestScaleColumnsClampsTinyColumns: below 2⁻¹²⁷ the power of two that lifts
// a column's max into [1, 2) is past the float32 range, so the scale stops at
// 2¹²⁷ and the scaled column stays finite; a column at exactly 2⁻¹²⁷ reaches
// 1 as before.
func TestScaleColumnsClampsTinyColumns(t *testing.T) {
	w := dense.New[float32](2, 3)
	copy(w.Col(0), []float32{1e-40, -3e-41})
	copy(w.Col(1), []float32{0x1p-127, 0})
	copy(w.Col(2), []float32{0, -math.SmallestNonzeroFloat32})
	scales := scaleColumns(w)
	for j, s := range scales {
		if s != 0x1p127 {
			t.Errorf("column %d: scale %g, want 2^127", j, s)
		}
	}
	if !hazard.MatrixFinite(w) {
		t.Fatalf("scaled columns are not finite: %v", w.Data)
	}
	if got := w.At(0, 1); got != 1 {
		t.Errorf("column at 2^-127 scaled to %g, want 1", got)
	}
}

// TestFactorFloat64SourceMatchesNarrowing: Factor narrows a float64 input in
// its own sweep, and must return what it returns for the float32 narrowing —
// the same bits, or the same error. The columns sit where narrowing rounds:
// the float32 subnormals that scaling then lifts (multiplying before
// narrowing would round them differently), the top of the float32 range,
// columns that narrow to zero (a breakdown, but for the Householder panel),
// and past the range, where the narrowing is ±Inf and the error names that
// element.
func TestFactorFloat64SourceMatchesNarrowing(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	const m, n = 300, 40
	mags := []float64{1e-40, 3e-44, 1, 5e37, 1e-46, 1e-300} // the last two narrow to zero
	for trial := 0; trial < 12; trial++ {
		a := matgen.Normal(rng, m, n)
		for j := 0; j < n; j++ {
			s := mags[(j+trial)%(len(mags)-2*(trial%2))]
			for i := range a.Col(j) {
				a.Col(j)[i] *= s
			}
		}
		if trial%4 == 3 {
			a.Set(rng.Intn(m), 1+rng.Intn(n-1), -1e39)
		}
		for _, opts := range []Options{{Cutoff: 16}, {Cutoff: 16, DisableScaling: true}, {Cutoff: 16, Panel: &gram.HouseholderPanel{}}} {
			got, gotErr := Factor(a, opts)
			want, wantErr := Factor(dense.ToF32(a), opts)
			switch {
			case (gotErr == nil) != (wantErr == nil):
				t.Fatalf("trial %d %+v: float64 source %v, float32 narrowing %v", trial, opts, gotErr, wantErr)
			case gotErr != nil:
				if gotErr.Error() != wantErr.Error() {
					t.Errorf("trial %d %+v: float64 source %q, float32 narrowing %q", trial, opts, gotErr, wantErr)
				}
			case bitsHash(got.Q.Data) != bitsHash(want.Q.Data) || bitsHash(got.R.Data) != bitsHash(want.R.Data) ||
				bitsHash(got.ColumnScales) != bitsHash(want.ColumnScales):
				t.Errorf("trial %d %+v: the float64 source factors to other bits than its narrowing", trial, opts)
			}
		}
	}
	a := matgen.Normal(rng, m, n)
	a.Set(7, 3, 1e39)
	_, err := Factor(a, Options{})
	var in *InputError
	if !errors.As(err, &in) || !errors.Is(err, hazard.ErrNonFinite) || !strings.Contains(err.Error(), "A(7,3) = +Inf") {
		t.Errorf("1e39 at (7,3): %v, want an *InputError naming A(7,3) = +Inf", err)
	}
}
