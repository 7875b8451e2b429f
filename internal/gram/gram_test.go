package gram

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"tcqr/internal/accuracy"
	"tcqr/internal/dense"
	"tcqr/internal/hazard"
	"tcqr/internal/matgen"
)

func randPanel(seed int64, m, n int) *dense.M32 {
	rng := rand.New(rand.NewSource(seed))
	return dense.ToF32(matgen.Normal(rng, m, n))
}

func mustFactor(t *testing.T, p Panel, a *dense.M32) (q, r *dense.M32) {
	t.Helper()
	q, r, err := p.Factor(a)
	if err != nil {
		t.Fatalf("%s: %v", p.Name(), err)
	}
	return q, r
}

func checkQR(t *testing.T, name string, a, q, r *dense.M32, beTol, oeTol float64) {
	t.Helper()
	if q.Rows != a.Rows || q.Cols != a.Cols {
		t.Fatalf("%s: Q shape %dx%d", name, q.Rows, q.Cols)
	}
	if r.Rows != a.Cols || r.Cols != a.Cols {
		t.Fatalf("%s: R shape %dx%d", name, r.Rows, r.Cols)
	}
	if !accuracy.UpperTriangular(r) {
		t.Errorf("%s: R not upper triangular", name)
	}
	if be := accuracy.BackwardError(a, q, r); be > beTol {
		t.Errorf("%s: backward error %g > %g", name, be, beTol)
	}
	if oe := accuracy.OrthoError(q); oe > oeTol {
		t.Errorf("%s: orthogonality error %g > %g", name, oe, oeTol)
	}
}

func TestMGSWellConditioned(t *testing.T) {
	a := randPanel(1, 200, 32)
	q := a.Clone()
	r := dense.New[float32](32, 32)
	MGS(q, r)
	checkQR(t, "mgs", a, q, r, 1e-5, 1e-4)
	// MGS produces non-negative diagonal.
	for i := 0; i < 32; i++ {
		if r.At(i, i) < 0 {
			t.Errorf("R(%d,%d) = %v < 0", i, i, r.At(i, i))
		}
	}
}

func TestCGSWellConditioned(t *testing.T) {
	a := randPanel(2, 200, 32)
	q := a.Clone()
	r := dense.New[float32](32, 32)
	CGS(q, r)
	checkQR(t, "cgs", a, q, r, 1e-5, 1e-4)
}

func TestMGSBeatsCGSOnIllConditioned(t *testing.T) {
	// §3.6: CGS orthogonality degrades like κ², MGS like κ. At κ = 10⁴ in
	// float32 the gap is large and reliable.
	rng := rand.New(rand.NewSource(3))
	a := dense.ToF32(matgen.WithCond(rng, 300, 24, 1e4, matgen.Geometric))

	qm := a.Clone()
	rm := dense.New[float32](24, 24)
	MGS(qm, rm)
	qc := a.Clone()
	rc := dense.New[float32](24, 24)
	CGS(qc, rc)

	oeM := accuracy.OrthoError(qm)
	oeC := accuracy.OrthoError(qc)
	if oeC < 10*oeM {
		t.Errorf("CGS (%g) should lose much more orthogonality than MGS (%g)", oeC, oeM)
	}
	// Backward error stays small for both regardless of conditioning.
	if be := accuracy.BackwardError(a, qm, rm); be > 1e-5 {
		t.Errorf("MGS backward error %g", be)
	}
	if be := accuracy.BackwardError(a, qc, rc); be > 1e-5 {
		t.Errorf("CGS backward error %g", be)
	}
}

// TestGramSchmidtAllocationsIndependentOfWidth: MGS and CGS allocate per
// call, not per column (each column's trail or head was a heap-allocated
// view), so a 256×32 tile, the CAQR tile, costs what a 256×8 one does.
func TestGramSchmidtAllocationsIndependentOfWidth(t *testing.T) {
	for name, gs := range map[string]func(a, r *dense.M32){"MGS": MGS[float32], "CGS": CGS[float32]} {
		allocs := map[int]float64{}
		for _, n := range []int{8, 32} {
			a, r := randPanel(5, 256, n), dense.New[float32](n, n)
			allocs[n] = testing.AllocsPerRun(10, func() { gs(a, r) })
		}
		if allocs[8] != allocs[32] {
			t.Errorf("%s allocates %v times on a 256×8 tile and %v on a 256×32 one", name, allocs[8], allocs[32])
		}
	}
}

func TestMGSZeroColumn(t *testing.T) {
	a := randPanel(4, 50, 4)
	for i := 0; i < 50; i++ {
		a.Set(i, 2, 0)
	}
	// Make column 3 equal to column 0 after projection? Just check the zero
	// column path: R(2,2) = 0, Q(:,2) = 0, no NaNs.
	q := a.Clone()
	r := dense.New[float32](4, 4)
	MGS(q, r)
	if r.At(2, 2) != 0 {
		t.Errorf("R(2,2) = %v", r.At(2, 2))
	}
	if q.HasNaN() {
		t.Error("MGS produced NaN on zero column")
	}
}

func TestCAQRPanelTileWidth(t *testing.T) {
	// Width exactly TileCols with several full tiles plus a remainder that
	// must be folded into the last tile.
	p := &CAQRPanel{}
	a := randPanel(5, 4*TileRows+57, TileCols)
	q, r := mustFactor(t, p, a)
	checkQR(t, "caqr-32", a, q, r, 1e-5, 1e-4)
}

func TestCAQRPanelWide(t *testing.T) {
	// Width 128 exercises the split recursion above the tile tree.
	p := &CAQRPanel{}
	a := randPanel(6, 3*TileRows, 128)
	q, r := mustFactor(t, p, a)
	checkQR(t, "caqr-128", a, q, r, 1e-5, 2e-4)
}

func TestCAQRPanelSingleTile(t *testing.T) {
	// m below one tile: base case must be a single MGS.
	p := &CAQRPanel{}
	a := randPanel(7, 100, 32)
	q, r := mustFactor(t, p, a)
	checkQR(t, "caqr-small", a, q, r, 1e-5, 1e-4)
}

func TestCAQRDeepTree(t *testing.T) {
	// Small RowBlock forces several tree levels: with RowBlock 64 and width
	// 32, each level reduces rows by 2.
	p := &CAQRPanel{RowBlock: 64}
	a := randPanel(8, 2048, 32)
	q, r := mustFactor(t, p, a)
	checkQR(t, "caqr-deep", a, q, r, 1e-5, 2e-4)
}

func TestCAQRInputNotModified(t *testing.T) {
	a := randPanel(9, 600, 32)
	orig := a.Clone()
	(&CAQRPanel{}).Factor(a)
	if !dense.Equal(a, orig) {
		t.Error("CAQR panel modified its input")
	}
}

func TestHouseholderPanel(t *testing.T) {
	p := &HouseholderPanel{}
	if p.Name() != "SGEQRF" {
		t.Errorf("name %q", p.Name())
	}
	a := randPanel(11, 500, 64)
	q, r := mustFactor(t, p, a)
	checkQR(t, "sgeqrf-panel", a, q, r, 1e-5, 1e-4)
}

func TestPanelImplementationsAgree(t *testing.T) {
	// All panels factor the same matrix; QR is unique up to column signs of
	// Q / row signs of R, so compare |R|.
	a := randPanel(12, 400, 32)
	_, rRef := mustFactor(t, &CAQRPanel{}, a)
	rs := map[string]*dense.M32{"CGS": dense.New[float32](32, 32)}
	CGS(a.Clone(), rs["CGS"])
	for _, p := range []Panel{&HouseholderPanel{}, MGSPanel{}} {
		_, rs[p.Name()] = mustFactor(t, p, a)
	}
	for name, r := range rs {
		for j := 0; j < 32; j++ {
			for i := 0; i <= j; i++ {
				got := math.Abs(float64(r.At(i, j)))
				want := math.Abs(float64(rRef.At(i, j)))
				if math.Abs(got-want) > 1e-3*(1+want) {
					t.Fatalf("%s: |R(%d,%d)| = %g, CAQR has %g", name, i, j, got, want)
				}
			}
		}
	}
}

func TestCholQRWellConditioned(t *testing.T) {
	a := randPanel(20, 300, 32)
	q, r, err := CholQR(a)
	if err != nil {
		t.Fatal(err)
	}
	checkQR(t, "cholqr", a, q, r, 1e-5, 1e-3)
}

func TestCholQROrthogonalityDegradesAsKappaSquared(t *testing.T) {
	// Related work [28]: CholQR orthogonality ∝ κ²; MGS only ∝ κ. At
	// κ = 10² the gap is already pronounced in float32, and at κ ≈ 10⁴
	// CholQR breaks down entirely (κ² ≈ 1/ε₃₂).
	rng := rand.New(rand.NewSource(21))
	a := dense.ToF32(matgen.WithCond(rng, 400, 24, 1e2, matgen.Geometric))
	qc, _, err := CholQR(a)
	if err != nil {
		t.Fatal(err)
	}
	qm := a.Clone()
	rm := dense.New[float32](24, 24)
	MGS(qm, rm)
	oeC := accuracy.OrthoError(qc)
	oeM := accuracy.OrthoError(qm)
	if oeC < 10*oeM {
		t.Errorf("CholQR (%g) should lose far more orthogonality than MGS (%g)", oeC, oeM)
	}

	// Breakdown at large κ.
	hard := dense.ToF32(matgen.WithCond(rng, 400, 24, 3e4, matgen.Geometric))
	if _, _, err := CholQR(hard); err == nil {
		t.Error("CholQR should break down at κ=3e4 in float32")
	}

	// CholQR2 restores orthogonality where the first pass survives.
	q2, r2, err := CholQR2(a)
	if err != nil {
		t.Fatal(err)
	}
	if oe2 := accuracy.OrthoError(q2); oe2 > oeC/10 {
		t.Errorf("CholQR2 (%g) should fix CholQR (%g)", oe2, oeC)
	}
	if be := accuracy.BackwardError(a, q2, r2); be > 1e-4 {
		t.Errorf("CholQR2 backward error %g", be)
	}
}

func TestCholQRPanelInterface(t *testing.T) {
	p := CholQRPanel{}
	if p.Name() != "CholQR" {
		t.Error("name")
	}
	a := randPanel(22, 256, 16)
	q, r := mustFactor(t, p, a)
	checkQR(t, "cholqr-panel", a, q, r, 1e-5, 1e-3)
	// Wide input rejected via error.
	if _, _, err := CholQR(dense.New[float32](2, 4)); err == nil {
		t.Error("wide input must error")
	}
}

// TestCholQREngineAblation: whatever engine runs the factorization's update,
// the CholQR panel forms its Gram matrix with the fp32 Syrk — its factors
// equal CholQR's, at fp32-grade backward error — and a rank-deficient panel
// surfaces the typed breakdown the Factorize ladder retries on.
func TestCholQREngineAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := dense.ToF32(matgen.WithCond(rng, 384, 24, 50, matgen.Geometric))
	q, r, err := CholQRPanel{}.Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	qRef, rRef, err := CholQR(a)
	if err != nil {
		t.Fatal(err)
	}
	if !dense.Equal(q, qRef) || !dense.Equal(r, rRef) {
		t.Error("CholQR panel factors differ from CholQR's")
	}
	if be := accuracy.BackwardError(a, q, r); be > 1e-5 {
		t.Errorf("CholQR panel backward error %g", be)
	}
	def := dense.ToF32(matgen.RankDeficient(rng, 128, 16, 8))
	if _, _, err := (CholQRPanel{}).Factor(def); !errors.Is(err, hazard.ErrBreakdown) {
		t.Fatalf("rank-deficient CholQR should break down, got %v", err)
	}
}
