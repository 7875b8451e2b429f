package tsqr

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"tcqr/internal/accuracy"
	"tcqr/internal/dense"
	"tcqr/internal/faultinject"
	"tcqr/internal/gram"
	"tcqr/internal/hazard"
	"tcqr/internal/matgen"
	"tcqr/internal/rgs"
)

// tol is the acceptance bound for backward error and orthogonality on the
// well-conditioned random inputs in this file — the same 5e-3 bound the
// root-level adversarial battery enforces on the serial CAQR path.
const tol = 5e-3

func randTall(seed int64, m, n int) *dense.M32 {
	rng := rand.New(rand.NewSource(seed))
	return dense.ToF32(matgen.Normal(rng, m, n))
}

func checkFactors(t *testing.T, a *dense.M32, res *Result) {
	t.Helper()
	if be := accuracy.BackwardError(a, res.Q, res.R); be > tol || math.IsNaN(be) {
		t.Errorf("backward error %g > %g", be, tol)
	}
	if oe := accuracy.OrthoError(res.Q); oe > tol || math.IsNaN(oe) {
		t.Errorf("orthogonality error %g > %g", oe, tol)
	}
	if !accuracy.UpperTriangular(res.R) {
		t.Error("R is not upper triangular")
	}
	for j := 0; j < res.R.Cols; j++ {
		if res.R.At(j, j) < 0 {
			t.Errorf("R(%d,%d) = %g < 0 after sign canonicalization", j, j, res.R.At(j, j))
		}
	}
}

func TestTSQRReconstructs(t *testing.T) {
	a := randTall(1, 1000, 64)
	res, err := Factor(a, Options{BlockRows: 128})
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks != 7 { // 1000/128 = 7 chunks, remainder folded into the last
		t.Errorf("Blocks = %d, want 7", res.Blocks)
	}
	if res.Levels != 3 { // 7 -> 4 -> 2 -> 1
		t.Errorf("Levels = %d, want 3", res.Levels)
	}
	checkFactors(t, a, res)
}

// TestTSQRPartitionEdges exercises the canonical-partition corner cases:
// square input, exact multiple of BlockRows, remainder folding, and the
// BlockRows < n clamp.
func TestTSQRPartitionEdges(t *testing.T) {
	cases := []struct {
		name       string
		m, n, rb   int
		wantBlocks int
	}{
		{"square", 48, 48, 16, 1},            // rb clamps to n=48, m/48 = 1
		{"exact-multiple", 512, 32, 128, 4},  // 512/128 = 4, no remainder
		{"remainder-folds", 600, 32, 128, 4}, // 600/128 = 4, last block 216 rows
		{"clamp-to-cols", 256, 64, 8, 4},     // rb clamps 8 -> 64, 256/64 = 4
		{"shorter-than-block", 100, 16, 512, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := randTall(7, tc.m, tc.n)
			res, err := Factor(a, Options{BlockRows: tc.rb})
			if err != nil {
				t.Fatal(err)
			}
			if res.Blocks != tc.wantBlocks {
				t.Errorf("Blocks = %d, want %d", res.Blocks, tc.wantBlocks)
			}
			checkFactors(t, a, res)
		})
	}
}

func TestTSQRInputValidation(t *testing.T) {
	if _, err := Factor(nil, Options{}); !errors.Is(err, hazard.ErrEmpty) {
		t.Errorf("nil input: got %v, want ErrEmpty", err)
	}
	wide := dense.New[float32](4, 8)
	if _, err := Factor(wide, Options{}); !errors.Is(err, hazard.ErrShape) {
		t.Errorf("wide input: got %v, want ErrShape", err)
	}
	empty := dense.New[float32](0, 0)
	if _, err := Factor(empty, Options{}); !errors.Is(err, hazard.ErrEmpty) {
		t.Errorf("empty input: got %v, want ErrEmpty", err)
	}
}

// bitsEqual reports whether two matrices are Float32bits-identical —
// stricter than numerical equality (distinguishes ±0, compares NaN
// payloads).
func bitsEqual(x, y *dense.M32) bool {
	if x.Rows != y.Rows || x.Cols != y.Cols {
		return false
	}
	for j := 0; j < x.Cols; j++ {
		xc, yc := x.Col(j), y.Col(j)
		for i := range xc {
			if math.Float32bits(xc[i]) != math.Float32bits(yc[i]) {
				return false
			}
		}
	}
	return true
}

// TestTSQRGoldenSingleBlockMatchesSerial is the bit-for-bit golden: with a
// single canonical chunk the TSQR pipeline and the serial RGSQRF path (at
// n <= cutoff) both reduce to one CAQR panel call on the same operand, so
// after sign canonicalization — a no-op here, Gram-Schmidt diagonals are
// positive — Q and R must be Float32bits-identical, proving the TSQR
// plumbing adds zero numerical perturbation.
func TestTSQRGoldenSingleBlockMatchesSerial(t *testing.T) {
	a := randTall(3, 480, 64)
	res, err := Factor(a, Options{BlockRows: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks != 1 {
		t.Fatalf("Blocks = %d, want 1", res.Blocks)
	}
	serial, err := rgs.Factor(a, rgs.Options{DisableScaling: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(res.R, serial.R) {
		t.Error("single-block TSQR R is not bit-identical to serial R")
	}
	if !bitsEqual(res.Q, serial.Q) {
		t.Error("single-block TSQR Q is not bit-identical to serial Q")
	}
}

// TestTSQRGoldenDeterminism pins the determinism contract: for a FIXED
// canonical partition (BlockRows), the factors are Float32bits-identical
// across every Workers bound {1,2,4,8} — the number of blocks in flight at
// once — and every GOMAXPROCS {1,4,8}, because scheduling never changes
// which floating-point operations run on which operands.
//
// Deliberately NOT asserted: bit-identity across different BlockRows.
// Changing the numerical partition changes the operation tree and therefore
// the rounding — no parallel QR can make 2-block and 8-block partitions
// agree bit-for-bit; across partitions the results agree to factorization
// accuracy instead (TestTSQRCrossPartitionAgreement).
func TestTSQRGoldenDeterminism(t *testing.T) {
	a := randTall(4, 2000, 48)
	ref, err := Factor(a, Options{BlockRows: 256, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Blocks != 7 {
		t.Fatalf("Blocks = %d, want 7", ref.Blocks)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4, 8} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{1, 2, 4, 8} {
			res, err := Factor(a, Options{BlockRows: 256, Workers: workers})
			if err != nil {
				t.Fatalf("procs=%d workers=%d: %v", procs, workers, err)
			}
			if !bitsEqual(res.R, ref.R) {
				t.Errorf("procs=%d workers=%d: R not bit-identical to reference", procs, workers)
			}
			if !bitsEqual(res.Q, ref.Q) {
				t.Errorf("procs=%d workers=%d: Q not bit-identical to reference", procs, workers)
			}
		}
	}
}

// TestTSQRCrossPartitionAgreement: different block counts cannot agree
// bit-for-bit (different operation trees), but after sign canonicalization
// every partition must produce the same R to factorization accuracy and
// meet the same reconstruction/orthogonality bounds.
func TestTSQRCrossPartitionAgreement(t *testing.T) {
	a := randTall(5, 1024, 32)
	serial, err := rgs.Factor(a, rgs.Options{DisableScaling: true})
	if err != nil {
		t.Fatal(err)
	}
	normA := frob(a)
	for _, rb := range []int{1024, 512, 256, 128} { // 1, 2, 4, 8 blocks
		res, err := Factor(a, Options{BlockRows: rb})
		if err != nil {
			t.Fatalf("BlockRows=%d: %v", rb, err)
		}
		checkFactors(t, a, res)
		if d := frobDiff(res.R, serial.R) / normA; d > tol {
			t.Errorf("BlockRows=%d: ‖R_tsqr − R_serial‖/‖A‖ = %g > %g", rb, d, tol)
		}
	}
}

// TestTSQRSignCanonicalization uses the Householder panel — whose raw R
// diagonal carries data-dependent signs, unlike Gram-Schmidt norms — to
// prove canonicalization earns its keep: the diagonal comes out
// non-negative and the canonical R agrees with the (already-canonical)
// CAQR-panel R across a different tree, which only holds when signs have
// been normalized away.
func TestTSQRSignCanonicalization(t *testing.T) {
	a := randTall(6, 768, 24)
	house, err := Factor(a, Options{BlockRows: 192, Panel: &gram.HouseholderPanel{}})
	if err != nil {
		t.Fatal(err)
	}
	checkFactors(t, a, house)
	caqr, err := Factor(a, Options{BlockRows: 256})
	if err != nil {
		t.Fatal(err)
	}
	if d := frobDiff(house.R, caqr.R) / frob(a); d > tol {
		t.Errorf("canonical R disagrees across panels/trees: %g > %g", d, tol)
	}
}

func TestTSQRBreakdownPropagatesBlockIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := dense.ToF32(matgen.WithZeroColumns(rng, 512, 16, 3))
	_, err := Factor(a, Options{BlockRows: 128})
	if !errors.Is(err, hazard.ErrBreakdown) {
		t.Fatalf("zero column: got %v, want ErrBreakdown", err)
	}
}

func TestTSQRFaultSites(t *testing.T) {
	defer faultinject.Disarm()
	a := randTall(10, 512, 16)

	if err := faultinject.Arm("seed=1;" + SiteBlockFactor + "=error@once=1"); err != nil {
		t.Fatal(err)
	}
	if _, err := Factor(a, Options{BlockRows: 128}); !errors.Is(err, faultinject.ErrInjected) {
		t.Errorf("block.factor error: got %v, want ErrInjected", err)
	}

	if err := faultinject.Arm("seed=1;" + SiteTreeReduce + "=error@once=1"); err != nil {
		t.Fatal(err)
	}
	if _, err := Factor(a, Options{BlockRows: 128}); !errors.Is(err, faultinject.ErrInjected) {
		t.Errorf("tree.reduce error: got %v, want ErrInjected", err)
	}

	// A panic action inside a worker goroutine must be contained as a
	// breakdown error, not tear down the process.
	if err := faultinject.Arm("seed=1;" + SiteBlockFactor + "=panic@once=1"); err != nil {
		t.Fatal(err)
	}
	if _, err := Factor(a, Options{BlockRows: 128, Workers: 4}); !errors.Is(err, hazard.ErrBreakdown) {
		t.Errorf("block.factor panic: got %v, want contained ErrBreakdown", err)
	}
	faultinject.Disarm()

	res, err := Factor(a, Options{BlockRows: 128})
	if err != nil {
		t.Fatalf("disarmed: %v", err)
	}
	checkFactors(t, a, res)
}

func frob(a *dense.M32) float64 {
	var s float64
	for j := 0; j < a.Cols; j++ {
		for _, v := range a.Col(j) {
			s += float64(v) * float64(v)
		}
	}
	return math.Sqrt(s)
}

func frobDiff(x, y *dense.M32) float64 {
	var s float64
	for j := 0; j < x.Cols; j++ {
		xc, yc := x.Col(j), y.Col(j)
		for i := range xc {
			d := float64(xc[i]) - float64(yc[i])
			s += d * d
		}
	}
	return math.Sqrt(s)
}
