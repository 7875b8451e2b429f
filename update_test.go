package tcqr

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"tcqr/internal/accuracy"
	"tcqr/internal/dense"
)

// randBlock builds a k×n append block (k may be smaller than n, which
// testMatrix's conditioned generator cannot produce).
func randBlock(seed int64, k, n int, scale float64) *Matrix32 {
	rng := rand.New(rand.NewSource(seed))
	v := NewMatrix32(k, n)
	for j := 0; j < n; j++ {
		col := v.Col(j)
		for i := range col {
			col[i] = float32(scale * rng.NormFloat64())
		}
	}
	return v
}

// stack returns [top; bottom] for two float32 blocks with matching columns.
func stack(top, bottom *Matrix32) *Matrix32 {
	out := NewMatrix32(top.Rows+bottom.Rows, top.Cols)
	for j := 0; j < top.Cols; j++ {
		col := out.Col(j)
		copy(col, top.Col(j))
		copy(col[top.Rows:], bottom.Col(j))
	}
	return out
}

func TestUpdateAppendRowsMatchesRefactorize(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"fp32", Config{Engine: EngineFP32}},
		{"tensorcore", Config{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := testMatrix(42, 300, 64, 100)
			v := randBlock(43, 40, 64, 1)
			f, err := Factorize(a, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			up, err := UpdateAppendRows(f, v, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			full := stack(a, v)
			if up.Q.Rows != full.Rows || up.R.Cols != full.Cols {
				t.Fatalf("updated shape %dx%d", up.Q.Rows, up.R.Cols)
			}
			if !accuracy.UpperTriangular(up.R) {
				t.Error("updated R not upper triangular")
			}
			for j := 0; j < up.R.Cols; j++ {
				if up.R.At(j, j) < 0 {
					t.Errorf("R diagonal %d negative: %g", j, up.R.At(j, j))
				}
			}
			ref, err := Factorize(full, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			beUp, beRef := up.BackwardError(full), ref.BackwardError(full)
			if beUp > 2*beRef+1e-6 {
				t.Errorf("update backward error %g vs refactorize %g", beUp, beRef)
			}
			oeUp, oeOrig := up.OrthogonalityError(), f.OrthogonalityError()
			if oeUp > 2*oeOrig+1e-5 {
				t.Errorf("update orthogonality %g vs original %g", oeUp, oeOrig)
			}
		})
	}
}

func TestUpdateAppendRowRank1(t *testing.T) {
	a := testMatrix(7, 120, 32, 50)
	f, err := Factorize(a, Config{Engine: EngineFP32})
	if err != nil {
		t.Fatal(err)
	}
	v := NewMatrix32(1, 32)
	for j := 0; j < 32; j++ {
		v.Set(0, j, float32(j)-15.5)
	}
	up, err := UpdateAppendRows(f, v, Config{Engine: EngineFP32})
	if err != nil {
		t.Fatal(err)
	}
	full := stack(a, v)
	if be := up.BackwardError(full); be > 1e-5 {
		t.Errorf("rank-1 update backward error %g", be)
	}
}

// TestUpdateAppendChain drives the serving scenario: a stream of row-block
// appends, each building on the previous update, must stay at factorization
// accuracy (no drift compounding across epochs).
func TestUpdateAppendChain(t *testing.T) {
	cfg := Config{Engine: EngineFP32}
	a := testMatrix(11, 200, 48, 20)
	f, err := Factorize(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := a
	for i := 0; i < 5; i++ {
		v := randBlock(int64(100+i), 16, 48, 1)
		f, err = UpdateAppendRows(f, v, cfg)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		full = stack(full, v)
	}
	ref, err := Factorize(full, cfg)
	if err != nil {
		t.Fatal(err)
	}
	beUp, beRef := f.BackwardError(full), ref.BackwardError(full)
	if beUp > 5*beRef+1e-6 {
		t.Errorf("chained update backward error %g vs refactorize %g", beUp, beRef)
	}
	if oe := f.OrthogonalityError(); oe > 1e-4 {
		t.Errorf("chained update orthogonality %g", oe)
	}
}

func TestUpdateRemoveRowsMatchesRefactorize(t *testing.T) {
	a := testMatrix(21, 200, 40, 10)
	v := randBlock(22, 30, 40, 1)
	full := stack(a, v)
	cfg := Config{Engine: EngineFP32}
	f, err := Factorize(full, cfg)
	if err != nil {
		t.Fatal(err)
	}
	down, err := UpdateRemoveRows(f, 30, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if down.Q.Rows != 200 || down.R.Cols != 40 {
		t.Fatalf("downdated shape %dx%d", down.Q.Rows, down.R.Cols)
	}
	if !accuracy.UpperTriangular(down.R) {
		t.Error("downdated R not upper triangular")
	}
	// The downdated factorization approximates A (the surviving rows as
	// reconstructed through the f32 factors, so tolerances are looser than
	// the append direction — Q recovery goes through R′⁻¹).
	if be := down.BackwardError(a); be > 1e-4 {
		t.Errorf("downdate backward error %g", be)
	}
	if oe := down.OrthogonalityError(); oe > 5e-3 {
		t.Errorf("downdate orthogonality %g", oe)
	}
}

// TestUpdateRoundTrip appends a block and immediately downdates it; the
// result must factor the original matrix.
func TestUpdateRoundTrip(t *testing.T) {
	cfg := Config{Engine: EngineFP32}
	a := testMatrix(31, 150, 24, 10)
	f, err := Factorize(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	v := randBlock(32, 20, 24, 1)
	up, err := UpdateAppendRows(f, v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UpdateRemoveRows(up, 20, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if be := back.BackwardError(a); be > 1e-4 {
		t.Errorf("round-trip backward error %g", be)
	}
}

func TestUpdateValidation(t *testing.T) {
	a := testMatrix(41, 60, 12, 10)
	f, err := Factorize(a, Config{Engine: EngineFP32})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UpdateAppendRows(nil, NewMatrix32(1, 12), Config{}); !errors.Is(err, ErrEmpty) {
		t.Errorf("nil factorization: %v", err)
	}
	if _, err := UpdateAppendRows(f, nil, Config{}); !errors.Is(err, ErrEmpty) {
		t.Errorf("nil block: %v", err)
	}
	if _, err := UpdateAppendRows(f, NewMatrix32(2, 5), Config{}); !errors.Is(err, ErrShape) {
		t.Errorf("column mismatch: %v", err)
	}
	bad := NewMatrix32(1, 12)
	bad.Set(0, 3, float32(math.NaN()))
	if _, err := UpdateAppendRows(f, bad, Config{}); !errors.Is(err, ErrNonFinite) {
		t.Errorf("non-finite block: %v", err)
	}
	if _, err := UpdateRemoveRows(f, 0, Config{}); !errors.Is(err, ErrShape) {
		t.Errorf("zero downdate: %v", err)
	}
	if _, err := UpdateRemoveRows(f, 55, Config{}); !errors.Is(err, ErrShape) {
		t.Errorf("downdate past the column count: %v", err)
	}
	if _, err := UpdateRemoveRows(nil, 1, Config{}); !errors.Is(err, ErrEmpty) {
		t.Errorf("nil downdate: %v", err)
	}
}

// TestUpdateAppendOverflowTyped: appending rows whose combined column mass
// exceeds float32 range cannot be represented in the device-precision R;
// under HazardFail that is a typed non-finite error.
func TestUpdateAppendOverflowTyped(t *testing.T) {
	a := testMatrix(51, 80, 8, 10)
	f, err := Factorize(a, Config{Engine: EngineFP32})
	if err != nil {
		t.Fatal(err)
	}
	v := NewMatrix32(2, 8)
	for j := 0; j < 8; j++ {
		v.Set(0, j, 3e38)
		v.Set(1, j, 3e38)
	}
	if _, err := UpdateAppendRows(f, v, Config{OnHazard: HazardFail}); !errors.Is(err, ErrNonFinite) {
		t.Errorf("overflowing append under HazardFail: %v", err)
	}
}

// TestDowndateBreakdown removes a row that carries essentially all of one
// column's mass: HazardFail returns the typed breakdown, HazardFallback
// refactorizes the surviving rows from scratch and records the recovery.
func TestDowndateBreakdown(t *testing.T) {
	// A = [[1, 0], [0, 1e-3], [0, 10]]: removing the last row leaves column
	// 2 with ~1e-8 of its mass — inside the f32 noise floor.
	a := NewMatrix32(3, 2)
	a.Set(0, 0, 1)
	a.Set(1, 1, 1e-3)
	a.Set(2, 1, 10)
	f, err := Factorize(a, Config{Engine: EngineFP32})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UpdateRemoveRows(f, 1, Config{OnHazard: HazardFail}); !errors.Is(err, ErrBreakdown) {
		t.Fatalf("breakdown downdate under HazardFail: %v", err)
	}
	down, err := UpdateRemoveRows(f, 1, Config{OnHazard: HazardFallback, Engine: EngineFP32})
	if err != nil {
		t.Fatalf("breakdown downdate under HazardFallback: %v", err)
	}
	if len(down.Hazards) == 0 {
		t.Fatal("fallback downdate recorded no hazards")
	}
	found := false
	for _, h := range down.Hazards {
		if h.Stage == "downdate" {
			found = true
		}
	}
	if !found {
		t.Errorf("no downdate-stage hazard recorded: %v", down.Hazards)
	}
	want := NewMatrix32(2, 2)
	want.Set(0, 0, 1)
	want.Set(1, 1, 1e-3)
	if be := down.BackwardError(want); be > 1e-5 {
		t.Errorf("fallback downdate backward error %g", be)
	}
}

// TestUpdateSolveWithFactor proves an updated factorization backs the
// library solver exactly like a fresh one (the serving /v1/update contract).
func TestUpdateSolveWithFactor(t *testing.T) {
	cfg := Config{Engine: EngineFP32}
	a := testMatrix(61, 160, 24, 10)
	v := randBlock(62, 16, 24, 1)
	f, err := Factorize(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	up, err := UpdateAppendRows(f, v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	full64 := dense.ToF64(stack(a, v))
	b := make([]float64, full64.Rows)
	for i := range b {
		b[i] = math.Sin(float64(i))
	}
	got, err := SolveLeastSquaresWithFactor(up, full64, b, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Factorize(stack(a, v), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := SolveLeastSquaresWithFactor(ref, full64, b, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var diff, norm float64
	for i := range got.X {
		d := got.X[i] - want.X[i]
		diff += d * d
		norm += want.X[i] * want.X[i]
	}
	if math.Sqrt(diff/norm) > 1e-6 {
		t.Errorf("update-backed solve diverges from refactorize-backed solve: rel %g", math.Sqrt(diff/norm))
	}
}
