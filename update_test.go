package tcqr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"slices"
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
// under either policy that is a typed non-finite error and no factor (an
// append has no recovery to try).
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
	for _, pol := range []HazardPolicy{HazardFail, HazardFallback} {
		up, err := UpdateAppendRows(f, v, Config{OnHazard: pol})
		if !errors.Is(err, ErrNonFinite) || up != nil {
			t.Errorf("overflowing append under policy %v: factor %v, error %v", pol, up != nil, err)
		}
	}
}

// TestDowndateBreakdown removes a row that carries essentially all of one
// column's mass: HazardFail returns the typed breakdown, HazardFallback
// refactorizes the surviving rows from scratch and records the recovery —
// one downdate event naming the failure, ahead of the new factor's own
// events, and the bits of Factorize on the reconstructed rows.
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
	_, failErr := UpdateRemoveRows(f, 1, Config{OnHazard: HazardFail})
	if !errors.Is(failErr, ErrBreakdown) {
		t.Fatalf("breakdown downdate under HazardFail: %v", failErr)
	}
	cfg := Config{OnHazard: HazardFallback, Engine: EngineFP32}
	down, err := UpdateRemoveRows(f, 1, cfg)
	if err != nil {
		t.Fatalf("breakdown downdate under HazardFallback: %v", err)
	}
	if len(down.Hazards) == 0 {
		t.Fatal("fallback downdate recorded no hazards")
	}
	wantEvent := Hazard{
		Kind:   HazardBreakdown,
		Stage:  "downdate",
		Detail: failErr.Error(),
		Action: "refactorize remaining rows from scratch",
	}
	if down.Hazards[0] != wantEvent {
		t.Errorf("first hazard %+v, want %+v", down.Hazards[0], wantEvent)
	}
	ref, err := Factorize(reconstructRows(f, 2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(down.Hazards[1:], ref.Hazards) {
		t.Errorf("hazards after the downdate event %v, want the refactorization's %v", down.Hazards[1:], ref.Hazards)
	}
	if !bitsEqual(down.Q.Data, ref.Q.Data) || !bitsEqual(down.R.Data, ref.R.Data) {
		t.Error("recovered factors differ from Factorize of the reconstructed remaining rows")
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

// updateBitsHash is FNV-1a over the Float32bits of x, little-endian.
func updateBitsHash(x []float32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range x {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestUpdateBitsGolden pins the bits of Q′ and R′ along a three-step chain
// per shape — downdate k rows, append k rows, downdate k rows — from the
// default factorization of an m×n matrix. The shapes put the downdate's
// Q₁·M product in every regime its row strips can take: fewer surviving rows
// than one strip (200×48), balanced strips (2048×128 and 4096×256), a ragged
// last strip (1000×37, 777×100), and a width so narrow that a strip's
// product would leave the packed GEMM for the reference kernel (2048×4).
// The hashes were recorded before the downdate computed Q′ strip by strip,
// so they prove the strips changed no bit.
func TestUpdateBitsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hashes recorded on amd64; other ports may fuse multiply-adds in the Go loops")
	}
	golden := map[string][3][2]uint64{
		"200x48-k8":    {{0x221f9a3cd92d63b8, 0xff32949f53c8820}, {0xf15be36f68c7ffc0, 0x246d4a3928115d60}, {0xdc98cc5ffd63b71f, 0x76ceb6f4a807eaa3}},
		"2048x128-k16": {{0xdc44e17764c91b02, 0x80ac17aa236ec400}, {0xa2118fc667d19aed, 0xc3e267d0ed0f8ee5}, {0x225490be52d1a90b, 0xf962718f9af8ad20}},
		"4096x256-k64": {{0x64e06a18f54caa5b, 0x39f70ad002531afd}, {0x454561420a01ae86, 0x743becbe81223890}, {0x1e68e752454b2be, 0xbd2fdeeada87d104}},
		"1000x37-k5":   {{0x72d81261971372c8, 0x25619b3f9c7cffcf}, {0xec71c2107f0cb25b, 0x7fda1fb52f9e0f75}, {0xa719d5dd7112972a, 0xbd1ac3cf77b41507}},
		"777x100-k1":   {{0x8675859f1783b700, 0xa20b8828eb5d5221}, {0x91570307a0579ac8, 0x631ebb71a7cd817c}, {0xd2b86d1f3a1bbc1b, 0xddddb0085edfb305}},
		"2048x4-k2":    {{0xd550798473a5d447, 0xfaefd6e5c5552a6e}, {0xec425cce490aa9c4, 0x7bc0e978befec800}, {0xd1ad7f3f72f67fd7, 0x92b2a690a8a96a2d}},
	}
	for i, c := range []struct{ m, n, k int }{
		{200, 48, 8},
		{2048, 128, 16},
		{4096, 256, 64},
		{1000, 37, 5},
		{777, 100, 1},
		{2048, 4, 2},
	} {
		name := fmt.Sprintf("%dx%d-k%d", c.m, c.n, c.k)
		t.Run(name, func(t *testing.T) {
			f, err := Factorize(testMatrix(int64(700+i), c.m, c.n, 100), Config{})
			if err != nil {
				t.Fatal(err)
			}
			v := randBlock(int64(800+i), c.k, c.n, 1)
			steps := []func(*Factorization) (*Factorization, error){
				func(f *Factorization) (*Factorization, error) { return UpdateRemoveRows(f, c.k, Config{}) },
				func(f *Factorization) (*Factorization, error) { return UpdateAppendRows(f, v, Config{}) },
				func(f *Factorization) (*Factorization, error) { return UpdateRemoveRows(f, c.k, Config{}) },
			}
			var got [3][2]uint64
			for s, step := range steps {
				if f, err = step(f); err != nil {
					t.Fatalf("step %d: %v", s, err)
				}
				if len(f.Hazards) != 0 {
					t.Fatalf("step %d took the recovery ladder: %v", s, f.Hazards)
				}
				got[s] = [2]uint64{updateBitsHash(f.Q.Data), updateBitsHash(f.R.Data)}
			}
			if want := golden[name]; got != want {
				t.Errorf("update bits moved: got %#x, want %#x", got, want)
			}
		})
	}
}
