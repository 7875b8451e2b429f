package tcsim

import (
	"math"
	"math/rand"
	"testing"

	"tcqr/internal/blas"
	"tcqr/internal/dense"
	"tcqr/internal/f16"
)

func randM32(rng *rand.Rand, r, c int) *dense.M32 {
	m := dense.New[float32](r, c)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	return m
}

// referenceTC computes the TensorCore contract in the most literal way:
// round every operand to fp16, multiply in float64 (exact for fp16
// products), accumulate in float32.
func referenceTC(tA, tB blas.Transpose, alpha float32, a, b *dense.M32, beta float32, c *dense.M32) *dense.M32 {
	opA := dense.ToF64(a)
	if tA == blas.Trans {
		opA = opA.Transpose()
	}
	opB := dense.ToF64(b)
	if tB == blas.Trans {
		opB = opB.Transpose()
	}
	out := dense.New[float32](c.Rows, c.Cols)
	for i := 0; i < c.Rows; i++ {
		for j := 0; j < c.Cols; j++ {
			var acc float32
			for l := 0; l < opA.Cols; l++ {
				x := f16.Round(float32(opA.At(i, l)))
				y := f16.Round(float32(opB.At(l, j)))
				acc += x * y // product exact, add rounds in fp32
			}
			out.Set(i, j, alpha*acc+beta*c.At(i, j))
		}
	}
	return out
}

func TestTensorCoreMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tc TensorCore
	for _, tA := range []blas.Transpose{blas.NoTrans, blas.Trans} {
		for _, tB := range []blas.Transpose{blas.NoTrans, blas.Trans} {
			m, n, k := 9, 7, 11
			var a, b *dense.M32
			if tA == blas.NoTrans {
				a = randM32(rng, m, k)
			} else {
				a = randM32(rng, k, m)
			}
			if tB == blas.NoTrans {
				b = randM32(rng, k, n)
			} else {
				b = randM32(rng, n, k)
			}
			c := dense.New[float32](m, n)
			// With α=1, β=0 the engine accumulates in the same sequential
			// k-order as the reference, so results must match bit for bit.
			want := referenceTC(tA, tB, 1, a, b, 0, c)
			tc.Gemm(tA, tB, 1, a, b, 0, c)
			for i := range c.Data {
				if c.Data[i] != want.Data[i] {
					t.Errorf("tA=%v tB=%v element %d: %v vs %v", tA, tB, i, c.Data[i], want.Data[i])
				}
			}
			// General α, β: the application order of the scalars differs
			// between engine and reference, so allow fp32 rounding slack.
			cg := randM32(rng, m, n)
			wantG := referenceTC(tA, tB, 1.5, a, b, 0.5, cg)
			tc.Gemm(tA, tB, 1.5, a, b, 0.5, cg)
			for i := range cg.Data {
				diff := math.Abs(float64(cg.Data[i] - wantG.Data[i]))
				scale := math.Max(math.Abs(float64(wantG.Data[i])), 1)
				if diff > 1e-5*scale {
					t.Errorf("tA=%v tB=%v general element %d: %v vs %v", tA, tB, i, cg.Data[i], wantG.Data[i])
				}
			}
		}
	}
}

func TestTensorCoreRoundsOperands(t *testing.T) {
	// 1/3 is not representable in fp16; a TC product must see the rounded
	// value, an FP32 product the full float32 value.
	a := dense.New[float32](1, 1)
	b := dense.New[float32](1, 1)
	a.Set(0, 0, 1.0/3.0)
	b.Set(0, 0, 3)
	c := dense.New[float32](1, 1)

	var tc TensorCore
	tc.Gemm(blas.NoTrans, blas.NoTrans, 1, a, b, 0, c)
	wantTC := f16.Round(1.0/3.0) * f16.Round(3)
	if c.At(0, 0) != wantTC {
		t.Errorf("TC product = %v, want %v", c.At(0, 0), wantTC)
	}

	var fp FP32
	fp.Gemm(blas.NoTrans, blas.NoTrans, 1, a, b, 0, c)
	if c.At(0, 0) != float32(1.0/3.0)*3 {
		t.Errorf("FP32 product = %v", c.At(0, 0))
	}
	if c.At(0, 0) == wantTC {
		t.Error("FP32 and TC paths should differ on 1/3 · 3")
	}
}

func TestTensorCoreOverflow(t *testing.T) {
	// An operand above 65504 overflows to +Inf in fp16 and poisons the
	// output — the catastrophe Section 3.5's column scaling prevents.
	a := dense.New[float32](1, 1)
	b := dense.New[float32](1, 1)
	a.Set(0, 0, 1e6)
	b.Set(0, 0, 1)
	c := dense.New[float32](1, 1)
	tc := TensorCore{TrackSpecials: true}
	tc.Gemm(blas.NoTrans, blas.NoTrans, 1, a, b, 0, c)
	if !math.IsInf(float64(c.At(0, 0)), 1) {
		t.Errorf("overflowing operand should produce +Inf, got %v", c.At(0, 0))
	}
	if s := tc.Stats(); s.Overflows != 1 {
		t.Errorf("Overflows = %d, want 1", s.Overflows)
	}
	// In contrast FP32 is fine.
	var fp FP32
	fp.Gemm(blas.NoTrans, blas.NoTrans, 1, a, b, 0, c)
	if c.At(0, 0) != 1e6 {
		t.Errorf("FP32 result = %v", c.At(0, 0))
	}
}

func TestStatsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var tc TensorCore
	a, b := randM32(rng, 8, 4), randM32(rng, 4, 6)
	c := dense.New[float32](8, 6)
	tc.Gemm(blas.NoTrans, blas.NoTrans, 1, a, b, 0, c)
	tc.Gemm(blas.NoTrans, blas.NoTrans, 1, a, b, 0, c)
	s := tc.Stats()
	if s.Calls != 2 {
		t.Errorf("Calls = %d", s.Calls)
	}
	if want := int64(2 * 2 * 8 * 6 * 4); s.Flops != want {
		t.Errorf("Flops = %d, want %d", s.Flops, want)
	}
	// Transposed shapes count the same flops.
	var fp FP32
	at, bt := randM32(rng, 4, 8), randM32(rng, 6, 4)
	fp.Gemm(blas.Trans, blas.Trans, 1, at, bt, 0, c)
	if s := fp.Stats(); s.Flops != 2*8*6*4 {
		t.Errorf("transposed flops = %d", s.Flops)
	}
}

func TestGemmWMMAAgreesWithEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, size := range []struct{ m, n, k int }{{16, 16, 16}, {32, 48, 64}, {17, 19, 23}, {5, 3, 70}} {
		a := randM32(rng, size.m, size.k)
		b := randM32(rng, size.k, size.n)
		c1 := dense.New[float32](size.m, size.n)
		c2 := dense.New[float32](size.m, size.n)
		var tc TensorCore
		tc.Gemm(blas.NoTrans, blas.NoTrans, 1, a, b, 0, c1)
		GemmWMMA(a, b, c2)
		// Both round operands identically; accumulation order differs
		// (sequential vs 16-wide fragments), so allow a few ulps of fp32.
		for i := range c1.Data {
			x, y := float64(c1.Data[i]), float64(c2.Data[i])
			scale := math.Max(math.Abs(x), 1)
			if math.Abs(x-y) > 1e-5*scale*math.Sqrt(float64(size.k)) {
				t.Errorf("size %+v element %d: engine %v vs wmma %v", size, i, x, y)
			}
		}
	}
}

func TestMmaFragmentExactness(t *testing.T) {
	// A fragment of exact small integers must multiply exactly.
	var a, b [FragmentDim][FragmentDim]f16.Float16
	var c, d [FragmentDim][FragmentDim]float32
	for i := 0; i < FragmentDim; i++ {
		for j := 0; j < FragmentDim; j++ {
			a[i][j] = f16.FromFloat32(float32((i + j) % 5))
			b[i][j] = f16.FromFloat32(float32((i*j)%7) - 3)
			c[i][j] = float32(i - j)
		}
	}
	MmaFragment(&d, &c, &a, &b)
	for i := 0; i < FragmentDim; i++ {
		for j := 0; j < FragmentDim; j++ {
			want := c[i][j]
			for k := 0; k < FragmentDim; k++ {
				want += float32((i+k)%5) * (float32((k*j)%7) - 3)
			}
			if d[i][j] != want {
				t.Fatalf("fragment (%d,%d) = %v want %v", i, j, d[i][j], want)
			}
		}
	}
}

func TestEngineErrorMagnitudes(t *testing.T) {
	// The half-precision engine's elementwise relative error on a
	// well-scaled product should be around k·eps_half, orders of magnitude
	// larger than FP32's — this is the accuracy gap Figures 3 and 9 show.
	rng := rand.New(rand.NewSource(4))
	const m, n, k = 64, 64, 64
	a, b := randM32(rng, m, k), randM32(rng, k, n)
	exact := dense.New[float64](m, n)
	blas.Gemm(blas.NoTrans, blas.NoTrans, 1, dense.ToF64(a), dense.ToF64(b), 0, exact)

	errOf := func(e Engine) float64 {
		c := dense.New[float32](m, n)
		e.Gemm(blas.NoTrans, blas.NoTrans, 1, a, b, 0, c)
		var worst float64
		for i := range c.Data {
			d := math.Abs(float64(c.Data[i]) - exact.Data[i])
			if d > worst {
				worst = d
			}
		}
		return worst / math.Sqrt(k) // normalize by typical |c| scale
	}
	errTC := errOf(&TensorCore{})
	errFP := errOf(&FP32{})
	if errTC < 10*errFP {
		t.Errorf("TC error (%g) should be far larger than FP32 error (%g)", errTC, errFP)
	}
	if errTC > 50*float64(k)*f16.Eps {
		t.Errorf("TC error %g implausibly large", errTC)
	}
}
