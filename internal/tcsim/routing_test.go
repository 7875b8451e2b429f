package tcsim

import (
	"math"
	"math/rand"
	"testing"

	"tcqr/internal/blas"
	"tcqr/internal/cpufeat"
	"tcqr/internal/dense"
	"tcqr/internal/f16"
)

// TestBinary16HooksRoundToBinary16 holds the hooks that declare binary16
// results to the declaration: whatever goes in — normals over the whole
// float32 range, subnormals, values past 65504, ±0, ±Inf, NaN — every
// element tcHook or loHook leaves is a binary16 value or NaN, which is what
// makes their products exact. bfHook's results include values binary16
// cannot hold, and it declares nothing.
func TestBinary16HooksRoundToBinary16(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	in := make([]float32, 4096)
	for i := range in {
		in[i] = float32(math.Ldexp(rng.NormFloat64(), rng.Intn(280)-150))
	}
	copy(in, []float32{0, float32(math.Copysign(0, -1)), 65504, 65520, -1e6, 0x1p-25, 0x1p-24, 1 + 0x1p-11,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())})
	binary16 := func(v float32) bool { return v != v || f16.Round(v) == v }
	for _, h := range []struct {
		name string
		hook *blas.PackHook[float32]
	}{{"tcHook", &tcHook}, {"loHook", &loHook}, {"bfHook", &bfHook}} {
		for _, counted := range []bool{false, true} {
			p := append([]float32(nil), in...)
			if counted {
				h.hook.RoundCount(p)
			} else {
				h.hook.Round(p)
			}
			all := true
			for i, v := range p {
				if !binary16(v) {
					all = false
					if h.hook.Binary16 {
						t.Fatalf("%s (counted %v) maps %g to %g, not a binary16 value", h.name, counted, in[i], v)
					}
				}
			}
			if all && !h.hook.Binary16 {
				t.Errorf("%s (counted %v) left only binary16 values; the test's inputs no longer tell it apart", h.name, counted)
			}
		}
	}
	if !tcHook.Binary16 || !loHook.Binary16 || bfHook.Binary16 {
		t.Errorf("declarations: tcHook %v, loHook %v, bfHook %v; want true, true, false", tcHook.Binary16, loHook.Binary16, bfHook.Binary16)
	}
}

// TestEngineKernelRouting: the TC and TC-EC GEMMs (every tc-ec pass) run
// the exact-product kernel family where the host has one, the FP32 and BF16
// GEMMs never do. For binary16 operands the two families give the same bits,
// so the engines' own hooks cannot show which ran; with the binary16 hooks
// swapped for the identity, a pair of products that the fused and the
// separate operations round differently (blas.TestBF16ProductsNotExact)
// shows it. C[0,0] accumulates 2⁻⁷⁵·2⁻⁷⁴ + 2⁻⁷⁵·2⁻⁷⁵: 2⁻¹⁴⁸ fused,
// 2⁻¹⁴⁹ rounded product by product. tc-ec, at α = 2¹¹ so that its correction
// passes carry α·2⁻¹¹ = 1, sums 2¹¹ times its first pass's accumulator and
// once each of the other two's: 2⁻¹³⁷ + 2⁻¹⁴⁷ when all three fuse, and a
// different subnormal for every other combination. (All four operand values
// are bfloat16 values, so BF16 sees them unrounded with its own hook.)
func TestEngineKernelRouting(t *testing.T) {
	const m, n, k = 32, 4, 128 // one full ZMM tile, on the packed path
	if !blas.GemmPacked(m, n, k) {
		t.Fatalf("%dx%dx%d is not a packed GEMM", m, n, k)
	}
	a, b := dense.New[float32](m, k), dense.New[float32](k, n)
	a.Set(0, 0, 0x1p-75)
	a.Set(0, 1, 0x1p-75)
	b.Set(0, 0, 0x1p-74)
	b.Set(1, 0, 0x1p-75)
	fused := cpufeat.AVX512F
	pick := func(yes bool, f, s float32) float32 {
		if yes {
			return f
		}
		return s
	}

	savedTC, savedLo := tcHook, loHook
	defer func() { tcHook, loHook = savedTC, savedLo }()
	identity := func([]float32) {}
	identityCount := func([]float32) (int64, int64) { return 0, 0 }
	tcHook.Round, tcHook.RoundCount = identity, identityCount
	loHook.Round, loHook.RoundCount = identity, identityCount

	for _, c := range []struct {
		e     Engine
		alpha float32
		want  float32
	}{
		{&TensorCore{}, 1, pick(fused, 0x1p-148, 0x1p-149)},
		{&TCEC{}, 0x1p11, pick(fused, 0x1p-137+0x1p-147, 0x1p-138+0x1p-148)},
		{&FP32{}, 1, 0x1p-149},
		{&BFloat16{}, 1, 0x1p-149},
	} {
		out := dense.New[float32](m, n)
		c.e.Gemm(blas.NoTrans, blas.NoTrans, c.alpha, a, b, 0, out)
		if got := out.At(0, 0); got != c.want {
			t.Errorf("%s: C[0,0] = %g, want %g (fused kernel on this host: %v)", c.e.Name(), got, c.want, fused)
		}
	}
}
