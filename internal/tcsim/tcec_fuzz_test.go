package tcsim

import (
	"math"
	"testing"

	"tcqr/internal/blas"
	"tcqr/internal/dense"
	"tcqr/internal/f16"
	"tcqr/internal/roundtest"
)

// FuzzTcEcSplitRoundTrip pins the split invariant the error-corrected
// engine is built on, over every finite float32: wherever the hi half is
// finite (the whole ±65504 envelope), hi + lo reconstructs the operand
// exactly at the bit level, hi is the binary16 rounding of the operand, and
// the 2¹¹-shifted residual never overflows binary16. Past the envelope the
// split must saturate with a zero residual, matching the plain TensorCore's
// overflow semantics.
func FuzzTcEcSplitRoundTrip(f *testing.F) {
	for _, bits := range []uint32{
		0, 0x3f800000, 0xbf800000, // 0, 1, -1
		math.Float32bits(1 + 0x1p-12 + 0x1p-23), // 13-bit residual
		math.Float32bits(65504), math.Float32bits(65520),
		math.Float32bits(0x1p-24), math.Float32bits(0x1p-30),
		0x00000001, 0x7f7fffff, // min subnormal, MaxFloat32
	} {
		f.Add(bits)
	}
	f.Fuzz(func(t *testing.T, bits uint32) {
		x := math.Float32frombits(bits)
		// The slice kernel behind the lo hook against the scalar split, with
		// x at each vector lane in turn — NaN and Inf included, which the
		// invariants below do not cover.
		roundtest.Lanes(t, residualKernel, x)
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			t.Skip()
		}
		hi, lo := SplitF32(x)
		if math.IsInf(float64(hi), 0) {
			if (hi > 0) != (x > 0) {
				t.Fatalf("SplitF32(%g): saturated hi %g has the wrong sign", x, hi)
			}
			if lo != 0 {
				t.Fatalf("SplitF32(%g): saturated hi with lo = %g, want 0", x, lo)
			}
			return
		}
		if want := f16.ToFloat32Fast(f16.FromFloat32(x)); math.Float32bits(hi) != math.Float32bits(want) {
			t.Fatalf("SplitF32(%g): hi = %g, want the fp16 rounding %g", x, hi, want)
		}
		if math.Float32bits(hi+lo) != math.Float32bits(x) {
			t.Fatalf("SplitF32(%g): hi %g + lo %g = %g does not reconstruct bitwise",
				x, hi, lo, hi+lo)
		}
		if shifted := f16.ToFloat32Fast(f16.FromFloat32(lo * 0x1p11)); math.IsInf(float64(shifted), 0) {
			t.Fatalf("SplitF32(%g): shifted residual %g overflows fp16", x, lo*0x1p11)
		}
	})
}

// FuzzGemmTcEcVsFP32 bounds the residual error of the error-corrected GEMM
// against an exact float64 reference on arbitrary fp16-range operands. The
// error model (Ootomo–Yokota §3, in the Yang/Fox/Sanders elementwise
// framework): per operand the residual quantization loses at most
// ~2⁻²²·|x| (plus a subnormal-residual floor), the dropped lo·lo term is
// bounded by 2⁻²²·|a||b|, and fp32 accumulation adds ≤ (k+2)·2⁻²⁴ per
// |a||b| — all relative to the elementwise absolute dot Σ|a||b|.
func FuzzGemmTcEcVsFP32(f *testing.F) {
	f.Add(uint8(3), uint8(2), uint8(4), []byte{0x10, 0x81, 0x7f, 0x40, 0x01, 0xff, 0x3c, 0x00})
	f.Add(uint8(1), uint8(1), uint8(1), []byte{0xff, 0x1d})
	f.Add(uint8(8), uint8(8), uint8(8), []byte{})
	f.Fuzz(func(t *testing.T, mb, nb, kb uint8, data []byte) {
		m := int(mb)%8 + 1
		n := int(nb)%8 + 1
		k := int(kb)%8 + 1
		// Decode one operand element per byte pair: a sign+significand byte
		// and an exponent byte spanning the full fp16-normal range, so the
		// fuzzer explores exponent diversity, not just one binade.
		at := func(idx int) float32 {
			var sig, exp byte
			if 2*idx < len(data) {
				sig = data[2*idx]
			}
			if 2*idx+1 < len(data) {
				exp = data[2*idx+1]
			}
			v := (1 + float64(sig&0x7f)/128) * math.Pow(2, float64(int(exp%30)-15))
			if sig&0x80 != 0 {
				v = -v
			}
			return float32(v)
		}
		a := dense.New[float32](m, k)
		b := dense.New[float32](k, n)
		for i := range a.Data {
			a.Data[i] = at(i)
		}
		for i := range b.Data {
			b.Data[i] = at(len(a.Data) + i)
		}
		c := dense.New[float32](m, n)
		(&TCEC{}).Gemm(blas.NoTrans, blas.NoTrans, 1, a, b, 0, c)
		ref := gemmRef64(a, b)
		tol := (32 + 4*float64(k)) * 0x1p-24
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var absDot float64
				for l := 0; l < k; l++ {
					absDot += math.Abs(float64(a.At(i, l))) * math.Abs(float64(b.At(l, j)))
				}
				if err := math.Abs(float64(c.At(i, j)) - ref[i][j]); err > tol*absDot {
					t.Fatalf("c(%d,%d) = %v vs ref %v: error %.3e exceeds %.3e (tol %.3e × absdot %.3e)",
						i, j, c.At(i, j), ref[i][j], err, tol*absDot, tol, absDot)
				}
			}
		}
	})
}
