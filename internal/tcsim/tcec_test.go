package tcsim

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"tcqr/internal/blas"
	"tcqr/internal/dense"
	"tcqr/internal/f16"
	"tcqr/internal/matgen"
	"tcqr/internal/roundtest"
)

// gemmRef64 computes op(A)·op(B) elementwise in float64 (NoTrans only —
// the accuracy tests use plain orientation).
func gemmRef64(a, b *dense.M32) [][]float64 {
	m, k, n := a.Rows, a.Cols, b.Cols
	ref := make([][]float64, m)
	for i := 0; i < m; i++ {
		ref[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			var s float64
			for l := 0; l < k; l++ {
				s += float64(a.At(i, l)) * float64(b.At(l, j))
			}
			ref[i][j] = s
		}
	}
	return ref
}

// maxElemErr returns the largest elementwise error of c against ref,
// normalized per element by Σ_l |a_il||b_lj| (the natural condition-free
// scale of a dot product), so the metric is invariant under the power-of-2
// operand scalings the sweep applies.
func maxElemErr(c *dense.M32, ref [][]float64, a, b *dense.M32) float64 {
	m, k, n := a.Rows, a.Cols, b.Cols
	worst := 0.0
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var absDot float64
			for l := 0; l < k; l++ {
				absDot += math.Abs(float64(a.At(i, l))) * math.Abs(float64(b.At(l, j)))
			}
			if absDot == 0 {
				continue
			}
			e := math.Abs(float64(c.At(i, j))-ref[i][j]) / absDot
			if e > worst {
				worst = e
			}
		}
	}
	return worst
}

func randScaled(rng *rand.Rand, rows, cols int, scale float32) *dense.M32 {
	a := dense.New[float32](rows, cols)
	for i := range a.Data {
		a.Data[i] = float32(rng.NormFloat64()) * scale
	}
	return a
}

func engineErr(e Engine, a, b *dense.M32, ref [][]float64) float64 {
	c := dense.New[float32](a.Rows, b.Cols)
	e.Gemm(blas.NoTrans, blas.NoTrans, 1, a, b, 0, c)
	return maxElemErr(c, ref, a, b)
}

// TestTcEcAccuracySweep is the tc-ec half of the adversarial accuracy
// battery: across operand scales from deep in the fp16-subnormal range up
// to the saturation edge, the error-corrected engine must be strictly more
// accurate than the plain TensorCore, and — wherever the residual halves
// stay inside the fp16-normal range — within a small constant factor of the
// plain fp32 GEMM. The subnormal edge scales document where the guarantee
// honestly degrades: below |x| ≈ 2⁻¹³ even the 2¹¹-shifted residuals land
// in the fp16-subnormal range and tc-ec keeps only a few extra bits —
// still strictly ahead of TC, which flushes the operands outright.
func TestTcEcAccuracySweep(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const m, k, n = 48, 64, 32
	tc := &TensorCore{}
	ec := &TCEC{}
	fp := &FP32{}
	cases := []struct {
		name  string
		scale float32
		// fp32Factor asserts errEC ≤ fp32Factor·errFP32 when > 0; 0 skips
		// the fp32 comparison (residual-degradation edges).
		fp32Factor float64
	}{
		{"unit", 1, 16},
		{"up6", 0x1p6, 16},
		{"top-edge", 0x1p12, 16},     // products ~2¹², hi halves near saturation
		{"down10", 0x1p-10, 16},      // residuals still land fp16-normal after the shift
		{"subnormal-hi", 0x1p-18, 0}, // hi halves fp16-subnormal; shifted residuals too
		{"subnormal-lo", 0x1p-26, 0}, // TC flushes the operands outright; tc-ec keeps bits
	}
	for _, tc2 := range cases {
		t.Run(tc2.name, func(t *testing.T) {
			a := randScaled(rng, m, k, tc2.scale)
			b := randScaled(rng, k, n, tc2.scale)
			ref := gemmRef64(a, b)
			errTC := engineErr(tc, a, b, ref)
			errEC := engineErr(ec, a, b, ref)
			errFP := engineErr(fp, a, b, ref)
			t.Logf("scale=%g  tc=%.3e  tc-ec=%.3e  fp32=%.3e", tc2.scale, errTC, errEC, errFP)
			if !(errEC < errTC) {
				t.Fatalf("tc-ec error %.3e not strictly below plain TC %.3e", errEC, errTC)
			}
			if tc2.fp32Factor > 0 && errEC > tc2.fp32Factor*errFP {
				t.Fatalf("tc-ec error %.3e exceeds %g× fp32 error %.3e", errEC, tc2.fp32Factor, errFP)
			}
		})
	}
}

// TestTcEcExponentLadderGemm runs the adversarial exponent sweep as one
// GEMM instead of one scale at a time: matgen.ExponentLadder operands whose
// columns step from below the fp16-subnormal threshold to near the
// saturation edge, so a single product mixes flushed, degraded-residual and
// fully-corrected terms. The elementwise error metric is dominated by the
// large-scale (fp16-normal) terms, where the full guarantee must hold:
// strictly below plain TC, within a constant factor of fp32.
func TestTcEcExponentLadderGemm(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := dense.ToF32(matgen.ExponentLadder(rng, 48, 64, -18, 10))
	b := dense.ToF32(matgen.ExponentLadder(rng, 64, 32, -12, 8))
	ref := gemmRef64(a, b)
	errTC := engineErr(&TensorCore{}, a, b, ref)
	errEC := engineErr(&TCEC{}, a, b, ref)
	errFP := engineErr(&FP32{}, a, b, ref)
	t.Logf("exponent ladder:  tc=%.3e  tc-ec=%.3e  fp32=%.3e", errTC, errEC, errFP)
	if !(errEC < errTC) {
		t.Fatalf("tc-ec error %.3e not strictly below plain TC %.3e", errEC, errTC)
	}
	if errEC > 32*errFP {
		t.Fatalf("tc-ec error %.3e exceeds 32× fp32 error %.3e on the exponent ladder", errEC, errFP)
	}
}

// TestTcEcExactOnFp16Inputs: when every operand is already exactly
// binary16-representable the residual halves are identically zero, so the
// correction passes contribute nothing and tc-ec must agree with the plain
// TensorCore bit for bit (which in turn is the exact-product fp32 GEMM).
func TestTcEcExactOnFp16Inputs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const m, k, n = 32, 48, 24
	a := randScaled(rng, m, k, 1)
	b := randScaled(rng, k, n, 1)
	// Per-element scalar rounding: the reference must not share the slice
	// kernels with the engines under test.
	for _, m := range []*dense.M32{a, b} {
		for i, v := range m.Data {
			m.Data[i] = f16.Round(v)
		}
	}
	cTC := dense.New[float32](m, n)
	cEC := dense.New[float32](m, n)
	(&TensorCore{}).Gemm(blas.NoTrans, blas.NoTrans, 1, a, b, 0, cTC)
	(&TCEC{}).Gemm(blas.NoTrans, blas.NoTrans, 1, a, b, 0, cEC)
	for i := range cTC.Data {
		if math.Float32bits(cTC.Data[i]) != math.Float32bits(cEC.Data[i]) {
			t.Fatalf("element %d: tc-ec %x differs from tc %x on fp16-exact inputs",
				i, math.Float32bits(cEC.Data[i]), math.Float32bits(cTC.Data[i]))
		}
	}
}

// TestTcEcTrackSpecials: the hi halves round exactly like the plain
// TensorCore's operands, so on any input the overflow/underflow counts of
// the two engines must match (the correction passes never count).
func TestTcEcTrackSpecials(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := specialsMat(rng, 40, 24)
	b := specialsMat(rng, 24, 16)
	tc := &TensorCore{TrackSpecials: true}
	ec := &TCEC{TrackSpecials: true}
	cTC := dense.New[float32](40, 16)
	cEC := dense.New[float32](40, 16)
	tc.Gemm(blas.NoTrans, blas.NoTrans, 1, a, b, 0, cTC)
	ec.Gemm(blas.NoTrans, blas.NoTrans, 1, a, b, 0, cEC)
	st, se := tc.Stats(), ec.Stats()
	if st.Overflows != se.Overflows || st.Underflow != se.Underflow {
		t.Fatalf("specials mismatch: tc ov=%d uf=%d, tc-ec ov=%d uf=%d",
			st.Overflows, st.Underflow, se.Overflows, se.Underflow)
	}
	if se.Overflows == 0 || se.Underflow == 0 {
		t.Fatalf("test matrix produced no specials (ov=%d uf=%d); not exercising the counters", se.Overflows, se.Underflow)
	}
	if se.Calls != 3*st.Calls {
		t.Fatalf("tc-ec calls = %d, want 3× the plain TC's %d (three passes per GEMM)", se.Calls, st.Calls)
	}
}

// TestTcEcOverflowSemantics: operands past 65504 must poison the result
// through the hi pass exactly as on the plain TensorCore — the ladder
// relies on overflow keeping its TC classification (counted, non-finite)
// so it never retries an overflow on tc-ec.
func TestTcEcOverflowSemantics(t *testing.T) {
	a := dense.New[float32](2, 2)
	a.Set(0, 0, 7e4) // past the fp16 max of 65504
	a.Set(1, 1, 1)
	b := dense.New[float32](2, 2)
	b.Set(0, 0, 1)
	b.Set(1, 1, 1)
	e := &TCEC{TrackSpecials: true}
	c := dense.New[float32](2, 2)
	e.Gemm(blas.NoTrans, blas.NoTrans, 1, a, b, 0, c)
	if st := e.Stats(); st.Overflows == 0 {
		t.Fatalf("overflowing operand not counted: %+v", st)
	}
	if !math.IsInf(float64(c.At(0, 0)), 1) {
		t.Fatalf("c(0,0) = %v, want +Inf from the saturated hi half", c.At(0, 0))
	}
}

// TestTcEcDeterminism: tc-ec GEMM results are Float32bits-identical across
// GOMAXPROCS settings — each of the three passes inherits the packed
// kernel's fixed tile ownership and ascending k-slab order, and the passes
// themselves run in a fixed sequence. This is the same contract the TSQR
// determinism suite pins for the other engines.
func TestTcEcDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const m, k, n = 96, 80, 64
	a := randScaled(rng, m, k, 1)
	b := randScaled(rng, k, n, 1)
	e := &TCEC{}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var baseline []uint32
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		c := dense.New[float32](m, n)
		e.Gemm(blas.NoTrans, blas.NoTrans, 1, a, b, 0, c)
		bits := make([]uint32, len(c.Data))
		for i, v := range c.Data {
			bits[i] = math.Float32bits(v)
		}
		if baseline == nil {
			baseline = bits
			continue
		}
		for i := range bits {
			if bits[i] != baseline[i] {
				t.Fatalf("GOMAXPROCS=%d: element %d bits %x differ from baseline %x", procs, i, bits[i], baseline[i])
			}
		}
	}
}

// TestSplitF32 pins the split's edge behaviour beyond what the fuzz target
// samples: exact reconstruction where hi is finite, saturation past it.
func TestSplitF32(t *testing.T) {
	cases := []float32{
		0, 1, -1, 1.5,
		1 + 0x1p-12 + 0x1p-23, // residual needs 13 significand bits — fp32 lo holds it
		65504, 65505, 3.4e38,  // saturation edge and beyond
		0x1p-14, 0x1p-24, 0x1p-30, // fp16 subnormal range
		math.MaxFloat32, -math.MaxFloat32,
	}
	for _, x := range cases {
		hi, lo := SplitF32(x)
		if math.IsInf(float64(hi), 0) {
			if lo != 0 {
				t.Errorf("SplitF32(%g): saturated hi with lo = %g, want 0", x, lo)
			}
			continue
		}
		if math.Float32bits(hi+lo) != math.Float32bits(x) {
			t.Errorf("SplitF32(%g): hi+lo = %g does not reconstruct", x, hi+lo)
		}
		if shifted := f16.ToFloat32Fast(f16.FromFloat32(lo * 0x1p11)); math.IsInf(float64(shifted), 0) {
			t.Errorf("SplitF32(%g): shifted residual %g overflows fp16", x, lo*0x1p11)
		}
	}
}

// residualKernel holds the vectorized pack hook of the correction passes,
// f16.ResidualInPlace, to the engine's own per-element definition: the lo
// half of SplitF32, shifted by 2¹¹ and rounded through binary16 by the
// scalar f16.Round. FuzzTcEcSplitRoundTrip drives the same pair.
var residualKernel = roundtest.Kernel{
	Name:     "residual-vs-SplitF32",
	Dispatch: roundtest.Uncounted(f16.ResidualInPlace),
	Scalar: roundtest.Uncounted(func(x []float32) {
		for i, v := range x {
			_, lo := SplitF32(v)
			x[i] = f16.Round(lo * 0x1p11)
		}
	}),
}

// TestResidualKernelMatchesSplitF32: the slice kernel the lo hook calls and
// the scalar SplitF32 definition agree bit for bit — at every short length
// and start offset over the hard-case table, and over the 2²²-pattern stride
// of the float32 bit space (internal/f16 sweeps all 2³² against its own
// scalar loop under -exhaustive).
func TestResidualKernelMatchesSplitF32(t *testing.T) {
	roundtest.Layouts(t, residualKernel)
	roundtest.Sweep(t, residualKernel, false)
}
