package tcsim

import (
	"math"
	"sync/atomic"

	"tcqr/internal/blas"
	"tcqr/internal/dense"
	"tcqr/internal/f16"
)

// TCEC is the error-corrected TensorCore engine of Ootomo & Yokota
// ("Recovering single precision accuracy from Tensor Cores while surpassing
// the FP32 theoretical peak", arXiv 2203.03341). Each fp32 operand x is
// split into a binary16-representable hi half and a residual lo half,
//
//	hi = fl16(x)            (widened back to fp32)
//	lo = x − hi             (exact in fp32 whenever hi is finite)
//
// and the product is assembled from three TensorCore-semantics GEMMs with
// fp32 accumulation:
//
//	A·B ≈ Ahi·Bhi + 2⁻¹¹·(Ahi·Blo' + Alo'·Bhi),   lo' = fl16(lo·2¹¹)
//
// The 2¹¹ pre-shift is the Ootomo exponent-shift trick: the residual of a
// binary16 rounding is at most half an ulp, so lo·2¹¹ always fits the
// binary16 range (max ½·ulp = 16 at the top binade; 16·2¹¹ = 32768 < 65504)
// and the shift lifts fp16-subnormal residuals back into the normal range
// where all 11 significand bits survive. The lo·lo term, bounded by
// 2⁻²²·|A||B|, is dropped — exactly the 2-correction variant the paper
// benchmarks. The result carries ≈2⁻²² worst-case elementwise error versus
// the exact product: fp32-grade, versus 2⁻¹¹ for the plain TensorCore.
//
// What tc-ec does NOT fix is the exponent range: the hi half saturates to
// ±Inf past 65504 exactly like the plain TensorCore (the §3.5 overflow
// hazard), so the recovery ladder only tries this engine for accuracy
// (breakdown) failures, never for overflow.
//
// Splitting is fused into the packed kernel's operand packing via
// blas.GemmHooked — no hi/lo operand copies are ever materialized and the
// call is allocation-free after pool warmup, like TC/BF16. Each logical
// GEMM issues three TensorCore passes, and Stats/metrics count every pass:
// Calls and Flops reflect the real device cost (3× a plain TC GEMM of the
// same shape). The zero value is ready to use.
type TCEC struct {
	// TrackSpecials counts fp16 overflow/underflow events in the hi halves
	// (the pass whose rounding matches the plain TensorCore; the shifted
	// residuals cannot overflow by construction and their underflow is not
	// an operand-loss event).
	TrackSpecials bool

	counters
}

// SplitF32 is the operand split the engine applies at pack time: hi is x
// rounded through binary16 (round-to-nearest-even, widened back to fp32)
// and lo is the exact fp32 residual x − hi. For every x whose hi half is
// finite — the entire ±65504 envelope the column-scaling safeguard
// guarantees — the subtraction is exact (Sterbenz in the fp16-normal range,
// shared-grid representability below it), so hi + lo == x at the bit level;
// this is the FuzzTcEcSplitRoundTrip property. Past the envelope hi
// saturates to ±Inf like the plain TensorCore and lo is defined as 0: the
// overflow is the hi pass's hazard to report, not the residual's.
func SplitF32(x float32) (hi, lo float32) {
	hi = f16.ToFloat32Fast(f16.FromFloat32(x))
	if math.IsInf(float64(hi), 0) {
		return hi, 0
	}
	return hi, x - hi
}

// loHook packs the residual halves: f16.ResidualInPlace rewrites a packed
// panel with lo' = fl16(lo·2¹¹), lo as SplitF32 defines it (the slice kernel
// is vectorized; SplitF32 stays the scalar definition the tests hold it to).
// Zero padding stays zero, so packed tails never contribute. A package-level
// value so the hot path never allocates a closure. The correction passes
// never track specials, so RoundCount only has to preserve the rounding
// behaviour. lo' is a binary16 value like hi, so every pass multiplies
// binary16 by binary16 and takes the exact-product kernels.
var loHook = blas.PackHook[float32]{
	Round: f16.ResidualInPlace,
	RoundCount: func(panel []float32) (overflow, underflow int64) {
		f16.ResidualInPlace(panel)
		return 0, 0
	},
	Binary16: true,
}

// Gemm implements Engine with the error-corrected TensorCore semantics:
// C ← α·(Ahi·Bhi + 2⁻¹¹(Ahi·Blo' + Alo'·Bhi)) + β·C, every pass rounding
// its operands through binary16 at pack time and accumulating in float32.
// The hi·hi pass runs first (carrying β and, with TrackSpecials, the
// overflow/underflow accounting — identical to the plain TensorCore), then
// the two correction passes accumulate into C with α scaled by the exact
// power of two 2⁻¹¹ that undoes the residual pre-shift.
func (e *TCEC) Gemm(tA, tB blas.Transpose, alpha float32, a, b *dense.M32, beta float32, c *dense.M32) {
	recordCall(e.Name(), &e.stats, tA, a, tB, b)
	ov, uf := blas.GemmHooked(tA, tB, alpha, a, b, beta, c, &tcHook, &tcHook, e.TrackSpecials)
	if e.TrackSpecials {
		atomic.AddInt64(&e.stats.Overflows, ov)
		atomic.AddInt64(&e.stats.Underflow, uf)
	}
	if alpha != 0 {
		corr := alpha * 0x1p-11
		recordCall(e.Name(), &e.stats, tA, a, tB, b)
		blas.GemmHooked(tA, tB, corr, a, b, 1, c, &tcHook, &loHook, false)
		recordCall(e.Name(), &e.stats, tA, a, tB, b)
		blas.GemmHooked(tA, tB, corr, a, b, 1, c, &loHook, &tcHook, false)
	}
	gemmFault(c)
}

// Name implements Engine.
func (e *TCEC) Name() string { return kinds[KindTCEC].gemm }
