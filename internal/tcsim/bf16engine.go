package tcsim

import (
	"sync/atomic"

	"tcqr/internal/bf16"
	"tcqr/internal/blas"
	"tcqr/internal/dense"
)

// BFloat16 is a TPU-style neural engine: GEMM operands are rounded to
// bfloat16 and products accumulate in float32 (the paper's §2.1 notes
// Google's TPU and Intel's bfloat16 hardware both accumulate in FP32).
// Compared with TensorCore it embodies the other side of the half-
// precision trade-off: ~10× coarser resolution (unit roundoff 2⁻⁸ vs
// 2⁻¹¹) but the full float32 exponent range, so the §3.5 overflow hazard
// essentially disappears — at the cost of ~8× larger rounding errors in
// every result. The zero value is ready to use.
type BFloat16 struct {
	// TrackSpecials counts operands that still overflow (only possible at
	// the extreme top of the float32 range).
	TrackSpecials bool

	counters
}

// bfHook rounds packed GEMM panels through bfloat16. The RoundCount wrapper
// is a package-level closure, allocated once at init, so the hot path stays
// allocation-free. It does not declare Binary16: a product of two bfloat16
// values can underflow or overflow binary32, so its GEMMs round each product
// before the sum.
var bfHook = blas.PackHook[float32]{
	Round: bf16.RoundInPlace,
	RoundCount: func(panel []float32) (overflow, underflow int64) {
		return bf16.RoundInPlaceCount(panel), 0
	},
}

// Gemm implements Engine with bfloat16 operand rounding and float32
// accumulation. Rounding (and overflow accounting) is fused into the packed
// kernel's operand packing, so no rounded copies are materialized.
func (e *BFloat16) Gemm(tA, tB blas.Transpose, alpha float32, a, b *dense.M32, beta float32, c *dense.M32) {
	recordCall(e.Name(), &e.stats, tA, a, tB, b)
	ov, _ := blas.GemmHooked(tA, tB, alpha, a, b, beta, c, &bfHook, &bfHook, e.TrackSpecials)
	if e.TrackSpecials {
		atomic.AddInt64(&e.stats.Overflows, ov)
	}
	gemmFault(c)
}

// Name implements Engine.
func (e *BFloat16) Name() string { return kinds[KindBF16].gemm }
