// Package tcsim simulates the numerical behaviour of a neural engine
// (NVIDIA TensorCore) matrix-multiply unit in software, and provides the
// pluggable compute-engine abstraction the QR algorithms are written
// against.
//
// The V100 tensor core contract, which all accuracy results in the paper
// derive from, is:
//
//   - both GEMM operands are converted to IEEE binary16 with
//     round-to-nearest-even (values above 65504 in magnitude become ±Inf);
//   - products of binary16 operands are formed exactly (an 11×11-bit
//     significand product fits in binary32's 24-bit significand, and its
//     magnitude, in [2⁻⁴⁸, 2³²], in binary32's normal range);
//   - accumulation happens in binary32.
//
// The simulator reproduces this bit-for-bit by rounding the operands through
// binary16 (see internal/f16) and then running a float32 GEMM, whose
// products are exact and whose additions round in binary32 — the same
// pipeline as the hardware, with a fixed deterministic accumulation order.
// Because the products are exact, the GEMM may fuse each into its sum
// (blas.PackHook.Binary16): the same bits at the host's multiply-add rate.
//
// Engines (one Kind each; the table in kind.go is the repository's only
// copy of their names, roundoffs and recovery order):
//
//   - TensorCore: the half-precision unit described above (TC-GEMM).
//   - TCEC: the error-corrected TensorCore, three TC passes per GEMM.
//   - BFloat16: bfloat16 operands, float32 accumulation.
//   - FP32: plain float32 GEMM (cuBLAS SGEMM stand-in).
//
// All satisfy the Engine interface consumed by internal/rgs, internal/gram
// and internal/lls, so every algorithm in the repository can be run with the
// neural engine enabled or disabled, which is exactly the ablation in
// Figure 7 of the paper.
package tcsim

import (
	"math"
	"sync/atomic"

	"tcqr/internal/blas"
	"tcqr/internal/dense"
	"tcqr/internal/f16"
	"tcqr/internal/faultinject"
)

// Engine is a GEMM provider. Implementations must be safe for concurrent
// use.
type Engine interface {
	// Gemm computes C ← α·op(A)·op(B) + β·C in the engine's arithmetic.
	Gemm(tA, tB blas.Transpose, alpha float32, a, b *dense.M32, beta float32, c *dense.M32)
	// Name identifies the engine in reports ("TC-GEMM", "SGEMM").
	Name() string
}

// Stats counts the work an engine has performed. All fields are updated
// atomically so engines can be shared across goroutines.
type Stats struct {
	Calls     int64 // number of GEMM invocations
	Flops     int64 // 2·m·n·k per call
	Overflows int64 // finite operands that became ±Inf in fp16 (TensorCore only)
	Underflow int64 // nonzero operands that flushed to zero in fp16
}

// FP32 is the plain single-precision engine (the paper's SGEMM baseline).
// The zero value is ready to use.
type FP32 struct {
	counters
}

// Gemm implements Engine using float32 arithmetic throughout.
func (e *FP32) Gemm(tA, tB blas.Transpose, alpha float32, a, b *dense.M32, beta float32, c *dense.M32) {
	recordCall(e.Name(), &e.stats, tA, a, tB, b)
	blas.Gemm(tA, tB, alpha, a, b, beta, c)
	gemmFault(c)
}

// Name implements Engine.
func (e *FP32) Name() string { return kinds[KindFP32].gemm }

// TensorCore is the simulated neural engine: fp16 operands, fp32
// accumulation. The zero value is ready to use.
type TensorCore struct {
	// TrackSpecials enables counting of fp16 overflow/underflow events in
	// the operands (an extra pass over the data). The column-scaling
	// safeguard tests use this to demonstrate that scaling eliminates
	// overflow.
	TrackSpecials bool

	counters
}

// tcHook rounds packed GEMM panels through binary16. A package-level value
// so the hot path never allocates a closure. It declares its results
// binary16, so a GEMM of two such panels forms every product exactly and the
// packed GEMM may fuse them into the float32 sums without changing a bit.
var tcHook = blas.PackHook[float32]{
	Round:      f16.RoundInPlace,
	RoundCount: f16.RoundInPlaceCount,
	Binary16:   true,
}

// Gemm implements Engine with TensorCore semantics: both operands are
// rounded through binary16 (±Inf past 65504) and the multiply-accumulate
// runs in float32. The rounding — and, with TrackSpecials, the
// overflow/underflow accounting — is fused into the packed kernel's operand
// packing via blas.GemmHooked, so no rounded operand copies are ever
// materialized and the call is allocation-free after pool warmup.
func (e *TensorCore) Gemm(tA, tB blas.Transpose, alpha float32, a, b *dense.M32, beta float32, c *dense.M32) {
	recordCall(e.Name(), &e.stats, tA, a, tB, b)
	ov, uf := blas.GemmHooked(tA, tB, alpha, a, b, beta, c, &tcHook, &tcHook, e.TrackSpecials)
	if e.TrackSpecials {
		atomic.AddInt64(&e.stats.Overflows, ov)
		atomic.AddInt64(&e.stats.Underflow, uf)
	}
	gemmFault(c)
}

// Name implements Engine.
func (e *TensorCore) Name() string { return kinds[KindTC].gemm }

// SiteGemm is the failpoint every engine GEMM evaluates (internal/faultinject).
const SiteGemm = "tcsim.gemm"

// gemmFault evaluates the SiteGemm failpoint after an engine has written c. A corrupt rule poisons c's first element with NaN — the
// hazard-detection battery's job is to catch exactly this class of silent
// engine fault; delay and panic rules behave as at any other site. Disarmed
// it costs one atomic load per GEMM.
func gemmFault(c *dense.M32) {
	faultinject.Corrupt(SiteGemm, func() {
		if len(c.Data) > 0 {
			c.Data[0] = float32(math.NaN())
		}
	})
}

func recordCall(engine string, s *Stats, tA blas.Transpose, a *dense.M32, tB blas.Transpose, b *dense.M32) {
	m, k := a.Rows, a.Cols
	if tA == blas.Trans {
		m, k = k, m
	}
	n := b.Cols
	if tB == blas.Trans {
		n = b.Rows
	}
	atomic.AddInt64(&s.Calls, 1)
	atomic.AddInt64(&s.Flops, 2*int64(m)*int64(n)*int64(k))
	observeGemm(engine, m, n, k)
}

// counters is the work accounting every engine embeds.
type counters struct{ stats Stats }

// Stats returns a snapshot of the accumulated counters.
func (c *counters) Stats() Stats {
	return Stats{
		Calls:     atomic.LoadInt64(&c.stats.Calls),
		Flops:     atomic.LoadInt64(&c.stats.Flops),
		Overflows: atomic.LoadInt64(&c.stats.Overflows),
		Underflow: atomic.LoadInt64(&c.stats.Underflow),
	}
}
