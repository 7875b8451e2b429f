// Package lls implements the linear least squares solvers evaluated in
// Sections 3.2 and 4.2 of the paper:
//
//   - the QR direct solver x = R⁻¹·(Qᵀb), instantiated at float32
//     (SCuSOLVE = SGEQRF+SORMQR+STRSM) and float64 (DCuSOLVE) as the
//     baselines, and over an RGSQRF factorization as the half-precision
//     direct solver of Figure 9;
//   - CGLS with the RGSQRF R factor as right preconditioner (Algorithm 3),
//     the paper's novel refinement that recovers double-precision accuracy;
//   - preconditioned LSQR, the alternative Section 2.2 discusses, which
//     converges where CGLS diverges on fp16 and bf16 factors of inputs with
//     κ ≥ 1e6 and arithmetic or clustered spectra.
//
// A product that feeds an add is float64(x*y) + z, never fused on any port.
package lls

import (
	"fmt"

	"tcqr/internal/blas"
	"tcqr/internal/dense"
	"tcqr/internal/house"
	"tcqr/internal/rgs"
)

// DirectQR solves min ‖Ax − b‖ with a Householder QR direct solve in the
// working precision of T: factor A, apply Qᵀ to b, back-substitute with R.
// Instantiated at float32 this is the paper's SCuSOLVE baseline
// (SGEQRF+SORMQR+STRSM); at float64 it is DCuSOLVE.
func DirectQR[T dense.Float](a *dense.Matrix[T], b []T) []T {
	m, n := a.Rows, a.Cols
	if m < n {
		panic(fmt.Sprintf("lls: DirectQR needs m >= n, got %dx%d", m, n))
	}
	if len(b) != m {
		panic(fmt.Sprintf("lls: rhs length %d, want %d", len(b), m))
	}
	qr := house.Factor(a, 0)
	w := append([]T(nil), b...)
	qr.QTVec(w) // w = Qᵀb (full m vector; first n entries matter)
	x := w[:n:n]
	blas.Trsv(blas.Upper, blas.NoTrans, blas.NonUnit, qr.Factored.View(0, 0, n, n), x)
	return x
}

// DirectRGS solves min ‖Ax − b‖ using an existing RGSQRF factorization:
// x = R⁻¹·(Qᵀb) in float32. This is the "RGSQRF direct solver" line of
// Figure 9 — about two orders of magnitude less accurate than SCuSOLVE,
// which is why the CGLS refinement exists.
func DirectRGS(f *rgs.Result, b []float32) []float32 {
	m, n := f.Q.Rows, f.Q.Cols
	if len(b) != m {
		panic(fmt.Sprintf("lls: rhs length %d, want %d", len(b), m))
	}
	x := make([]float32, n)
	blas.Gemv(blas.Trans, 1, f.Q, b, 0, x)
	blas.Trsv(blas.Upper, blas.NoTrans, blas.NonUnit, f.R, x)
	return x
}
