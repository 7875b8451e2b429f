package tcqr

import (
	"tcqr/internal/dense"
	"tcqr/internal/hazard"
	"tcqr/internal/rgs"
	"tcqr/internal/tcsim"
	"tcqr/internal/tsqr"
)

// TallOptions shapes the parallel Direct TSQR pipeline (FactorizeTall).
type TallOptions struct {
	// BlockRows is the canonical row-chunk height of the numerical
	// partition (0 = tsqr.DefaultBlockRows). It is part of the result's
	// identity: runs agree bit-for-bit exactly when BlockRows agrees.
	BlockRows int
	// Workers bounds concurrent block factorizations (<= 0 = GOMAXPROCS).
	// Scheduling only — never changes result bits.
	Workers int
}

// TSQRInfo reports the block/tree shape and per-stage wall timings of a
// FactorizeTall run. When ReOrthogonalize ran, the timings cover the first
// pass (the second pass repeats the same pipeline on the computed Q).
type TSQRInfo = tsqr.Stats

// FactorizeTall computes the same factorization contract as Factorize —
// A = Q·R, hazard-typed errors, OnHazard fallback semantics — through the
// parallel Direct TSQR pipeline: row blocks factorized concurrently, R
// factors tree-reduced with sign canonicalization, explicit Q recovered by
// batched GEMM (see internal/tsqr).
//
// Numerical differences from Factorize: all GEMMs run in FP32 (cfg.Engine
// and cfg.TensorCoreInPanel do not apply, so EngineStats stays zero and
// fp16 overflow hazards cannot occur), and R carries a non-negative
// diagonal by construction. Everything around the kernel — panel selection,
// column scaling, re-orthogonalization, the breakdown escalation ladder — is
// the serial path's own code. The result backs solves exactly like a serial
// Factorization.
func FactorizeTall(a *Matrix32, opt TallOptions, cfg Config) (*Factorization, error) {
	// The TSQR pipeline is all-FP32, so its ladder is the FP32 engine's:
	// only the column-scaling rung can change the outcome. The panel
	// escalation ladder runs inside each block via panelFor.
	cfg.Engine = EngineFP32
	return factorizeLadder(a, cfg, "TSQR", func(a *Matrix32, c Config, rep *hazard.Report) (*Factorization, error) {
		return factorizeTallOnce(a, opt, c, rep)
	})
}

// factorizeTallOnce runs one rung of the ladder: the shared safeguard
// envelope (rgs.FactorWith) around the Direct TSQR kernel with the
// cfg-selected panel.
func factorizeTallOnce(a *Matrix32, opt TallOptions, cfg Config, rep *hazard.Report) (*Factorization, error) {
	topts := tsqr.Options{
		BlockRows: opt.BlockRows,
		Workers:   opt.Workers,
		Panel:     cfg.panelFor(nil, rep),
	}
	var info *TSQRInfo // the first pass's
	res, err := rgs.FactorWith(a, cfg.DisableColumnScaling, cfg.ReOrthogonalize, func(w *dense.M32) (q, r *dense.M32, err error) {
		t, err := tsqr.Factor(w, topts)
		if err != nil {
			return nil, nil, err
		}
		if info == nil {
			st := t.Stats
			info = &st
		}
		return t.Q, t.R, nil
	})
	if err != nil {
		return nil, err
	}
	f, err := wrapFactors(res, tcsim.Stats{})
	if err != nil {
		return nil, err
	}
	f.TSQR = info
	return f, nil
}
