package tcqr

import (
	"fmt"
	"time"

	"tcqr/internal/blas"
	"tcqr/internal/dense"
	"tcqr/internal/hazard"
	"tcqr/internal/rgs"
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
// FactorizeTall run, mirrored from tsqr.Stats. When ReOrthogonalize ran,
// the timings cover the first pass (the second pass repeats the same
// pipeline on the computed Q).
type TSQRInfo struct {
	// Blocks is the leaf row-block count of the canonical partition.
	Blocks int
	// Levels is the R-reduction tree depth (0 for a single block).
	Levels int
	// Workers is the effective scheduling bound.
	Workers int
	// BlockRows is the effective canonical chunk height.
	BlockRows int
	// BlockFactor holds per-block factorization wall times, by block index.
	BlockFactor []time.Duration
	// Reduce is the wall time of the R reduction tree.
	Reduce time.Duration
	// Recover is the wall time of sign canonicalization + explicit-Q
	// recovery.
	Recover time.Duration
}

// FactorizeTall computes the same factorization contract as Factorize —
// A = Q·R, hazard-typed errors, OnHazard fallback semantics — through the
// parallel Direct TSQR pipeline: row blocks factorized concurrently, R
// factors tree-reduced with sign canonicalization, explicit Q recovered by
// batched GEMM (see internal/tsqr).
//
// Numerical differences from Factorize: all GEMMs run in FP32 (cfg.Engine
// and cfg.TensorCoreInPanel do not apply, so EngineStats stays zero and
// fp16 overflow hazards cannot occur), and R carries a non-negative
// diagonal by construction. Panel selection, column scaling, and the
// breakdown escalation ladder are shared with the serial path. The result
// backs solves exactly like a serial Factorization.
func FactorizeTall(a *Matrix32, opt TallOptions, cfg Config) (*Factorization, error) {
	if err := hazard.CheckMatrix("A", a); err != nil {
		return nil, fmt.Errorf("tcqr: %w", err)
	}
	if a.Rows < a.Cols {
		return nil, fmt.Errorf("tcqr: matrix is %dx%d; TSQR requires m >= n: %w", a.Rows, a.Cols, ErrShape)
	}
	rep := &hazard.Report{}
	// The TSQR pipeline is all-FP32, so its ladder is the FP32 engine's:
	// only the column-scaling rung can change the outcome. The panel
	// escalation ladder runs inside each block via panelFor.
	cfg.Engine = EngineFP32
	f, err := withFallback(cfg, "factorize", rep, engineLadder, func(c Config) (*Factorization, error) {
		return factorizeTallOnce(a, opt, c, rep)
	})
	if err != nil {
		return nil, err
	}
	f.Hazards = rep.Events()
	return f, nil
}

// factorizeTallOnce runs one TSQR pass: scale columns, factor through
// internal/tsqr with the cfg-selected panel, unscale R, optionally
// re-orthogonalize, and validate finiteness.
func factorizeTallOnce(a *Matrix32, opt TallOptions, cfg Config, rep *hazard.Report) (*Factorization, error) {
	w := a
	var scales []float32
	if !cfg.DisableColumnScaling {
		w = a.Clone()
		scales = rgs.ScaleColumns(w)
	}
	topts := tsqr.Options{
		BlockRows: opt.BlockRows,
		Workers:   opt.Workers,
		Panel:     cfg.panelFor(nil, rep),
	}
	res, err := tsqr.Factor(w, topts)
	if err != nil {
		return nil, err
	}
	q, r := res.Q, res.R
	if scales != nil {
		// A·P = Q·(R·P) was factored; unscale the columns of R (exact —
		// powers of two). Sign canonicalization commutes with the positive
		// scales, so the diagonal stays non-negative.
		for j := 0; j < r.Cols; j++ {
			if scales[j] != 1 {
				blas.Scal(1/scales[j], r.Col(j)[:j+1])
			}
		}
	}

	if cfg.ReOrthogonalize {
		// "Twice is enough": factor the computed Q through the same
		// pipeline (its columns are already ~unit norm, so no scaling) and
		// fold R₂ into R.
		second, err := tsqr.Factor(q, topts)
		if err != nil {
			return nil, err
		}
		n := r.Cols
		newR := dense.New[float32](n, n)
		blas.Gemm(blas.NoTrans, blas.NoTrans, 1, second.R, r, 0, newR)
		for j := 0; j < n; j++ {
			col := newR.Col(j)
			for i := j + 1; i < n; i++ {
				if col[i] != 0 {
					return nil, fmt.Errorf("tcqr: re-orthogonalization broke triangularity at (%d,%d): %w", i, j, ErrBreakdown)
				}
			}
		}
		q, r = second.Q, newR
	}

	f := &Factorization{
		Q:                q,
		R:                r,
		ColumnScales:     scales,
		Reorthogonalized: cfg.ReOrthogonalize,
		TSQR: &TSQRInfo{
			Blocks:      res.Blocks,
			Levels:      res.Levels,
			Workers:     res.Stats.Workers,
			BlockRows:   res.Stats.BlockRows,
			BlockFactor: res.BlockFactor,
			Reduce:      res.Reduce,
			Recover:     res.Stats.Recover,
		},
	}
	if !hazard.MatrixFinite(f.Q) || !hazard.MatrixFinite(f.R) {
		return nil, fmt.Errorf("tcqr: factors are non-finite: %w", ErrNonFinite)
	}
	return f, nil
}
