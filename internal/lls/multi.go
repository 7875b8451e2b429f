package lls

import (
	"fmt"
	"runtime"
	"sync"

	"tcqr/internal/dense"
	"tcqr/internal/hazard"
	"tcqr/internal/rgs"
)

// MultiSolution is the result of SolveMultiWithFactor: one column of X per
// column of B, with per-column refinement metadata.
type MultiSolution struct {
	X          *dense.M64
	Iterations []int
	Converged  []bool
	// Hazards[j] lists the refinement events of column j alone, in the order
	// a solo SolveWithFactor of B[:,j] records them.
	Hazards [][]hazard.Event
}

// SolveMultiWithFactor refines many right-hand sides over one precomputed
// factorization (so one factorization, recovered or not, is amortized over
// all columns of B): independent per-column refinements with opts.Method
// running concurrently — each column's iteration is independent given the
// shared preconditioner R, and column j is SolveWithFactor on B[:,j] bit for
// bit. Each column records into a Report of its own, returned
// in Hazards, so what one column reports does not depend on the others in
// the block; opts.Hazards is not written.
func SolveMultiWithFactor(f *rgs.Result, a *dense.M64, b *dense.M64, opts SolveOptions) (*MultiSolution, error) {
	if b == nil || b.Rows != a.Rows {
		rows := -1
		if b != nil {
			rows = b.Rows
		}
		return nil, fmt.Errorf("lls: B has %d rows but A has %d: %w", rows, a.Rows, hazard.ErrShape)
	}
	if f.Q.Rows != a.Rows || f.Q.Cols != a.Cols {
		return nil, fmt.Errorf("lls: factorization is %dx%d but A is %dx%d: %w", f.Q.Rows, f.Q.Cols, a.Rows, a.Cols, hazard.ErrShape)
	}
	if err := hazard.CheckMatrix("B", b); err != nil {
		return nil, fmt.Errorf("lls: %w", err)
	}

	nrhs := b.Cols
	out := &MultiSolution{
		X:          dense.New[float64](a.Cols, nrhs),
		Iterations: make([]int, nrhs),
		Converged:  make([]bool, nrhs),
		Hazards:    make([][]hazard.Event, nrhs),
	}
	errs := make([]error, nrhs)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for j := 0; j < nrhs; j++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(j int) {
			defer func() { <-sem; wg.Done() }()
			col := opts
			col.Hazards = &hazard.Report{}
			res, err := refineColumn(f, a, b.Col(j), col)
			if err != nil {
				errs[j] = err
				return
			}
			copy(out.X.Col(j), res.X)
			out.Iterations[j] = res.Iterations
			out.Converged[j] = res.Converged
			out.Hazards[j] = col.Hazards.Events()
		}(j)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
