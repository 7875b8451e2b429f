package serve

import (
	"fmt"
	"net/http"

	"tcqr"
	"tcqr/internal/faultinject"
	"tcqr/internal/qrupdate"
)

// serveUpdate is POST /v1/update: an incremental mutation of the cached
// factorization behind a key — append a row block or downdate trailing rows
// — published as the next epoch of the key's series. The update touches R
// alone, at O(k·n²) (internal/qrupdate), not a refactorization; in-flight
// solves keep reading the epoch they resolved (entries are immutable).
func (s *Server) serveUpdate(rc *reqScope, w http.ResponseWriter, r *http.Request) error {
	var req updateRequest
	if aerr := rc.decodeRequest(r, &req); aerr != nil {
		return aerr
	}
	if req.Key == "" {
		return errBadInput("missing key")
	}
	if (req.Append != nil) == (req.RemoveRows != 0) {
		return errBadInput("give append or remove_rows, exactly one")
	}
	if req.RemoveRows < 0 {
		return errBadInput("remove_rows must be positive")
	}
	rc.key = req.Key
	var v64 *tcqr.Matrix
	if req.Append != nil {
		var aerr *apiError
		if v64, aerr = s.resolveMatrix(req.Append); aerr != nil {
			return aerr
		}
	}
	rc.startDeadline(req.DeadlineMS)
	// Updates must run where the series lives (the epoch chain is node-local
	// state): a node without it routes to the base key's owners exactly like
	// a by-key solve it cannot answer.
	if s.forward(w, rc, route{path: "/v1/update", key: req.Key, keyOnly: true}, &req) {
		return nil
	}
	old, berr := s.cache.BeginUpdate(req.Key)
	if berr != nil {
		return errUnknownKey(req.Key)
	}
	// Shape checks against the epoch being updated, before any compute.
	if k := req.RemoveRows; k > 0 && old.A.Rows-k < old.A.Cols {
		s.cache.AbortUpdate(old)
		return errBadInput(fmt.Sprintf("removing %d of %d rows leaves fewer rows than the %d columns", k, old.A.Rows, old.A.Cols))
	}
	if v64 != nil {
		if v64.Cols != old.A.Cols {
			s.cache.AbortUpdate(old)
			return errBadInput(fmt.Sprintf("append block has %d columns; the factorization has %d", v64.Cols, old.A.Cols))
		}
		if n := int64(old.A.Rows+v64.Rows) * int64(old.A.Cols); n > int64(s.opts.MaxElements) {
			s.cache.AbortUpdate(old)
			return &apiError{status: http.StatusRequestEntityTooLarge, code: "too_large",
				msg: fmt.Sprintf("updated matrix would have %d elements; the server caps matrices at %d", n, s.opts.MaxElements)}
		}
	}
	var (
		v    *tcqr.Matrix32
		nf   *tcqr.Factorization
		uerr error
	)
	if v64 != nil {
		v = tcqr.ToFloat32(v64)
	}
	took, err := rc.onPool(func() {
		// Failpoint: an injected error here aborts the update after the
		// series was latched — the recovery path that must leave the
		// current epoch published and the series unlocked.
		var nr *tcqr.Matrix32
		switch uerr = faultinject.Fire(siteUpdateApply); {
		case uerr != nil:
		case v != nil:
			nr, uerr = s.backend.UpdateAppendRows(old.F.R, v)
		default:
			nr, uerr = s.backend.UpdateRemoveRows(old.F.R, old.A, req.RemoveRows)
			if uerr != nil && old.Config.OnHazard == tcqr.HazardFallback {
				// As in the library: factorize the remaining rows, A's own.
				ev := qrupdate.FallbackEvent(uerr)
				if nf, uerr = s.backend.Factorize(dropRows64(old.A, req.RemoveRows), old.Config); uerr == nil {
					nf.Hazards = append([]tcqr.Hazard{ev}, nf.Hazards...)
				}
				return
			}
		}
		nf = &tcqr.Factorization{R: nr}
	})
	if err == nil {
		rc.stages.add(stageUpdate, took)
		err = uerr
	}
	if err != nil {
		s.cache.AbortUpdate(old)
		s.metrics.updateFailed.Inc()
		return err
	}
	// Rebuild the refinement matrix for the new epoch (solves need A at
	// full precision) and publish atomically.
	var na *tcqr.Matrix
	if v64 != nil {
		na = appendRows64(old.A, v64)
		s.metrics.updateApplied.With("append").Inc()
	} else {
		na = dropRows64(old.A, req.RemoveRows)
		s.metrics.updateApplied.With("downdate").Inc()
	}
	s.metrics.updateRows.Add(int64(absInt(na.Rows - old.A.Rows)))
	ne := s.cache.PublishUpdate(old, na, nf)
	rc.key = ne.Key
	rc.rows, rc.cols = na.Rows, na.Cols
	return rc.ok(w, &updateResponse{
		Key:     ne.Key,
		BaseKey: baseKey(ne.Key),
		Epoch:   ne.Epoch,
		Rows:    na.Rows,
		Cols:    na.Cols,
		Hazards: rc.noteHazards(nf.Hazards),
	})
}

// appendRows64 stacks v under a (both tight or strided column-major).
func appendRows64(a, v *tcqr.Matrix) *tcqr.Matrix {
	out := tcqr.NewMatrix(a.Rows+v.Rows, a.Cols)
	for j := 0; j < a.Cols; j++ {
		col := out.Col(j)
		copy(col, a.Data[j*a.Stride:j*a.Stride+a.Rows])
		copy(col[a.Rows:], v.Data[j*v.Stride:j*v.Stride+v.Rows])
	}
	return out
}

// dropRows64 returns a without its trailing k rows as a view of a's storage
// (stride a.Stride), not a copy: no code writes an Entry.A after publish, so
// the downdated epoch may share its parent's. Solves, spill encoding,
// appendRows64 and cluster forwarding all read A through its stride.
func dropRows64(a *tcqr.Matrix, k int) *tcqr.Matrix {
	return a.View(0, 0, a.Rows-k, a.Cols)
}

func absInt(n int) int {
	if n < 0 {
		return -n
	}
	return n
}
