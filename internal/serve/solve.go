package serve

import (
	"errors"
	"fmt"
	"net/http"

	"tcqr"
	"tcqr/internal/hazard"
)

func (s *Server) serveSolve(rc *reqScope, w http.ResponseWriter, r *http.Request) error {
	// Over the binary protocol the right-hand side is a zero-copy view into
	// the pooled frame buffer: no per-request copy of b on the cache-hit fast
	// path. The buffer is released after the response unless the solve was
	// abandoned on deadline (a task already dequeued still reads the view).
	var req solveRequest
	if aerr := rc.decodeRequest(r, &req); aerr != nil {
		return aerr
	}
	opts, err := req.Options.options()
	if err != nil {
		return err
	}
	rc.startDeadline(req.DeadlineMS)

	var (
		entry *Entry
		src   Source
	)
	switch {
	case req.Key != "" && req.Matrix != nil:
		return errBadInput("give key or matrix, not both")
	case req.Key != "":
		// A cached factorization keeps the config it was built with; a
		// config riding alongside a key would be silently ignored, so
		// reject it (mirroring the key+matrix conflict above).
		if req.Config != (WireConfig{}) {
			return errBadInput("config cannot accompany key: the cached factorization's config applies (re-send the matrix to factorize under a different config)")
		}
		// Route before the local lookup: a non-owner without the entry
		// forwards to the owners; exhausted candidates fall through to the
		// local (404) answer as the served_local_fallback outcome.
		if s.forward(w, rc, route{path: "/v1/solve", key: req.Key, keyOnly: true}, &req) {
			return nil
		}
		e, found := s.cache.Get(req.Key)
		if !found {
			return errUnknownKey(req.Key)
		}
		entry, src = e, SourceHit
	case req.Matrix != nil:
		a, aerr := s.resolveMatrix(req.Matrix)
		if aerr != nil {
			return aerr
		}
		cfg, cerr := req.Config.config()
		if cerr != nil {
			return cerr
		}
		key := rc.contentKey(a, cfg)
		if s.forward(w, rc, route{path: "/v1/solve", key: key}, &req) {
			return nil
		}
		var ferr error
		entry, src, ferr = s.factorEntry(rc, key, a, cfg)
		if ferr != nil {
			return ferr
		}
		if src == SourceMiss {
			// A solve that factored locally re-homes the entry to its owners
			// (replica fan-out / hinted handoff), exactly like a factorize.
			s.clusterReplicate(key, a, req.Config)
		}
	default:
		return errBadInput("missing key or matrix")
	}
	// entry is immutable: the solve reads the exact epoch this request
	// resolved no matter what updates and evictions do to the index meanwhile.
	rc.key = entry.Key
	rc.rows, rc.cols = entry.A.Rows, entry.A.Cols

	if len(req.B) != entry.A.Rows {
		return errBadInput(fmt.Sprintf("b holds %d elements; the matrix has %d rows", len(req.B), entry.A.Rows))
	}
	if err := hazard.CheckVec("b", req.B); err != nil {
		return err
	}

	var (
		res  *tcqr.LeastSquaresResult
		serr error
	)
	took, err := rc.onPool(func() {
		res, serr = s.backend.SolveWithFactor(entry.F, entry.A, req.B, opts)
		// Noted on the worker, so an upgrade it queues is in the pool before
		// this task leaves it, and AwaitIdle after the response waits for it.
		if serr == nil {
			s.noteSolve(entry, res.Iterations)
		}
	})
	if err != nil {
		if errors.Is(err, ErrDeadline) {
			// A worker that dequeued the task in the instant the deadline
			// fired still runs it, and reads b — our zero-copy view into the
			// pooled frame buffer. Leak the buffer to the collector rather
			// than recycle memory the solve may be about to read.
			rc.bodyBuf = nil
		}
		return err
	}
	rc.stages.add(stageSolve, took)
	if serr != nil {
		return serr
	}
	rc.iterations, rc.factor = res.Iterations, entry.provenance()
	return rc.ok(w, &solveResponse{
		X: res.X,
		solveMeta: solveMeta{
			Iterations: res.Iterations,
			Converged:  res.Converged,
			Optimality: res.Optimality,
			Key:        entry.Key,
			Cached:     src == SourceHit,
			Hazards:    rc.noteHazards(res.Hazards),
		},
	})
}
