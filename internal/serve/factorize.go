package serve

import (
	"fmt"
	"net/http"
	"time"

	"tcqr"
)

// startDeadline sets the request's compute deadline, counted from now: the
// client's deadline_ms when given, the server default otherwise, whichever
// is sooner. It is the one deadline of the request: the pool wait ends at
// it, and a peer forward carries what is left of it.
func (rc *reqScope) startDeadline(deadlineMS int64) {
	d := rc.s.opts.DefaultDeadline
	if deadlineMS > 0 {
		if cd := time.Duration(deadlineMS) * time.Millisecond; cd < d {
			d = cd
		}
	}
	rc.deadline = time.Now().Add(d)
}

// resolveMatrix validates an uploaded matrix against the size cap.
func (s *Server) resolveMatrix(wm *WireMatrix) (*tcqr.Matrix, *apiError) {
	a, err := wm.matrix()
	if err != nil {
		return nil, classifyError(err)
	}
	// matrix() guarantees Rows*Cols == len(Data), so the product is an exact
	// int; the int64 widening keeps this cap overflow-proof regardless.
	if n := int64(a.Rows) * int64(a.Cols); n > int64(s.opts.MaxElements) {
		return nil, &apiError{status: http.StatusRequestEntityTooLarge, code: "too_large",
			msg: fmt.Sprintf("matrix has %d elements; the server caps uploads at %d", n, s.opts.MaxElements)}
	}
	return a, nil
}

// contentKey derives the cache key of a request that carries its matrix,
// charged to the key stage.
func (rc *reqScope) contentKey(a *tcqr.Matrix, cfg tcqr.Config) string {
	t0 := time.Now()
	key := CacheKey(a, cfg)
	rc.stages.add(stageKey, time.Since(t0))
	return key
}

// factorEntry runs GetOrFactor through the pool, charging queue and key (a
// hit) or factorize (anything else) stage time plus the panel counter for
// factorizations actually performed.
func (s *Server) factorEntry(rc *reqScope, key string, a *tcqr.Matrix, cfg tcqr.Config) (*Entry, Source, error) {
	var (
		entry *Entry
		src   Source
		ferr  error
	)
	took, err := rc.onPool(func() {
		entry, src, ferr = s.cache.GetOrFactor(key, a, cfg)
	})
	if err != nil {
		return nil, 0, err
	}
	// A hit's time on the worker is the comparison of a with the entry's
	// matrix.
	if src == SourceHit {
		rc.stages.add(stageKey, took)
	} else {
		rc.stages.add(stageFactorize, took)
	}
	if src == SourceMiss {
		s.metrics.panels.With(cfg.Panel.String()).Inc()
	}
	if ferr != nil {
		return nil, 0, ferr
	}
	return entry, src, nil
}

func (s *Server) serveFactorize(rc *reqScope, w http.ResponseWriter, r *http.Request) error {
	var req factorizeRequest
	if aerr := rc.decodeRequest(r, &req); aerr != nil {
		return aerr
	}
	a, aerr := s.resolveMatrix(req.Matrix)
	if aerr != nil {
		return aerr
	}
	rc.rows, rc.cols = a.Rows, a.Cols
	cfg, err := req.Config.config()
	if err != nil {
		return err
	}
	rc.startDeadline(req.DeadlineMS)
	key := rc.contentKey(a, cfg)
	rc.key = key
	if s.forward(w, rc, route{path: "/v1/factorize", key: key}, &req) {
		return nil
	}
	return s.factorizeReply(w, rc, key, a, cfg, req.Config)
}

// factorizeReply is the shared tail of the one-shot and the streamed
// factorize: factor (or find) the entry under key, re-home a fresh one to
// the key's owners, and answer with the factorizeResponse.
func (s *Server) factorizeReply(w http.ResponseWriter, rc *reqScope, key string, a *tcqr.Matrix, cfg tcqr.Config, wcfg WireConfig) error {
	entry, src, err := s.factorEntry(rc, key, a, cfg)
	if err != nil {
		return err
	}
	if src == SourceMiss {
		s.clusterReplicate(key, a, wcfg)
	}
	// The entry's own key addresses it from here on: key itself, unless that
	// name was another matrix's (a salted name, or none for an uncached one).
	rc.key = entry.Key
	f := entry.F
	return rc.ok(w, &factorizeResponse{
		Key:              entry.Key,
		Rows:             a.Rows,
		Cols:             a.Cols,
		Cached:           src == SourceHit,
		Shared:           src == SourceShared,
		Reorthogonalized: f.Reorthogonalized,
		EngineStats: wireEngineStats{
			GemmCalls:  f.EngineStats.GemmCalls,
			Flops:      f.EngineStats.Flops,
			Overflows:  f.EngineStats.Overflows,
			Underflows: f.EngineStats.Underflows,
		},
		Hazards: rc.noteHazards(f.Hazards),
	})
}
