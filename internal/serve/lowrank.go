package serve

import (
	"net/http"

	"tcqr"
)

func (s *Server) serveLowRank(rc *reqScope, w http.ResponseWriter, r *http.Request) error {
	var req lowRankRequest
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
	var (
		res  *tcqr.LowRankApprox
		lerr error
	)
	took, err := rc.onPool(func() {
		res, lerr = s.backend.LowRank(a, req.Rank, cfg)
	})
	if err != nil {
		return err
	}
	rc.stages.add(stageSolve, took)
	if lerr != nil {
		return lerr
	}
	sing := make([]float64, len(res.S))
	for i, v := range res.S {
		sing[i] = float64(v)
	}
	return rc.ok(w, &lowRankResponse{
		U:           fromMatrix(res.U),
		S:           sing,
		V:           fromMatrix(res.V),
		lowRankMeta: lowRankMeta{Rank: res.Rank, Hazards: rc.noteHazards(res.Hazards)},
	})
}
