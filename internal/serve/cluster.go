package serve

import (
	"context"
	"net/http"
	"time"

	"tcqr"
	"tcqr/internal/cluster"
	"tcqr/internal/wirefmt"
)

// This file is the serve side of the cluster tier (DESIGN.md §14): the
// route-or-serve-local decision for keyed requests, the peer-bound frame,
// response relay, and the replica fan-out after a local miss.
// internal/cluster deals in opaque frames and peer state; this file owns the
// request vocabulary, so the split keeps the import direction one-way.
//
// Decision order for a keyed request on a cluster-enabled node:
//
//  1. forwarded_in — the loop-guard header is present: a peer already routed
//     this request here; serve locally, never re-forward.
//  2. local_hit — the key is resident in the local cache. Content-hashed
//     entries are immutable, so a local copy is always as good as the
//     owner's.
//  3. local_owner — this node is in the key's owner set AND can serve the
//     request locally. A by-key solve that misses the local cache cannot —
//     the local answer is a guaranteed 404 — so an owner-miss on a by-key
//     solve routes like a non-owner instead (decision 4): another owner may
//     hold the replica this node never received.
//  4. forward — try the key's owners in preference order; relay the first
//     usable answer (served_remote), or serve locally after the candidates
//     are exhausted (served_local_fallback).
//
// Every request that reaches decision 4 terminates exactly once in
// served_remote or served_local_fallback — the accounting invariant the
// chaos soak asserts.

// route says how an endpoint's keyed request travels the cluster tier.
type route struct {
	path string // the peer endpoint the request is forwarded to
	key  string // the cache key whose owners serve it
	// keyOnly marks a request that cannot be served from its own payload (a
	// by-key solve, an update): see clusterRoute and tryCandidates for what
	// that changes.
	keyOnly bool
}

// forward is the route stage of every keyed endpoint. It returns true when
// the response has been written (a relayed peer answer); false means the
// caller serves locally. The forwarded frame is req through the same encoder
// that writes responses, an ordinary client frame whose deadline_ms is what
// is left of the request's deadline; req must already have passed the
// endpoint's validation — a peer is never sent what this node would have
// rejected. A routed request is the one place the deadline becomes a
// context: the peer calls take one.
func (s *Server) forward(w http.ResponseWriter, rc *reqScope, rt route, req any) bool {
	cands, routed := s.clusterRoute(rc, rt)
	if !routed {
		return false
	}
	ctx, cancel := context.WithDeadline(rc.ctx, rc.deadline)
	defer cancel()
	*layoutOf(req).deadline = max(1, time.Until(rc.deadline).Milliseconds())
	frame, err := encodeFrame(req)
	if err != nil {
		s.cluster.NoteServedLocalFallback()
		return false
	}
	defer wirefmt.PutBuffer(frame)
	if s.tryCandidates(w, rc, ctx, cands, rt, *frame) {
		return true
	}
	// A keyOnly request that reached this point is not resident here
	// (clusterRoute would have called it a local hit), so falling through to
	// the local 404 is a guaranteed failure. It gets a last-resort reserve
	// first: every peer, owner or not, regardless of probed state — a
	// down-marked owner (the mark may be a transient probe glitch) or a
	// non-owner coordinator that computed the entry as a local fallback is
	// worth one more attempt each.
	if rt.keyOnly && s.tryCandidates(w, rc, ctx, s.cluster.Peers(), rt, *frame) {
		return true
	}
	// Every routed request terminates exactly once in served_remote or
	// served_local_fallback.
	s.cluster.NoteServedLocalFallback()
	return false
}

// clusterRoute makes the routing decision for rt.key. routed=false means
// serve locally (the decision has been counted); routed=true hands back the
// candidate owners to try, in preference order, down peers already skipped.
// An empty candidate list with routed=true still counts as a routed request —
// the caller falls through to served_local_fallback.
//
// A keyOnly request cannot be served from its own payload, so owning the key
// without holding the entry (the cache Peek below already missed) is no
// reason to stay local — the node routes to the other owners like any
// non-owner would.
func (s *Server) clusterRoute(rc *reqScope, rt route) (cands []cluster.Member, routed bool) {
	n := s.cluster
	if n == nil {
		return nil, false
	}
	if rc.forwarded {
		n.NoteRoute(cluster.DecisionForwardedIn)
		return nil, false
	}
	// A request that carries its own matrix is a local hit only on the entry
	// stored under its content key; a keyOnly request resolves as Get does,
	// the bare key to the newest epoch.
	if s.cache.Peek(rt.key, !rt.keyOnly) {
		n.NoteRoute(cluster.DecisionLocalHit)
		return nil, false
	}
	// Ownership hashes the content key alone: every epoch of an updated
	// series, and a matrix that resolved under a salted name, map to the
	// owners the content-keyed request was routed to, so updates and
	// solves-by-key stay co-located no matter which key form the client sends.
	owners := n.Owners(ownerKey(rt.key))
	if !rt.keyOnly {
		for _, m := range owners {
			if n.IsSelf(m) {
				n.NoteRoute(cluster.DecisionLocalOwner)
				return nil, false
			}
		}
	}
	n.NoteRoute(cluster.DecisionForward)
	cands = make([]cluster.Member, 0, len(owners))
	for _, m := range owners {
		if !n.IsSelf(m) && n.Usable(m) {
			cands = append(cands, m)
		}
	}
	return cands, true
}

// tryCandidates attempts each candidate once and relays the first usable
// answer. Transport errors (the peer is marked down inside Forward), 5xx,
// and 429 try the next candidate; for a keyOnly request a 404 does too — a
// replica missing the entry is not authoritative while another owner might
// hold it.
func (s *Server) tryCandidates(w http.ResponseWriter, rc *reqScope, ctx context.Context, cands []cluster.Member, rt route, frame []byte) bool {
	for _, m := range cands {
		if ctx.Err() != nil {
			break
		}
		t0 := time.Now()
		res, err := s.cluster.Forward(ctx, m, rt.path, frame, rc.frameResp)
		rc.stages.add(stageForward, time.Since(t0))
		if err != nil {
			continue
		}
		if res.Status >= 500 || res.Status == http.StatusTooManyRequests {
			continue
		}
		if rt.keyOnly && res.Status == http.StatusNotFound {
			continue
		}
		s.cluster.NoteServedRemote()
		// The peer's buffered response goes out through the request's normal
		// finish path (stage clock, response counters, structured log). Error
		// accounting stays with the node that served the request; the
		// coordinator only counts the response status.
		if res.ContentType != "" {
			rc.respCT = res.ContentType
		}
		w.Header().Set(cluster.ServedByHeader, m.ID)
		rc.finish(w, res.Status, res.Body)
		return true
	}
	return false
}

// clusterReplicate fans a freshly computed factorization out to the key's
// other owners (N-way replica fan-out; the computing node already holds the
// entry, so read-your-writes is local). Deliveries are asynchronous and fall
// back to hinted handoff when an owner is down or the send fails, so a
// momentarily lost owner converges once it returns. Call only after a
// SourceMiss — hits and shared waiters reuse an entry someone else already
// fanned out.
func (s *Server) clusterReplicate(key string, a *tcqr.Matrix, wcfg WireConfig) {
	n := s.cluster
	if n == nil {
		return
	}
	var frame []byte
	for _, m := range n.Owners(key) {
		if n.IsSelf(m) {
			continue
		}
		if frame == nil {
			// Replica deliveries are factorize frames: replication is
			// deterministic recompute on the replica (bit-identical factors —
			// the determinism contract), not factor shipping.
			buf, err := encodeFrame(&factorizeRequest{
				Matrix: &WireMatrix{Rows: a.Rows, Cols: a.Cols, Data: colMajorData(a)},
				Config: wcfg,
			})
			if err != nil {
				return
			}
			frame = *buf
		}
		n.Replicate(m, "/v1/factorize", frame)
	}
	// The frame is not returned to the pool: Replicate's goroutines and the
	// handoff queue keep this very slice after we return, so recycling the
	// encode buffer under them would hand a torn frame to a peer.
}

// colMajorData returns a's elements as a tight column-major slice (uploaded
// matrices are tight already; a strided view gets a copy).
func colMajorData(a *tcqr.Matrix) []float64 {
	if a.Stride == a.Rows && len(a.Data) == a.Rows*a.Cols {
		return a.Data
	}
	out := make([]float64, a.Rows*a.Cols)
	for j := 0; j < a.Cols; j++ {
		copy(out[j*a.Rows:(j+1)*a.Rows], a.Data[j*a.Stride:j*a.Stride+a.Rows])
	}
	return out
}
