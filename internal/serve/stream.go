package serve

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"tcqr"
	"tcqr/internal/faultinject"
)

// This file is the chunked-upload path of /v1/factorize (DESIGN.md §13): a
// client that cannot hold its matrix in one request body streams it as row
// blocks instead.
//
//	POST /v1/factorize/stream/begin   {cols, config}        -> {session, ttl_ms}
//	POST /v1/factorize/stream/append  {session} + row block -> {session, rows, blocks}
//	POST /v1/factorize/stream/commit  {session}             -> factorizeResponse
//	POST /v1/factorize/stream/abort   {session}             -> {session, aborted}
//
// All four accept the same two encodings as the one-shot endpoints (begin,
// commit and abort are pure metadata, so their frame is the single JSON
// section); append is JSON with a "block" matrix, or a binary frame [JSON
// meta, matrix section] over internal/wirefmt. Either way the row data is copied into the session before
// the handler returns — a binary append's pooled frame buffer is released
// inside the handler, never parked in the registry, so an abandoned session
// can at worst leak its own float64 copy to the collector, not a pooled
// buffer another request will be handed.
//
// Commit assembles the column-major matrix, derives the same content-hash
// CacheKey a one-shot upload of the identical matrix would get, and runs the
// standard factorEntry pipeline — so a streamed factorization is cached,
// singleflighted, and solvable-by-key exactly like a
// one-shot one.
//
// Sessions are deadline-bounded: each begin stamps an expiry (Options.
// StreamTTL, refreshed on every append), a background reaper sweeps expired
// sessions, and BeginDrain reaps everything immediately — a drained server
// holds no half-uploaded matrices.

// streamSession is one in-progress chunked upload. Fields are guarded by the
// owning registry's lock; blocks hold private column-major copies of the
// appended row blocks.
type streamSession struct {
	id      string
	cfg     tcqr.Config
	wcfg    WireConfig // the wire form of cfg, kept for cluster replication
	cols    int
	rows    int
	blocks  [][]float64 // each column-major rows_i × cols
	expires time.Time
}

// streamRegistry owns the live upload sessions: bounded, TTL-swept, and
// drain-aware.
type streamRegistry struct {
	mu       sync.Mutex
	sessions map[string]*streamSession
	ttl      time.Duration
	max      int
	reaped   func(n int) // metrics hook, called outside the lock
}

func newStreamRegistry(ttl time.Duration, max int) *streamRegistry {
	return &streamRegistry{
		sessions: make(map[string]*streamSession),
		ttl:      ttl,
		max:      max,
	}
}

func (sr *streamRegistry) len() int {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	return len(sr.sessions)
}

// begin creates a session, reaping expired ones first so abandoned uploads
// can never crowd out live clients within the session cap.
func (sr *streamRegistry) begin(cfg tcqr.Config, wcfg WireConfig, cols int, now time.Time) (*streamSession, *apiError) {
	reaped := 0
	sr.mu.Lock()
	for id, ss := range sr.sessions {
		if now.After(ss.expires) {
			delete(sr.sessions, id)
			reaped++
		}
	}
	if len(sr.sessions) >= sr.max {
		// The Retry-After is derived, not the blanket default: the earliest
		// session expiry is when a slot is guaranteed to free up if no client
		// commits or aborts sooner (appends push it out again, but a later
		// retry then meets the same computation).
		retryAfter := 1
		var earliest time.Time
		for _, ss := range sr.sessions {
			if earliest.IsZero() || ss.expires.Before(earliest) {
				earliest = ss.expires
			}
		}
		if secs := int(math.Ceil(earliest.Sub(now).Seconds())); secs > retryAfter {
			retryAfter = secs
		}
		sr.mu.Unlock()
		sr.noteReaped(reaped)
		return nil, &apiError{status: http.StatusTooManyRequests, code: "overloaded",
			msg:        fmt.Sprintf("too many open upload sessions (cap %d); commit, abort or let one expire", sr.max),
			retryAfter: retryAfter}
	}
	var idb [16]byte
	if _, err := rand.Read(idb[:]); err != nil {
		sr.mu.Unlock()
		sr.noteReaped(reaped)
		return nil, &apiError{status: http.StatusInternalServerError, code: "internal",
			msg: "minting session id: " + err.Error()}
	}
	ss := &streamSession{
		id:      hex.EncodeToString(idb[:]),
		cfg:     cfg,
		wcfg:    wcfg,
		cols:    cols,
		expires: now.Add(sr.ttl),
	}
	sr.sessions[ss.id] = ss
	sr.mu.Unlock()
	sr.noteReaped(reaped)
	return ss, nil
}

// errUnknownStream is the uniform answer for a session id that does not
// resolve — never minted, already committed or aborted, or reaped on expiry.
func errUnknownStream(id string) *apiError {
	return &apiError{status: http.StatusNotFound, code: "unknown_stream",
		msg: fmt.Sprintf("no open upload session %q (it may have expired; begin again)", id)}
}

// append adds one row block to a live session and refreshes its deadline.
// data must be a private column-major copy (bRows × session cols) — the
// registry retains it until commit or reap.
func (sr *streamRegistry) append(id string, bRows, bCols int, data []float64, maxElements int, now time.Time) (*streamSession, *apiError) {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	ss, ok := sr.sessions[id]
	if !ok || now.After(ss.expires) {
		if ok {
			delete(sr.sessions, id)
			defer sr.noteReaped(1)
		}
		return nil, errUnknownStream(id)
	}
	if bCols != ss.cols {
		return nil, errBadInput(fmt.Sprintf("row block has %d columns; session %q was begun with %d", bCols, id, ss.cols))
	}
	if n := int64(ss.rows+bRows) * int64(ss.cols); n > int64(maxElements) {
		return nil, &apiError{status: http.StatusRequestEntityTooLarge, code: "too_large",
			msg: fmt.Sprintf("appending %d rows would grow the matrix to %d elements; the server caps uploads at %d", bRows, n, maxElements)}
	}
	ss.rows += bRows
	ss.blocks = append(ss.blocks, data)
	ss.expires = now.Add(sr.ttl)
	return ss, nil
}

// take removes and returns a live session (the commit/abort handoff).
func (sr *streamRegistry) take(id string, now time.Time) (*streamSession, *apiError) {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	ss, ok := sr.sessions[id]
	if !ok {
		return nil, errUnknownStream(id)
	}
	delete(sr.sessions, id)
	if now.After(ss.expires) {
		defer sr.noteReaped(1)
		return nil, errUnknownStream(id)
	}
	return ss, nil
}

// reapExpired sweeps sessions past their deadline; reapAll (drain) sweeps
// everything. Both return the number removed.
func (sr *streamRegistry) reapExpired(now time.Time) int {
	sr.mu.Lock()
	n := 0
	for id, ss := range sr.sessions {
		if now.After(ss.expires) {
			delete(sr.sessions, id)
			n++
		}
	}
	sr.mu.Unlock()
	sr.noteReaped(n)
	return n
}

func (sr *streamRegistry) reapAll() int {
	sr.mu.Lock()
	n := len(sr.sessions)
	sr.sessions = make(map[string]*streamSession)
	sr.mu.Unlock()
	sr.noteReaped(n)
	return n
}

func (sr *streamRegistry) noteReaped(n int) {
	if n > 0 && sr.reaped != nil {
		sr.reaped(n)
	}
}

// assemble stitches the appended row blocks into one column-major matrix, in
// append order — the same element layout a one-shot upload of the full
// matrix carries, so CacheKey(assembled, cfg) is the one-shot key.
func (ss *streamSession) assemble() *tcqr.Matrix {
	data := make([]float64, ss.rows*ss.cols)
	row := 0
	for _, blk := range ss.blocks {
		bRows := len(blk) / ss.cols
		for j := 0; j < ss.cols; j++ {
			copy(data[j*ss.rows+row:], blk[j*bRows:(j+1)*bRows])
		}
		row += bRows
	}
	return tcqr.FromColMajor(ss.rows, ss.cols, data)
}

func (s *Server) serveStreamBegin(rc *reqScope, w http.ResponseWriter, r *http.Request) error {
	var req streamBeginRequest
	if aerr := rc.decodeRequest(r, &req); aerr != nil {
		return aerr
	}
	if req.Cols <= 0 {
		return errBadInput(fmt.Sprintf("cols is %d; a session needs at least 1 column", req.Cols))
	}
	if int64(req.Cols) > int64(s.opts.MaxElements) {
		return &apiError{status: http.StatusRequestEntityTooLarge, code: "too_large",
			msg: fmt.Sprintf("cols %d exceeds the %d-element upload cap", req.Cols, s.opts.MaxElements)}
	}
	cfg, err := req.Config.config()
	if err != nil {
		return err
	}
	ss, aerr := s.streams.begin(cfg, req.Config, req.Cols, time.Now())
	if aerr != nil {
		return aerr
	}
	rc.key = ss.id
	s.metrics.streamBegun.Inc()
	return rc.ok(w, &streamBeginResponse{Session: ss.id, TTLMS: s.opts.StreamTTL.Milliseconds()})
}

func (s *Server) serveStreamAppend(rc *reqScope, w http.ResponseWriter, r *http.Request) error {
	// A binary append's row block is copied out of the frame during decode
	// (the session outlives the request) and the pooled buffer released there
	// — an abandoned session never holds a pooled wire buffer.
	var req streamAppendRequest
	if aerr := rc.decodeRequest(r, &req); aerr != nil {
		return aerr
	}
	rc.key = req.Session
	if req.Session == "" {
		return errBadInput("missing session")
	}
	blk, err := req.Block.matrix()
	if err != nil {
		return err
	}
	// Failpoint: an injected append failure surfaces as a 500 after decode,
	// with the session left untouched — the client's natural move (retry the
	// chunk) is also the correct one.
	if ferr := faultinject.Fire(siteStreamAppend); ferr != nil {
		return ferr
	}
	ss, aerr := s.streams.append(req.Session, blk.Rows, blk.Cols, req.Block.Data, s.opts.MaxElements, time.Now())
	if aerr != nil {
		return aerr
	}
	s.metrics.streamAppends.Inc()
	rc.rows, rc.cols = ss.rows, ss.cols
	return rc.ok(w, &streamAppendResponse{Session: ss.id, Rows: ss.rows, Blocks: len(ss.blocks)})
}

func (s *Server) serveStreamCommit(rc *reqScope, w http.ResponseWriter, r *http.Request) error {
	var req streamCommitRequest
	if aerr := rc.decodeRequest(r, &req); aerr != nil {
		return aerr
	}
	rc.key = req.Session
	if req.Session == "" {
		return errBadInput("missing session")
	}
	ss, aerr := s.streams.take(req.Session, time.Now())
	if aerr != nil {
		return aerr
	}
	// Commit consumes the session whatever happens next (like a one-shot
	// request body): count it now so the lifecycle invariant begun ==
	// committed + aborted + reaped holds even when the factorization fails —
	// a client whose commit 500s restarts the upload.
	s.metrics.streamCommitted.Inc()
	if ss.rows == 0 {
		return errBadInput(fmt.Sprintf("session %q holds no rows; append at least one block before commit", req.Session))
	}
	a := ss.assemble()
	rc.rows, rc.cols = a.Rows, a.Cols
	rc.startDeadline(req.DeadlineMS)
	// From here the streamed matrix is indistinguishable from a one-shot
	// upload: same key derivation, same cache/pool pipeline,
	// same replica fan-out, same response envelope. Only routing differs: the
	// commit always runs locally — sessions are node-local state.
	key := rc.contentKey(a, ss.cfg)
	rc.key = key
	return s.factorizeReply(w, rc, key, a, ss.cfg, ss.wcfg)
}

func (s *Server) serveStreamAbort(rc *reqScope, w http.ResponseWriter, r *http.Request) error {
	var req streamAbortRequest
	if aerr := rc.decodeRequest(r, &req); aerr != nil {
		return aerr
	}
	rc.key = req.Session
	if req.Session == "" {
		return errBadInput("missing session")
	}
	if _, aerr := s.streams.take(req.Session, time.Now()); aerr != nil {
		return aerr
	}
	s.metrics.streamAborted.Inc()
	return rc.ok(w, &streamAbortResponse{Session: req.Session, Aborted: true})
}

// streamReaper is the background TTL sweep, started by New and stopped by
// Close. The period divides the TTL so an abandoned session lives at most
// ~1.25 TTLs; the floor keeps tiny test TTLs from busy-spinning.
func (s *Server) streamReaper(stop <-chan struct{}) {
	period := s.opts.StreamTTL / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-t.C:
			s.streams.reapExpired(now)
		}
	}
}
