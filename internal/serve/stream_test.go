package serve

import (
	"bytes"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"tcqr/internal/wirefmt"
)

// --- stream test plumbing --------------------------------------------------

// rowChunks splits column-major data for an m×n matrix into column-major row
// blocks of the given heights (which must sum to m) — the client-side view of
// a chunked upload.
func rowChunks(t testing.TB, m, n int, data []float64, heights ...int) []map[string]any {
	t.Helper()
	sum := 0
	for _, h := range heights {
		sum += h
	}
	if sum != m {
		t.Fatalf("chunk heights sum to %d, matrix has %d rows", sum, m)
	}
	out := make([]map[string]any, 0, len(heights))
	row := 0
	for _, h := range heights {
		blk := make([]float64, 0, h*n)
		for j := 0; j < n; j++ {
			blk = append(blk, data[j*m+row:j*m+row+h]...)
		}
		out = append(out, wireMat(h, n, blk))
		row += h
	}
	return out
}

type streamBeginReply struct {
	Session string `json:"session"`
	TTLMS   int64  `json:"ttl_ms"`
}

type streamAppendReply struct {
	Session string `json:"session"`
	Rows    int    `json:"rows"`
	Blocks  int    `json:"blocks"`
}

// streamUpload drives a full begin/append.../commit conversation over JSON
// and returns the commit's factorize reply.
func streamUpload(t *testing.T, h http.Handler, cfg map[string]any, n int, chunks []map[string]any) factorizeReply {
	t.Helper()
	begin := map[string]any{"cols": n}
	if cfg != nil {
		begin["config"] = cfg
	}
	var br streamBeginReply
	if code, _ := post(t, h, "/v1/factorize/stream/begin", begin, &br); code != 200 {
		t.Fatalf("begin status %d", code)
	}
	if br.Session == "" || br.TTLMS <= 0 {
		t.Fatalf("begin reply %+v, want a session id and positive ttl", br)
	}
	for i, blk := range chunks {
		var ar streamAppendReply
		code, _ := post(t, h, "/v1/factorize/stream/append",
			map[string]any{"session": br.Session, "block": blk}, &ar)
		if code != 200 {
			t.Fatalf("append %d status %d", i, code)
		}
		if ar.Blocks != i+1 {
			t.Fatalf("append %d acknowledged %d blocks", i, ar.Blocks)
		}
	}
	var fr factorizeReply
	if code, _ := post(t, h, "/v1/factorize/stream/commit", map[string]any{"session": br.Session}, &fr); code != 200 {
		t.Fatalf("commit status %d", code)
	}
	return fr
}

// --- golden equivalence ----------------------------------------------------

// TestStreamCommitMatchesOneShot is the chunked-upload golden test: a matrix
// streamed in three row blocks commits to the exact content-hash key a
// one-shot upload of the same matrix gets, the one-shot then hits the cache,
// and solve-by-key works against the streamed factorization.
func TestStreamCommitMatchesOneShot(t *testing.T) {
	s := New(Options{Workers: 2})
	defer s.Close()
	h := s.Handler()
	const m, n = 30, 4
	data := testMatrix(61, m, n, 1)

	fr := streamUpload(t, h, nil, n, rowChunks(t, m, n, data, 13, 9, 8))
	if fr.Key == "" || fr.Rows != m || fr.Cols != n || fr.Cached {
		t.Fatalf("stream commit reply %+v, want cold %dx%d factorization", fr, m, n)
	}

	var one factorizeReply
	if code, _ := post(t, h, "/v1/factorize", map[string]any{"matrix": wireMat(m, n, data)}, &one); code != 200 {
		t.Fatalf("one-shot factorize status %d", code)
	}
	if one.Key != fr.Key {
		t.Fatalf("one-shot key %q != streamed key %q; the chunked upload is not content-equivalent", one.Key, fr.Key)
	}
	if !one.Cached {
		t.Fatal("one-shot upload of the streamed matrix missed the cache")
	}

	x := make([]float64, n)
	for j := range x {
		x[j] = float64(j + 1)
	}
	var sr solveReply
	code, _ := post(t, h, "/v1/solve", map[string]any{"key": fr.Key, "b": matVecData(m, n, data, x)}, &sr)
	if code != 200 {
		t.Fatalf("solve by streamed key: status %d", code)
	}
	if d := maxDiff(sr.X, x); d > 1e-6 {
		t.Errorf("solve by streamed key: max error %g", d)
	}
	if s.metrics.streamBegun.Value() != 1 || s.metrics.streamCommitted.Value() != 1 ||
		s.metrics.streamAppends.Value() != 3 {
		t.Errorf("stream counters begun=%d committed=%d appends=%d, want 1/1/3",
			s.metrics.streamBegun.Value(), s.metrics.streamCommitted.Value(), s.metrics.streamAppends.Value())
	}
	if got := s.streams.len(); got != 0 {
		t.Errorf("%d sessions still open after commit", got)
	}
}

// TestStreamConfigRidesTheKey pins that the config fixed at begin reaches the
// cache key: the same bytes streamed under a different config factor twice.
func TestStreamConfigRidesTheKey(t *testing.T) {
	s := New(Options{Workers: 2})
	defer s.Close()
	h := s.Handler()
	const m, n = 24, 3
	data := testMatrix(62, m, n, 1)
	chunks := rowChunks(t, m, n, data, 12, 12)

	def := streamUpload(t, h, nil, n, chunks)
	reo := streamUpload(t, h, map[string]any{"reorthogonalize": true}, n, chunks)
	if def.Key == reo.Key {
		t.Fatalf("distinct configs share key %q", def.Key)
	}
	if !reo.Reorthogonalized {
		t.Error("reorthogonalize config did not reach the factorization")
	}
}

// TestStreamBinaryAppend sends the row blocks as binary frames over the
// internal/wirefmt protocol and checks content-equivalence with a JSON
// one-shot upload — the two encodings and two upload shapes are one service.
func TestStreamBinaryAppend(t *testing.T) {
	s := New(Options{Workers: 2})
	defer s.Close()
	h := s.Handler()
	const m, n = 20, 4
	data := testMatrix(63, m, n, 1)

	var br streamBeginReply
	if code, _ := post(t, h, "/v1/factorize/stream/begin", map[string]any{"cols": n}, &br); code != 200 {
		t.Fatalf("begin status %d", code)
	}
	row := 0
	for _, hRows := range []int{8, 7, 5} {
		blk := make([]float64, 0, hRows*n)
		for j := 0; j < n; j++ {
			blk = append(blk, data[j*m+row:j*m+row+hRows]...)
		}
		row += hRows
		body := frameBody(t, map[string]any{"session": br.Session},
			wirefmt.MatrixSection(hRows, n, blk))
		rec := postFrame(t, h, "/v1/factorize/stream/append", body, "application/json")
		if rec.Code != 200 {
			t.Fatalf("binary append status %d: %s", rec.Code, rec.Body.String())
		}
	}
	var fr factorizeReply
	if code, _ := post(t, h, "/v1/factorize/stream/commit", map[string]any{"session": br.Session}, &fr); code != 200 {
		t.Fatalf("commit status %d", code)
	}
	var one factorizeReply
	if code, _ := post(t, h, "/v1/factorize", map[string]any{"matrix": wireMat(m, n, data)}, &one); code != 200 {
		t.Fatalf("one-shot status %d", code)
	}
	if one.Key != fr.Key || !one.Cached {
		t.Fatalf("binary-streamed key %q (one-shot %q, cached %v); want identical key and a cache hit",
			fr.Key, one.Key, one.Cached)
	}

	// The metadata-only stream endpoints speak the frame codec like every
	// other endpoint: a whole conversation as frames — begin and commit are
	// [JSON meta], answered in kind — lands on the same key.
	rec := postFrame(t, h, "/v1/factorize/stream/begin", frameBody(t, map[string]any{"cols": n}), "")
	if rec.Code != 200 {
		t.Fatalf("frame begin status %d: %s", rec.Code, rec.Body.String())
	}
	var fbr streamBeginReply
	decodeFrameResp(t, rec, &fbr)
	rec = postFrame(t, h, "/v1/factorize/stream/append",
		frameBody(t, map[string]any{"session": fbr.Session}, wirefmt.MatrixSection(m, n, data)), "")
	if rec.Code != 200 {
		t.Fatalf("frame append status %d: %s", rec.Code, rec.Body.String())
	}
	rec = postFrame(t, h, "/v1/factorize/stream/commit", frameBody(t, map[string]any{"session": fbr.Session}), "")
	if rec.Code != 200 {
		t.Fatalf("frame commit status %d: %s", rec.Code, rec.Body.String())
	}
	var ffr factorizeReply
	decodeFrameResp(t, rec, &ffr)
	if ffr.Key != fr.Key || !ffr.Cached {
		t.Fatalf("all-frame upload key %q cached %v; want a cache hit on %q", ffr.Key, ffr.Cached, fr.Key)
	}
	if got := s.metrics.wireRequests.Snapshot()["stream_commit,binary"]; got != 1 {
		t.Fatalf("stream_commit binary requests counted %d, want 1", got)
	}
}

// TestStreamValidation covers the refusal matrix of the stream endpoints.
func TestStreamValidation(t *testing.T) {
	s := New(Options{Workers: 1, MaxElements: 64})
	defer s.Close()
	h := s.Handler()

	checkErr := func(code int, hdr http.Header, wantStatus int, got *envelope, wantCode string) {
		t.Helper()
		_ = hdr
		if code != wantStatus || got.Error.Code != wantCode {
			t.Errorf("status %d code %q, want %d %q (%s)", code, got.Error.Code, wantStatus, wantCode, got.Error.Message)
		}
	}

	var env envelope
	code, hdr := post(t, h, "/v1/factorize/stream/begin", map[string]any{"cols": 0}, &env)
	checkErr(code, hdr, 400, &env, "bad_input")

	code, hdr = post(t, h, "/v1/factorize/stream/append",
		map[string]any{"session": "nope", "block": wireMat(2, 2, []float64{1, 2, 3, 4})}, &env)
	checkErr(code, hdr, 404, &env, "unknown_stream")

	code, hdr = post(t, h, "/v1/factorize/stream/commit", map[string]any{"session": "nope"}, &env)
	checkErr(code, hdr, 404, &env, "unknown_stream")

	code, hdr = post(t, h, "/v1/factorize/stream/append", map[string]any{"block": wireMat(1, 1, []float64{1})}, &env)
	checkErr(code, hdr, 400, &env, "bad_input")

	var br streamBeginReply
	if code, _ := post(t, h, "/v1/factorize/stream/begin", map[string]any{"cols": 2}, &br); code != 200 {
		t.Fatalf("begin status %d", code)
	}

	// Wrong block width.
	code, hdr = post(t, h, "/v1/factorize/stream/append",
		map[string]any{"session": br.Session, "block": wireMat(2, 3, make([]float64, 6))}, &env)
	checkErr(code, hdr, 400, &env, "bad_input")

	// Element cap: 64 elements / 2 cols = 32 rows max.
	code, hdr = post(t, h, "/v1/factorize/stream/append",
		map[string]any{"session": br.Session, "block": wireMat(40, 2, make([]float64, 80))}, &env)
	checkErr(code, hdr, 413, &env, "too_large")

	// Committing an empty session is a client error, and consumes the session.
	code, hdr = post(t, h, "/v1/factorize/stream/commit", map[string]any{"session": br.Session}, &env)
	checkErr(code, hdr, 400, &env, "bad_input")
	code, hdr = post(t, h, "/v1/factorize/stream/append",
		map[string]any{"session": br.Session, "block": wireMat(1, 2, []float64{1, 2})}, &env)
	checkErr(code, hdr, 404, &env, "unknown_stream")

	// Abort removes the session; a second abort does not resolve it.
	if code, _ = post(t, h, "/v1/factorize/stream/begin", map[string]any{"cols": 2}, &br); code != 200 {
		t.Fatalf("begin status %d", code)
	}
	if code, _ = post(t, h, "/v1/factorize/stream/abort", map[string]any{"session": br.Session}, nil); code != 200 {
		t.Fatalf("abort status %d", code)
	}
	code, hdr = post(t, h, "/v1/factorize/stream/abort", map[string]any{"session": br.Session}, &env)
	checkErr(code, hdr, 404, &env, "unknown_stream")
	if s.metrics.streamAborted.Value() != 1 {
		t.Errorf("aborted counter = %d, want 1", s.metrics.streamAborted.Value())
	}
}

// TestStreamSessionCap pins the open-session bound: begins past
// MaxStreamSessions get 429 until a session is released.
func TestStreamSessionCap(t *testing.T) {
	s := New(Options{Workers: 1, MaxStreamSessions: 2})
	defer s.Close()
	h := s.Handler()

	var first streamBeginReply
	for i := 0; i < 2; i++ {
		var br streamBeginReply
		if code, _ := post(t, h, "/v1/factorize/stream/begin", map[string]any{"cols": 1}, &br); code != 200 {
			t.Fatalf("begin %d status %d", i, code)
		}
		if i == 0 {
			first = br
		}
	}
	var env envelope
	code, hdr := post(t, h, "/v1/factorize/stream/begin", map[string]any{"cols": 1}, &env)
	if code != 429 || env.Error.Code != "overloaded" {
		t.Fatalf("begin past cap: status %d code %q, want 429 overloaded", code, env.Error.Code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if code, _ := post(t, h, "/v1/factorize/stream/abort", map[string]any{"session": first.Session}, nil); code != 200 {
		t.Fatalf("abort status %d", code)
	}
	if code, _ := post(t, h, "/v1/factorize/stream/begin", map[string]any{"cols": 1}, nil); code != 200 {
		t.Fatalf("begin after abort: status %d, want 200", code)
	}
}

// TestStreamBeginRetryAfterDerived is the contract test for the 429's
// Retry-After: it must be derived from the earliest session expiry — when a
// slot is guaranteed to free up — not the blanket 1-second default. With a
// long TTL and a freshly filled cap, the hint must land strictly between the
// default and the full TTL.
func TestStreamBeginRetryAfterDerived(t *testing.T) {
	const ttl = 30 * time.Second
	s := New(Options{Workers: 1, MaxStreamSessions: 1, StreamTTL: ttl})
	defer s.Close()
	h := s.Handler()

	if code, _ := post(t, h, "/v1/factorize/stream/begin", map[string]any{"cols": 1}, nil); code != 200 {
		t.Fatalf("begin status %d", code)
	}
	var env envelope
	code, hdr := post(t, h, "/v1/factorize/stream/begin", map[string]any{"cols": 1}, &env)
	if code != 429 || env.Error.Code != "overloaded" {
		t.Fatalf("begin past cap: status %d code %q, want 429 overloaded", code, env.Error.Code)
	}
	secs, err := strconv.Atoi(hdr.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer: %v", hdr.Get("Retry-After"), err)
	}
	// The open session expires ~ttl from now; a meaningful hint points there.
	// 1 would be the blanket default (not derived); anything past the TTL
	// overshoots the guaranteed free slot.
	if secs <= 1 || secs > int(ttl.Seconds()) {
		t.Errorf("Retry-After = %ds, want derived value in (1, %.0f]", secs, ttl.Seconds())
	}
	// The error payload names the remedy, not just the condition.
	if !strings.Contains(env.Error.Message, "commit") {
		t.Errorf("429 message %q does not tell the client how to free a slot", env.Error.Message)
	}
}

// TestStreamReaperLifecycle checks the background sweep end to end with a
// tiny TTL: an abandoned begin-without-commit session disappears on its own,
// its counters account for it, and no session survives Close.
func TestStreamReaperLifecycle(t *testing.T) {
	s := New(Options{Workers: 1, StreamTTL: 30 * time.Millisecond})
	defer s.Close()
	h := s.Handler()

	var br streamBeginReply
	if code, _ := post(t, h, "/v1/factorize/stream/begin", map[string]any{"cols": 2}, &br); code != 200 {
		t.Fatalf("begin status %d", code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.streams.len() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("session not reaped %s after a %s TTL", time.Since(deadline.Add(-5*time.Second)), s.opts.StreamTTL)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := s.metrics.streamReaped.Value(); got != 1 {
		t.Errorf("reaped counter = %d, want 1", got)
	}
	var env envelope
	code, _ := post(t, h, "/v1/factorize/stream/commit", map[string]any{"session": br.Session}, &env)
	if code != 404 || env.Error.Code != "unknown_stream" {
		t.Errorf("commit after reap: status %d code %q, want 404 unknown_stream", code, env.Error.Code)
	}
}

// FuzzRequestDecode throws the same raw bytes at both decoders of every
// endpoint's request: the frame decode and the strict JSON decode. Whatever
// the request type and codec, decoding must never panic, and every rejection
// must be a client-class apiError — a hostile body can never take the 500
// path or corrupt a session. Every matrix an
// accepted body carries must either pass matrix(), the gate every handler
// applies before anything else sees it, with a consistent shape, or be
// rejected by it as bad input. An accepted frame must also have bound each
// required bulk section and must survive re-encoding unchanged.
func FuzzRequestDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("not a frame"))
	valid, _ := wirefmt.AppendFrame(nil,
		wirefmt.JSONSection([]byte(`{"session":"abc"}`)),
		wirefmt.MatrixSection(2, 3, []float64{1, 2, 3, 4, 5, 6}))
	f.Add(valid)
	noBlock, _ := wirefmt.AppendFrame(nil, wirefmt.JSONSection([]byte(`{"session":"abc"}`)))
	f.Add(noBlock)
	inMeta, _ := wirefmt.AppendFrame(nil,
		wirefmt.JSONSection([]byte(`{"session":"abc","block":{"rows":1,"cols":1,"data":[1]}}`)),
		wirefmt.MatrixSection(1, 1, []float64{1}))
	f.Add(inMeta)
	vecNotMat, _ := wirefmt.AppendFrame(nil,
		wirefmt.JSONSection([]byte(`{"session":"abc"}`)),
		wirefmt.VectorSection([]float64{1, 2}))
	f.Add(vecNotMat)
	if len(valid) > 8 {
		f.Add(valid[:len(valid)-3]) // truncated bulk section
		f.Add(valid[:9])            // truncated header
	}
	for _, body := range []string{
		`{"matrix":{"rows":3,"cols":2,"data":[1,1,1,1,2,3]},"config":{"engine":"tc-ec","cutoff":8},"deadline_ms":50}`,
		`{"key":"k","b":[1,2,3],"options":{"method":"lsqr","tol":1e-12,"on_hazard":"fallback"}}`,
		`{"key":"k@1","append":{"rows":1,"cols":2,"data":[1,4]}}`,
		`{"key":"k","remove_rows":1}`,
		`{"matrix":{"rows":3,"cols":2,"data":[1,1,1,1,2,3]},"rank":1}`,
		`{"cols":2,"config":{"panel":"mgs"}}`,
		`{"session":"abc","block":{"rows":1,"cols":2,"data":[1,2]}}`,
		`{"session":"abc","deadline_ms":5}`,
		`{"matrix":{"rows":4294967296,"cols":4294967296,"data":[]}}`,
		`{"matrix":{"rows":2,"cols":-1,"data":[1,2]}}`,
		`{"b":[1e400]}`,
		`{"key":"k","unknown":1}`,
		`{"key":"k"} {}`,
	} {
		f.Add([]byte(body))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		for endpoint, newReq := range map[string]func() any{
			"factorize":     func() any { return new(factorizeRequest) },
			"solve":         func() any { return new(solveRequest) },
			"update":        func() any { return new(updateRequest) },
			"lowrank":       func() any { return new(lowRankRequest) },
			"stream_begin":  func() any { return new(streamBeginRequest) },
			"stream_append": func() any { return new(streamAppendRequest) },
			"stream_commit": func() any { return new(streamCommitRequest) },
			"stream_abort":  func() any { return new(streamAbortRequest) },
		} {
			jreq := newReq()
			checkDecoded(t, endpoint+" json", jreq, decodeJSON(bytes.NewReader(body), jreq), false)
			req := newReq()
			_, aerr := decodeFrame(endpoint, body, req)
			if !checkDecoded(t, endpoint+" frame", req, aerr, true) {
				continue
			}
			frame, err := encodeFrame(req)
			if err != nil {
				t.Fatalf("%s: accepted request does not re-encode: %v", endpoint, err)
			}
			again := newReq()
			if _, aerr := decodeFrame(endpoint, *frame, again); aerr != nil {
				t.Fatalf("%s: re-encoded request rejected: %s", endpoint, aerr.msg)
			}
			// Compared as frames: float payloads may hold NaNs, which no
			// value comparison calls equal.
			if frame2, err := encodeFrame(again); err != nil || !bytes.Equal(*frame, *frame2) {
				t.Fatalf("%s: round trip changed the request (%v):\n got %+v\nwant %+v", endpoint, err, again, req)
			}
		}
	})
}

// checkDecoded holds one decode of a fuzzed body to the decoders' contract
// and reports whether req was accepted: a rejection is client-class, and each
// matrix an accepted request carries passes matrix() with a consistent shape
// or fails it as bad input. A frame must also bind every required matrix
// section (sections); JSON leaves a missing one to the handler's matrix().
func checkDecoded(t *testing.T, label string, req any, aerr *apiError, sections bool) bool {
	t.Helper()
	if aerr != nil {
		if aerr.status < 400 || aerr.status >= 500 {
			t.Fatalf("%s: decode rejection carries server-class status %d (%s)", label, aerr.status, aerr.msg)
		}
		return false
	}
	for _, fld := range layoutOf(req).bulk {
		if fld.mat == nil {
			continue
		}
		m, _ := fld.get()
		if m == nil {
			if sections && !fld.optional {
				t.Fatalf("%s: accepted frame without its %s section", label, fld.name)
			}
			continue
		}
		blk, err := m.matrix()
		if err != nil {
			if st := classifyError(err).status; st != 400 {
				t.Fatalf("%s: %s rejected with status %d, want 400: %v", label, fld.name, st, err)
			}
			continue
		}
		if blk.Rows <= 0 || blk.Cols <= 0 || len(m.Data) != blk.Rows*blk.Cols {
			t.Fatalf("%s: validated %s has inconsistent shape %dx%d with %d elements",
				label, fld.name, blk.Rows, blk.Cols, len(m.Data))
		}
	}
	return true
}
