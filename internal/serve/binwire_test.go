package serve

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"tcqr/internal/matgen"
	"tcqr/internal/roundtest"
	"tcqr/internal/wirefmt"
)

// --- binary test plumbing --------------------------------------------------

// frameBody assembles a request frame: JSON-marshaled meta plus bulk
// sections.
func frameBody(t testing.TB, meta any, bulk ...wirefmt.Section) []byte {
	t.Helper()
	mj, err := json.Marshal(meta)
	if err != nil {
		t.Fatalf("marshal frame meta: %v", err)
	}
	secs := append([]wirefmt.Section{wirefmt.JSONSection(mj)}, bulk...)
	out, err := wirefmt.AppendFrame(nil, secs...)
	if err != nil {
		t.Fatalf("assemble frame: %v", err)
	}
	return out
}

// postFrame drives one binary request through the handler. accept == ""
// sends no Accept header (binary requests then negotiate a binary
// response).
func postFrame(t testing.TB, h http.Handler, path string, body []byte, accept string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", wirefmt.ContentType)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// decodeFrameResp splits a binary response into its decoded meta (into
// out) and bulk sections.
func decodeFrameResp(t testing.TB, rec *httptest.ResponseRecorder, out any) []wirefmt.Section {
	t.Helper()
	if ct := rec.Header().Get("Content-Type"); ct != wirefmt.ContentType {
		t.Fatalf("binary response Content-Type = %q, want %q", ct, wirefmt.ContentType)
	}
	secs, err := wirefmt.Decode(rec.Body.Bytes(), nil)
	if err != nil {
		t.Fatalf("decode response frame: %v", err)
	}
	if len(secs) == 0 || secs[0].Tag != wirefmt.TagJSON {
		t.Fatalf("response frame has no leading JSON section")
	}
	if out != nil {
		if err := json.Unmarshal(secs[0].Raw, out); err != nil {
			t.Fatalf("unmarshal response meta %q: %v", secs[0].Raw, err)
		}
	}
	return secs
}

// --- golden round-trips ----------------------------------------------------

// TestBinaryFactorizeSolveRoundTrip checks that the binary path and the JSON
// path are the same service: a binary factorize lands on the same cache key,
// and a binary solve returns bit-identical x to the JSON solve against the
// same cached factorization.
func TestBinaryFactorizeSolveRoundTrip(t *testing.T) {
	s := New(Options{Workers: 2})
	h := s.Handler()
	m, n := 64, 16
	data := testMatrix(7, m, n, 1)
	xTrue := make([]float64, n)
	for j := range xTrue {
		xTrue[j] = float64(j) - 7.5
	}
	b := matVecData(m, n, data, xTrue)

	// Factorize over JSON first to pin the contract key.
	var jfr factorizeReply
	code, _ := post(t, h, "/v1/factorize", map[string]any{"matrix": wireMat(m, n, data)}, &jfr)
	if code != 200 {
		t.Fatalf("json factorize: code=%d", code)
	}

	// The binary factorize of the same matrix must hit the same cache entry.
	rec := postFrame(t, h, "/v1/factorize", frameBody(t, map[string]any{}, wirefmt.MatrixSection(m, n, data)), "")
	if rec.Code != 200 {
		t.Fatalf("binary factorize: code=%d body=%q", rec.Code, rec.Body.String())
	}
	var bfr factorizeReply
	decodeFrameResp(t, rec, &bfr)
	if bfr.Key != jfr.Key || !bfr.Cached {
		t.Fatalf("binary factorize key=%q cached=%v, want cached hit on %q", bfr.Key, bfr.Cached, jfr.Key)
	}

	// Solve over both encodings; the solutions must be bit-identical.
	var jsr solveReply
	code, _ = post(t, h, "/v1/solve", map[string]any{"key": jfr.Key, "b": b}, &jsr)
	if code != 200 {
		t.Fatalf("json solve: code=%d", code)
	}
	rec = postFrame(t, h, "/v1/solve", frameBody(t, map[string]any{"key": jfr.Key}, wirefmt.VectorSection(b)), "")
	if rec.Code != 200 {
		t.Fatalf("binary solve: code=%d body=%q", rec.Code, rec.Body.String())
	}
	var bsr solveMeta
	secs := decodeFrameResp(t, rec, &bsr)
	if len(secs) != 2 || secs[1].Tag != wirefmt.TagVector {
		t.Fatalf("binary solve frame sections = %d, want [JSON, vector]", len(secs))
	}
	bx := secs[1].Float64s()
	if len(bx) != len(jsr.X) {
		t.Fatalf("binary x has %d elements, json %d", len(bx), len(jsr.X))
	}
	for i := range bx {
		if math.Float64bits(bx[i]) != math.Float64bits(jsr.X[i]) {
			t.Fatalf("x[%d]: binary %x json %x", i, math.Float64bits(bx[i]), math.Float64bits(jsr.X[i]))
		}
	}
	if !bsr.Cached || bsr.Key != jfr.Key || !bsr.Converged {
		t.Fatalf("binary solve meta %+v, want cached converged solve of %q", bsr, jfr.Key)
	}
	if d := maxDiff(bx, xTrue); d > 1e-8 {
		t.Fatalf("binary solution off by %g", d)
	}
}

// TestBinarySolveByMatrix exercises the [meta, matrix, b] frame shape end to
// end: the matrix is copied into the cache, the solve succeeds, and a
// follow-up solve by the returned key hits.
func TestBinarySolveByMatrix(t *testing.T) {
	s := New(Options{Workers: 2})
	h := s.Handler()
	m, n := 48, 8
	data := testMatrix(8, m, n, 1)
	b := matVecData(m, n, data, make([]float64, n))
	for i := range b {
		b[i] += 1
	}

	rec := postFrame(t, h, "/v1/solve",
		frameBody(t, map[string]any{}, wirefmt.MatrixSection(m, n, data), wirefmt.VectorSection(b)), "")
	if rec.Code != 200 {
		t.Fatalf("binary solve-by-matrix: code=%d body=%q", rec.Code, rec.Body.String())
	}
	var meta solveMeta
	decodeFrameResp(t, rec, &meta)
	if meta.Key == "" || meta.Cached {
		t.Fatalf("solve-by-matrix meta %+v, want a fresh key", meta)
	}
	rec = postFrame(t, h, "/v1/solve", frameBody(t, map[string]any{"key": meta.Key}, wirefmt.VectorSection(b)), "")
	if rec.Code != 200 {
		t.Fatalf("binary solve-by-key after matrix upload: code=%d", rec.Code)
	}
	var meta2 solveMeta
	decodeFrameResp(t, rec, &meta2)
	if !meta2.Cached {
		t.Fatalf("second solve should hit the cache: %+v", meta2)
	}
}

// TestBinaryLowRankFrame checks the lowrank binary response carries U, s, V
// as sections matching the JSON response.
func TestBinaryLowRankFrame(t *testing.T) {
	s := New(Options{Workers: 2})
	h := s.Handler()
	m, n := 32, 8
	data := testMatrix(9, m, n, 1)

	var jlr struct {
		U    WireMatrix `json:"u"`
		S    []float64  `json:"s"`
		V    WireMatrix `json:"v"`
		Rank int        `json:"rank"`
	}
	code, _ := post(t, h, "/v1/lowrank", map[string]any{"matrix": wireMat(m, n, data), "rank": 4}, &jlr)
	if code != 200 {
		t.Fatalf("json lowrank: code=%d", code)
	}

	rec := postFrame(t, h, "/v1/lowrank",
		frameBody(t, map[string]any{"rank": 4}, wirefmt.MatrixSection(m, n, data)), "")
	if rec.Code != 200 {
		t.Fatalf("binary lowrank: code=%d body=%q", rec.Code, rec.Body.String())
	}
	var meta lowRankMeta
	secs := decodeFrameResp(t, rec, &meta)
	if len(secs) != 4 || secs[1].Tag != wirefmt.TagMatrix || secs[2].Tag != wirefmt.TagVector || secs[3].Tag != wirefmt.TagMatrix {
		t.Fatalf("lowrank frame wants [JSON, U, s, V], got %d sections", len(secs))
	}
	if meta.Rank != jlr.Rank {
		t.Fatalf("rank %d != json %d", meta.Rank, jlr.Rank)
	}
	if int(secs[1].A) != jlr.U.Rows || int(secs[1].B) != jlr.U.Cols {
		t.Fatalf("U shape %dx%d != json %dx%d", secs[1].A, secs[1].B, jlr.U.Rows, jlr.U.Cols)
	}
	if d := maxDiff(secs[2].Float64s(), jlr.S); d != 0 {
		t.Fatalf("singular values differ by %g", d)
	}
	if d := maxDiff(secs[1].Float64s(), jlr.U.Data); d != 0 {
		t.Fatalf("U differs by %g", d)
	}
	if d := maxDiff(secs[3].Float64s(), jlr.V.Data); d != 0 {
		t.Fatalf("V differs by %g", d)
	}
}

// --- one layout statement, both directions ---------------------------------

// TestForwardFrameRoundTrip pins the encoder/decoder pair on the peer-forward
// path: for every forwarded request shape, the frame bytes are the ones the
// per-endpoint encode*Forward functions produced before the encoder was
// unified (goldens captured at that commit, less the forward section those
// frames ended with), and decoding the frame gives the request back.
func TestForwardFrameRoundTrip(t *testing.T) {
	mat := func() *WireMatrix { return &WireMatrix{Rows: 3, Cols: 2, Data: []float64{1, 2, 3, 4, 5, 6}} }
	cfg := WireConfig{Engine: "fp32", Panel: "mgs", Cutoff: 64, Reorthogonalize: true, OnHazard: "fallback"}
	b := []float64{0.5, -1.5, 2.25}
	opts := WireSolveOptions{Method: "lsqr", Tol: 1e-9, MaxIterations: 7}

	cases := []struct {
		name     string
		endpoint string
		req      any
		fresh    func() any
		golden   string
	}{
		{"factorize", "factorize",
			&factorizeRequest{Matrix: mat(), Config: cfg, DeadlineMS: 1500},
			func() any { return new(factorizeRequest) },
			"5443514601020000e800000000000000010000000000000000000000850000007b226d6174726978223a6e756c6c2c22636f6e666967223a7b22656e67696e65223a2266703332222c2270616e656c223a226d6773222c226375746f6666223a36342c2272656f7274686f676f6e616c697a65223a747275652c226f6e5f68617a617264223a2266616c6c6261636b227d2c22646561646c696e655f6d73223a313530307d00000002000000030000000200000030000000000000000000f03f00000000000000400000000000000840000000000000104000000000000014400000000000001840"},
		{"solve_by_key", "solve",
			&solveRequest{Key: "m3x2-abc@4", B: b, Options: opts, DeadlineMS: 900},
			func() any { return new(solveRequest) },
			"5443514601020000c000000000000000010000000000000000000000750000007b226b6579223a226d3378322d6162634034222c22636f6e666967223a7b7d2c2262223a6e756c6c2c226f7074696f6e73223a7b226d6574686f64223a226c737172222c22746f6c223a31652d392c226d61785f697465726174696f6e73223a377d2c22646561646c696e655f6d73223a3930307d00000003000000030000000000000018000000000000000000e03f000000000000f8bf0000000000000240"},
		{"solve_by_matrix", "solve",
			&solveRequest{Matrix: mat(), Config: cfg, B: b, Options: opts},
			func() any { return new(solveRequest) },
			"54435146010300003001000000000000010000000000000000000000a70000007b22636f6e666967223a7b22656e67696e65223a2266703332222c2270616e656c223a226d6773222c226375746f6666223a36342c2272656f7274686f676f6e616c697a65223a747275652c226f6e5f68617a617264223a2266616c6c6261636b227d2c2262223a6e756c6c2c226f7074696f6e73223a7b226d6574686f64223a226c737172222c22746f6c223a31652d392c226d61785f697465726174696f6e73223a377d7d0002000000030000000200000030000000000000000000f03f0000000000000040000000000000084000000000000010400000000000001440000000000000184003000000030000000000000018000000000000000000e03f000000000000f8bf0000000000000240"},
		{"update_append", "update",
			&updateRequest{Key: "m3x2-abc", Append: &WireMatrix{Rows: 1, Cols: 2, Data: []float64{7, 8}}, DeadlineMS: 250},
			func() any { return new(updateRequest) },
			"54435146010200006800000000000000010000000000000000000000240000007b226b6579223a226d3378322d616263222c22646561646c696e655f6d73223a3235307d00000000020000000100000002000000100000000000000000001c400000000000002040"},
		{"update_downdate", "update",
			&updateRequest{Key: "m3x2-abc@2", RemoveRows: 1},
			func() any { return new(updateRequest) },
			"54435146010100004800000000000000010000000000000000000000240000007b226b6579223a226d3378322d6162634032222c2272656d6f76655f726f7773223a317d00000000"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := json.Marshal(tc.req)
			if err != nil {
				t.Fatal(err)
			}
			buf, err := encodeFrame(tc.req)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			frame := *buf
			if got := hex.EncodeToString(frame); got != tc.golden {
				t.Errorf("forward frame bytes changed:\n got %s\nwant %s", got, tc.golden)
			}
			// Encoding borrows the bulk payloads for the metadata marshal; the
			// request must come back whole (a failed forward is served locally).
			if after, _ := json.Marshal(tc.req); !bytes.Equal(after, want) {
				t.Errorf("encodeFrame changed the request: %s, was %s", after, want)
			}
			got := tc.fresh()
			if _, aerr := decodeFrame(tc.endpoint, frame, got); aerr != nil {
				t.Fatalf("decode: %s", aerr.msg)
			}
			if gj, _ := json.Marshal(got); !bytes.Equal(gj, want) {
				t.Errorf("decode(encode(req)) = %s, want %s", gj, want)
			}

		})
	}

	// The encoder refuses a matrix whose shape the frame's u32 dims cannot
	// hold, rather than shipping its truncation (4294967297x1 would read as
	// 1x1 on the far side).
	if bits.UintSize == 64 {
		one := int64(1) // not a constant: 1<<32 must compile on 32-bit hosts
		_, err := encodeFrame(&updateRequest{Key: "k", Append: &WireMatrix{Rows: int(one<<32 + 1), Cols: 1, Data: []float64{1}}})
		if err == nil {
			t.Error("encodeFrame accepted a 4294967297x1 append block")
		}
	}
}

// --- content negotiation ---------------------------------------------------

// TestWireContentNegotiation pins the negotiation table: only an explicit
// Accept for the frame type (or an Accept-less binary request) selects a
// binary response; wildcards and JSON clients keep the byte-for-byte JSON
// contract.
func TestWireContentNegotiation(t *testing.T) {
	s := New(Options{Workers: 2})
	h := s.Handler()
	m, n := 48, 8
	data := testMatrix(11, m, n, 1)
	jsonBody, err := json.Marshal(map[string]any{"matrix": wireMat(m, n, data)})
	if err != nil {
		t.Fatal(err)
	}
	binBody := frameBody(t, map[string]any{}, wirefmt.MatrixSection(m, n, data))

	cases := []struct {
		name        string
		contentType string
		accept      string
		wantBinary  bool
	}{
		{"json_req_no_accept", "application/json", "", false},
		{"json_req_wildcard", "application/json", "*/*", false},
		{"json_req_accept_frame", "application/json", wirefmt.ContentType, true},
		{"bin_req_no_accept", wirefmt.ContentType, "", true},
		{"bin_req_wildcard", wirefmt.ContentType, "*/*", false},
		{"bin_req_accept_json", wirefmt.ContentType, "application/json", false},
		{"bin_req_accept_frame_list", wirefmt.ContentType, "application/json, " + wirefmt.ContentType, true},
		{"bin_req_frame_with_params", wirefmt.ContentType, wirefmt.ContentType + "; q=0.9", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body := jsonBody
			if tc.contentType == wirefmt.ContentType {
				body = binBody
			}
			req := httptest.NewRequest(http.MethodPost, "/v1/factorize", bytes.NewReader(body))
			req.Header.Set("Content-Type", tc.contentType)
			if tc.accept != "" {
				req.Header.Set("Accept", tc.accept)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != 200 {
				t.Fatalf("code=%d body=%q", rec.Code, rec.Body.String())
			}
			gotCT := rec.Header().Get("Content-Type")
			if tc.wantBinary {
				if gotCT != wirefmt.ContentType {
					t.Fatalf("Content-Type = %q, want binary frame", gotCT)
				}
				var fr factorizeReply
				decodeFrameResp(t, rec, &fr)
				if fr.Key == "" {
					t.Fatalf("binary factorize response has no key")
				}
			} else {
				if gotCT != "application/json" {
					t.Fatalf("Content-Type = %q, want application/json", gotCT)
				}
				var fr factorizeReply
				if err := json.Unmarshal(rec.Body.Bytes(), &fr); err != nil || fr.Key == "" {
					t.Fatalf("JSON response not decodable: %v %q", err, rec.Body.String())
				}
			}
		})
	}
}

// TestWireEncodingMetrics checks the tcqrd_wire_* families count both
// directions per encoding.
func TestWireEncodingMetrics(t *testing.T) {
	s := New(Options{Workers: 2})
	h := s.Handler()
	m, n := 48, 8
	data := testMatrix(12, m, n, 1)

	post(t, h, "/v1/factorize", map[string]any{"matrix": wireMat(m, n, data)}, nil)
	rec := postFrame(t, h, "/v1/factorize", frameBody(t, map[string]any{}, wirefmt.MatrixSection(m, n, data)), "")
	if rec.Code != 200 {
		t.Fatalf("binary factorize: code=%d", rec.Code)
	}

	reqs := s.metrics.wireRequests.Snapshot()
	if reqs["factorize,json"] != 1 || reqs["factorize,binary"] != 1 {
		t.Fatalf("wire request counts = %v", reqs)
	}
	resps := s.metrics.wireResponses.Snapshot()
	if resps["json"] != 1 || resps["binary"] != 1 {
		t.Fatalf("wire response counts = %v", resps)
	}
}

// --- mixed encodings in one queue ------------------------------------------

// TestMixedEncodingCoalescing queues JSON and binary solves for the same
// factorization behind held workers and checks each runs its own backend
// solve and answers x: the wire encoding must be invisible once a request is
// decoded. The name dates from the request coalescer, which had to batch the
// two encodings together.
func TestMixedEncodingCoalescing(t *testing.T) {
	be := &countingBackend{inner: LibraryBackend{}}
	s := New(Options{Workers: 4, Backend: be})
	defer s.Close()
	h := s.Handler()
	m, n := 64, 16
	data := testMatrix(13, m, n, 1)
	xTrue := make([]float64, n)
	for j := range xTrue {
		xTrue[j] = 1
	}
	b := matVecData(m, n, data, xTrue)

	var fr factorizeReply
	if code, _ := post(t, h, "/v1/factorize", map[string]any{"matrix": wireMat(m, n, data)}, &fr); code != 200 {
		t.Fatalf("factorize: code=%d", code)
	}
	binSolve := frameBody(t, map[string]any{"key": fr.Key}, wirefmt.VectorSection(b))

	const half = 4
	release := holdWorkers(t, s, be)
	before := be.solve.Load()
	jsonX := make([][]float64, half)
	binX := make([][]float64, half)
	var wg sync.WaitGroup
	for i := 0; i < half; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			var sr solveReply
			if code, _ := post(t, h, "/v1/solve", map[string]any{"key": fr.Key, "b": b}, &sr); code != 200 {
				t.Errorf("json solve: code=%d", code)
			}
			jsonX[i] = sr.X
		}(i)
		go func(i int) {
			defer wg.Done()
			rec := postFrame(t, h, "/v1/solve", binSolve, "")
			if rec.Code != 200 {
				t.Errorf("binary solve: code=%d body=%q", rec.Code, rec.Body.String())
				return
			}
			var meta solveMeta
			secs := decodeFrameResp(t, rec, &meta)
			binX[i] = secs[1].Float64s()
		}(i)
	}
	waitFor(t, func() bool { return s.pool.Stats().Queued == 2*half },
		func() string { return fmt.Sprintf("%d solves to queue: pool=%+v", 2*half, s.pool.Stats()) })
	release()
	wg.Wait()

	if got := be.solve.Load() - before; got != 2*half {
		t.Fatalf("backend solves = %d, want one per request (%d)", got, 2*half)
	}
	for i := 0; i < half; i++ {
		if d := maxDiff(jsonX[i], xTrue); d > 1e-8 {
			t.Errorf("json solve %d: x off by %g", i, d)
		}
		if !slices.EqualFunc(binX[i], jsonX[i], func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
			t.Errorf("binary solve %d: x differs from the JSON reply's", i)
		}
	}
}

// --- errors stay JSON ------------------------------------------------------

// TestBinaryErrorsUseJSONEnvelope pins the rule that every failure is the
// JSON envelope, whatever encoding the request negotiated.
func TestBinaryErrorsUseJSONEnvelope(t *testing.T) {
	s := New(Options{Workers: 2})
	h := s.Handler()

	cases := []struct {
		name     string
		body     []byte
		wantCode int
		wantErr  string
	}{
		{"garbage_frame", []byte("not a frame at all"), 400, "bad_input"},
		{"truncated_frame", frameBody(t, map[string]any{}, wirefmt.VectorSection([]float64{1, 2, 3}))[:20], 400, "bad_input"},
		{"unknown_key", frameBody(t, map[string]any{"key": "m0-nope"}, wirefmt.VectorSection([]float64{1, 2, 3})), 404, "unknown_key"},
		{"meta_carries_b", frameBody(t, map[string]any{"b": []float64{1}}, wirefmt.VectorSection([]float64{1})), 400, "bad_input"},
		{"unknown_meta_field", frameBody(t, map[string]any{"bogus": 1}, wirefmt.VectorSection([]float64{1})), 400, "bad_input"},
		{"missing_bulk_sections", frameBody(t, map[string]any{"key": "k"}), 400, "bad_input"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := postFrame(t, h, "/v1/solve", tc.body, "")
			if rec.Code != tc.wantCode {
				t.Fatalf("code=%d body=%q, want %d", rec.Code, rec.Body.String(), tc.wantCode)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("error Content-Type = %q, want application/json", ct)
			}
			var env envelope
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
				t.Fatalf("error body %q is not the JSON envelope: %v", rec.Body.String(), err)
			}
			if env.Error.Code != tc.wantErr {
				t.Fatalf("error code = %q, want %q", env.Error.Code, tc.wantErr)
			}
		})
	}

	// Backpressure on the binary path: draining must answer 503 with the
	// JSON envelope even to a frame client.
	s.BeginDrain()
	rec := postFrame(t, h, "/v1/solve", frameBody(t, map[string]any{"key": "k"}, wirefmt.VectorSection([]float64{1})), "")
	if rec.Code != 503 {
		t.Fatalf("draining binary solve: code=%d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("draining error Content-Type = %q", ct)
	}
	var env envelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != "draining" {
		t.Fatalf("draining envelope: %v %q", err, rec.Body.String())
	}
}

// --- allocation regression gate --------------------------------------------

// TestBinaryCacheHitSolveAllocs gates the zero-copy promise: a binary
// cache-hit solve must never allocate more objects than its JSON twin, must
// stay under absolute per-request object and byte ceilings, and must
// allocate well under the heap bytes of the JSON path (which pays to parse
// and print every float — its cost shows up as bytes, not object count). At
// 256×64 the refinement allocates only what it returns, its working vectors
// and the optimality check's coming from a pooled slab, and the request
// pipeline allocates a fixed few: no per-request context or timer, a
// recycled pool task, fixed-size frame layouts and shared header values. Two
// inputs: one whose refinement converges (42 objects and about 12.0 KB per
// binary request; 58 with a per-request deadline context, a fresh pool task
// and per-response header slices, 69 and 21.9 KB when the working vectors
// were allocated afresh too), and the workloads' class, a κ 1e3 geometric A
// with a normal b, whose refinement settles: 42 objects (one that ran on to
// the divergence guard and recorded a hazard for the reply to carry cost 9
// more). Both gates are the count plus 2, so that hazard, or any one of the
// pipeline's allocations back per request, fails them. Objects are counted by
// roundtest.MedianMallocs at the test's own GOMAXPROCS (testing.AllocsPerRun
// pins one), so make check's -cpu 1,2,4 line gates them at each: 42 at one,
// two and four processors.
func TestBinaryCacheHitSolveAllocs(t *testing.T) {
	const m, n = 256, 64
	converging := testMatrix(14, m, n, 1)
	rng := rand.New(rand.NewSource(14))
	settling := matgen.WithCond(rng, m, n, 1e3, matgen.Geometric).Data
	settlingB := matgen.Normal(rng, m, 1).Col(0)
	bStep := make([]float64, m)
	for i := range bStep {
		bStep[i] = float64(i%7) - 3
	}
	// The race runtime drops a quarter of sync.Pool.Puts, so a race build
	// allocates a few pooled buffers, slabs, tasks and timers afresh per
	// request (48 objects on either input) and is held to a ceiling 16
	// higher.
	rows := []struct {
		name    string
		data, b []float64
		ceiling int
	}{
		{"converges", converging, bStep, 44},
		{"settles", settling, settlingB, 44},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			ceiling := row.ceiling
			if raceEnabled {
				ceiling += 16
			}
			checkCacheHitSolveAllocs(t, row.data, row.b, m, n, ceiling)
		})
	}
}

// checkCacheHitSolveAllocs factorizes the m×n matrix data on a fresh server
// and holds a cache-hit solve of b to the gates TestBinaryCacheHitSolveAllocs
// names, with ceiling objects per binary request.
func checkCacheHitSolveAllocs(t *testing.T, data, b []float64, m, n, ceiling int) {
	s := New(Options{Workers: 1})
	h := s.Handler()
	var fr factorizeReply
	if code, _ := post(t, h, "/v1/factorize", map[string]any{"matrix": wireMat(m, n, data)}, &fr); code != 200 {
		t.Fatalf("factorize: code=%d", code)
	}
	binBody := frameBody(t, map[string]any{"key": fr.Key}, wirefmt.VectorSection(b))
	jsonBody, err := json.Marshal(map[string]any{"key": fr.Key, "b": b})
	if err != nil {
		t.Fatal(err)
	}

	solveOnce := func(contentType string, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
		req.Header.Set("Content-Type", contentType)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("solve: code=%d body=%q", rec.Code, rec.Body.String())
		}
	}
	// heapBytes measures average heap bytes allocated per request. Workers:1
	// keeps all compute on one pool goroutine; TotalAlloc is process-global
	// either way, and 100 iterations average out background noise.
	heapBytes := func(contentType string, body []byte) uint64 {
		const iters = 100
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < iters; i++ {
			solveOnce(contentType, body)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / iters
	}
	jsonAllocs := roundtest.MedianMallocs(func() { solveOnce("application/json", jsonBody) })
	binAllocs := roundtest.MedianMallocs(func() { solveOnce(wirefmt.ContentType, binBody) })
	jsonBytes := heapBytes("application/json", jsonBody)
	binBytes := heapBytes(wirefmt.ContentType, binBody)
	t.Logf("per request at %d procs: json=%d allocs / %d B, binary=%d allocs / %d B",
		runtime.GOMAXPROCS(0), jsonAllocs, jsonBytes, binAllocs, binBytes)
	// Both encodings share the solve compute, so binary's object count can
	// never exceed JSON's; JSON's per-float decode/print cost shows up as
	// heap bytes, where the pooled zero-copy path must win by a wide margin.
	if binAllocs > jsonAllocs {
		t.Fatalf("binary solve allocates %d objects/request vs %d for JSON; the pooled path has regressed", binAllocs, jsonAllocs)
	}
	if binAllocs > uint64(ceiling) {
		t.Fatalf("binary cache-hit solve allocates %d objects/request, above the %d gate", binAllocs, ceiling)
	}
	// The shared solve compute allocates the same on both paths, so the
	// json-binary gap isolates the wire layer: JSON pays several KiB per
	// request to parse and print the floats at this shape, the pooled
	// zero-copy frame path pays nearly nothing. Require the full wire-sized
	// margin so a regression that re-introduces per-request body buffers or
	// per-element encode work trips the gate, and hold the binary request
	// under a byte ceiling so one that allocates the refinement's working
	// vectors afresh again trips it too. Race builds skip these two byte
	// assertions (not the alloc-count gates above): the race runtime
	// deliberately drops a quarter of sync.Pool.Puts, so the pooled frame
	// buffers and scratch slabs they measure are randomly re-allocated.
	const byteCeiling = 16 << 10
	if raceEnabled {
		t.Logf("race build: skipping the pooled-byte margin and ceiling (race mode drops 1/4 of Pool.Puts)")
	} else if binBytes+3000 >= jsonBytes {
		t.Fatalf("binary cache-hit solve allocates %d heap bytes/request vs %d for JSON; the zero-copy path has regressed", binBytes, jsonBytes)
	} else if binBytes > byteCeiling {
		t.Fatalf("binary cache-hit solve allocates %d heap bytes/request, above the %d-byte gate", binBytes, byteCeiling)
	}
}

// spyBody is a request body that remembers where the server asked for its
// first bytes to be put: the start of the buffer the frame was read into.
type spyBody struct {
	r   *bytes.Reader
	dst []byte
}

func (s *spyBody) Read(p []byte) (int, error) {
	if s.dst == nil && len(p) > 0 {
		s.dst = p
	}
	return s.r.Read(p)
}

// postSpiedFrame posts frame to /v1/solve with a declared length and returns
// the response with the buffer the server read the frame into.
func postSpiedFrame(t *testing.T, h http.Handler, frame []byte) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	body := &spyBody{r: bytes.NewReader(frame)}
	req := httptest.NewRequest(http.MethodPost, "/v1/solve", body)
	req.ContentLength = int64(len(frame))
	req.Header.Set("Content-Type", wirefmt.ContentType)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("solve: code=%d body=%q", rec.Code, rec.Body.String())
	}
	return rec, body.dst[:cap(body.dst)]
}

// TestColdFrameSolveAllocBytes holds the two halves of the adopt rule
// (decodeFrame). A frame too large for wirefmt's pool is read once, into a
// buffer of exactly its size, and the cached matrix keeps that buffer: a
// cold 4096×128 solve allocates at most 1.9× its 4 MiB matrix payload. About
// 1.6× is what it needs: the frame (1×) and the buffer that becomes Q (0.5×),
// into which the factorization narrows the frame's float64 matrix, then R
// and the refinement's vectors; the panel factors in
// that buffer and its tile-tree workspace is pooled. It was 2.1× with a
// float32 copy of the matrix handed to the backend, and 6.3× with the read
// buffer regrown and the matrix copied out of it. A frame the pool will
// recycle is still copied out of: nothing cached may view it.
func TestColdFrameSolveAllocBytes(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	h := s.Handler()

	c := newColdTall()
	const payload = 8 * coldRows * coldCols
	// Warm the pools and the lazily built tables with the collector held
	// off, and gate the median request, as the factorization's own
	// allocation gates do: a cycle empties the GEMM's pack-buffer pools and
	// the tile-tree pool, and a pooled buffer left in one processor's
	// private slot is out of reach of the others until each has its own, so
	// what a request refills depends on when cycles fall and where its
	// goroutines run (0.1–0.45× more).
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const warm, iters = 3, 5
	for i := 0; i < warm; i++ {
		postSpiedFrame(t, h, c.rotated(t, 1+i))
	}
	perReq := make([]uint64, iters)
	for i := range perReq {
		frame := c.rotated(t, 1+warm+i)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec, buf := postSpiedFrame(t, h, frame)
		runtime.ReadMemStats(&after)
		perReq[i] = after.TotalAlloc - before.TotalAlloc
		var meta solveMeta
		decodeFrameResp(t, rec, &meta)
		e, ok := s.cache.Get(meta.Key)
		if !ok {
			t.Fatalf("cold solve %d left no entry under %q", i, meta.Key)
		}
		if len(buf) != len(frame) {
			t.Fatalf("a %d-byte frame was read into a %d-byte buffer", len(frame), len(buf))
		}
		if lo, hi, at := uintptr(unsafe.Pointer(&buf[0])), uintptr(unsafe.Pointer(&buf[len(buf)-1])), uintptr(unsafe.Pointer(&e.A.Data[0])); at < lo || at > hi {
			t.Fatalf("cold solve %d copied its matrix out of a frame buffer nothing will reuse", i)
		}
	}
	slices.Sort(perReq)
	median := perReq[iters/2]
	t.Logf("cold %dx%d frame solve: %d bytes allocated per request (median of %d), %.2fx the matrix payload", coldRows, coldCols, median, iters, float64(median)/payload)
	// Race builds skip the byte gate, not the adoption check above: the race
	// runtime drops a quarter of sync.Pool.Puts, so the factorization's pooled
	// workspace is randomly reallocated.
	if raceEnabled {
		t.Logf("race build: skipping the byte gate (race mode drops 1/4 of Pool.Puts)")
	} else if median > payload*19/10 {
		t.Fatalf("cold frame solve allocates %d bytes per request, %.2fx its %d-byte matrix payload; the gate is 1.9x",
			median, float64(median)/payload, payload)
	}

	// Under the pool cap: poison the buffer the frame was read into once the
	// request is over, as its next user would. The cached entry must not care.
	m, n := 64, 16
	data := testMatrix(21, m, n, 1)
	b := matVecData(m, n, data, make([]float64, n))
	for i := range b {
		b[i] += float64(i%5) - 2
	}
	small := frameBody(t, map[string]any{}, wirefmt.MatrixSection(m, n, data), wirefmt.VectorSection(b))
	rec, buf := postSpiedFrame(t, h, small)
	var first solveMeta
	x1 := append([]float64(nil), decodeFrameResp(t, rec, &first)[1].Float64s()...)
	if wirefmt.TooLargeToPool(buf) {
		t.Fatalf("test plumbing: a %d-byte frame landed in an unpoolable %d-byte buffer", len(small), cap(buf))
	}
	for i := range buf {
		buf[i] = 0xFF
	}
	rec = postFrame(t, h, "/v1/solve", frameBody(t, map[string]any{"key": first.Key}, wirefmt.VectorSection(b)), "")
	var byKey solveMeta
	x2 := decodeFrameResp(t, rec, &byKey)[1].Float64s()
	if rec.Code != 200 || !byKey.Cached || !slices.Equal(x1, x2) {
		t.Fatalf("solve by key after the frame buffer was reused: code=%d meta %+v; x differs: %v", rec.Code, byKey, !slices.Equal(x1, x2))
	}
	rec = postFrame(t, h, "/v1/solve", small, "")
	var again solveMeta
	decodeFrameResp(t, rec, &again)
	if again.Key != first.Key || !again.Cached || s.cache.Stats().KeyCollisions != 0 {
		t.Fatalf("the same frame again: meta %+v, %d collisions; the cached matrix changed under its key", again, s.cache.Stats().KeyCollisions)
	}
}

// TestFrameLayoutTableMatchesDesignDoc holds DESIGN.md §12's per-endpoint
// section table to the layouts the code states, both ways: every row below is
// rendered from the request and response types themselves and must appear in
// the document verbatim, and every endpoint row of §12's table must name a
// path below, so a row left behind by a deleted endpoint fails too.
func TestFrameLayoutTableMatchesDesignDoc(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	stated := map[string]bool{}
	for _, ep := range []struct {
		path      string
		req, resp any
	}{
		{"/v1/factorize", new(factorizeRequest), new(factorizeResponse)},
		{"/v1/solve", new(solveRequest), new(solveResponse)},
		{"/v1/update", new(updateRequest), new(updateResponse)},
		{"/v1/lowrank", new(lowRankRequest), new(lowRankResponse)},
	} {
		stated[ep.path] = true
		row := fmt.Sprintf("| `%s` | `%v` | `%v` |", ep.path, layoutOf(ep.req), layoutOf(ep.resp))
		if !bytes.Contains(doc, []byte(row)) {
			t.Errorf("DESIGN.md §12 lacks the row the code states:\n%s", row)
		}
	}
	_, sec, ok := strings.Cut(string(doc), "\n## 12. ")
	if !ok {
		t.Fatal("DESIGN.md has no §12")
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	for _, line := range strings.Split(sec, "\n") {
		path, ok := strings.CutPrefix(strings.TrimSpace(line), "| `/v1/")
		if !ok {
			continue
		}
		path, _, _ = strings.Cut(path, "`")
		if !stated["/v1/"+path] {
			t.Errorf("DESIGN.md §12 has a row for /v1/%s, an endpoint whose layout no code states:\n%s", path, line)
		}
	}
}

// TestDefaultBodyCapAdmitsElementCap: under default Options the element cap,
// not the body cap, decides which matrices a binary /v1/factorize takes. A
// frame carrying the largest matrix MaxElements admits is 64 MiB of floats
// plus its section headers and metadata, so the body cap leaves room for
// them: 8 Mi×1 factors, and 8 Mi+1 rows are refused as too_large by the
// element check.
func TestDefaultBodyCapAdmitsElementCap(t *testing.T) {
	if raceEnabled {
		t.Skip("a 64 MiB factorization is too slow under the race detector")
	}
	s := New(Options{Workers: 1})
	defer s.Close()
	h := s.Handler()
	column := func(m int) []float64 {
		c := make([]float64, m)
		for i := range c {
			c[i] = float64(1 + i%7)
		}
		return c
	}
	for _, tc := range []struct {
		rows int
		code int
	}{
		{s.opts.MaxElements, 200},
		{s.opts.MaxElements + 1, 413},
	} {
		body := frameBody(t, map[string]any{}, wirefmt.MatrixSection(tc.rows, 1, column(tc.rows)))
		rec := postFrame(t, h, "/v1/factorize", body, "application/json")
		if rec.Code != tc.code {
			t.Fatalf("%d×1 frame of %d bytes: status %d, want %d: %s", tc.rows, len(body), rec.Code, tc.code, rec.Body.String())
		}
		if tc.code == 200 {
			continue
		}
		var env envelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatal(err)
		}
		if env.Error.Code != "too_large" || !strings.Contains(env.Error.Message, "elements") {
			t.Fatalf("%d×1 frame: error %+v, want too_large from the element cap", tc.rows, env.Error)
		}
	}
}

// FuzzRequestDecode throws the same raw bytes at both decoders of every
// endpoint's request: the frame decode and the strict JSON decode. Whatever
// the request type and codec, decoding must never panic, and every rejection
// must be a client-class apiError — a hostile body can never take the 500
// path. Every matrix an accepted body carries must either pass matrix(), the
// gate every handler applies before anything else sees it, with a consistent
// shape, or be rejected by it as bad input. An accepted frame must also have bound each
// required bulk section and must survive re-encoding unchanged.
func FuzzRequestDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("not a frame"))
	valid, _ := wirefmt.AppendFrame(nil,
		wirefmt.JSONSection([]byte(`{"config":{"engine":"fp32"}}`)),
		wirefmt.MatrixSection(3, 2, []float64{1, 2, 3, 4, 5, 6}))
	f.Add(valid)
	noMatrix, _ := wirefmt.AppendFrame(nil, wirefmt.JSONSection([]byte(`{"key":"k"}`)))
	f.Add(noMatrix)
	inMeta, _ := wirefmt.AppendFrame(nil,
		wirefmt.JSONSection([]byte(`{"matrix":{"rows":1,"cols":1,"data":[1]}}`)),
		wirefmt.MatrixSection(1, 1, []float64{1}))
	f.Add(inMeta)
	vecNotMat, _ := wirefmt.AppendFrame(nil,
		wirefmt.JSONSection([]byte(`{"key":"k"}`)),
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
		`{"matrix":{"rows":2,"cols":2,"data":[1,0,0,1]},"config":{"panel":"mgs"}}`,
		`{"key":"k","append":{"rows":1,"cols":2,"data":[1,2]},"remove_rows":1}`,
		`{"key":"k","deadline_ms":5}`,
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
			"factorize": func() any { return new(factorizeRequest) },
			"solve":     func() any { return new(solveRequest) },
			"update":    func() any { return new(updateRequest) },
			"lowrank":   func() any { return new(lowRankRequest) },
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
