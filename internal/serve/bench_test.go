package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"tcqr/internal/wirefmt"
)

// Serving benchmarks at the ISSUE's acceptance shape (1024×256): the cold
// path (factorize + solve), the cache-hit path (solve against a warm
// factorization — the "factor once, apply many times" payoff the cache
// exists for) over JSON and over binary frames.

const benchRows, benchCols = 1024, 256

// benchServer returns a server plus pre-marshaled factorize and solve
// request bodies for the benchmark matrix.
func benchServer() (*Server, http.Handler, []byte, []byte) {
	s := New(Options{})
	h := s.Handler()
	data := testMatrix(1234, benchRows, benchCols, 1)
	x := make([]float64, benchCols)
	for j := range x {
		x[j] = float64(j%11) - 5
	}
	b := matVecData(benchRows, benchCols, data, x)
	fbody, err := json.Marshal(map[string]any{"matrix": wireMat(benchRows, benchCols, data)})
	if err != nil {
		panic(err)
	}
	key := mustFactorize(h, fbody)
	sbody, err := json.Marshal(map[string]any{"key": key, "b": b})
	if err != nil {
		panic(err)
	}
	return s, h, fbody, sbody
}

func mustFactorize(h http.Handler, body []byte) string {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/factorize", bytes.NewReader(body)))
	if rec.Code != 200 {
		panic("bench factorize failed: " + rec.Body.String())
	}
	var fr struct {
		Key string `json:"key"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &fr); err != nil || fr.Key == "" {
		panic("bench factorize returned no key")
	}
	return fr.Key
}

func benchPost(b *testing.B, h http.Handler, path string, body []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rec.Code != 200 {
		// Errorf, not Fatalf: benchPost also runs on bench worker goroutines.
		b.Errorf("%s: code=%d body=%s", path, rec.Code, rec.Body.String())
	}
}

// benchBinSolveBody builds the binary-frame twin of benchServer's solve
// body: [JSON {key}, vector b] for the warm factorization behind sbody.
func benchBinSolveBody(sbody []byte) []byte {
	var sr struct {
		Key string    `json:"key"`
		B   []float64 `json:"b"`
	}
	if err := json.Unmarshal(sbody, &sr); err != nil {
		panic(err)
	}
	meta, err := json.Marshal(map[string]any{"key": sr.Key})
	if err != nil {
		panic(err)
	}
	frame, err := wirefmt.AppendFrame(nil, wirefmt.JSONSection(meta), wirefmt.VectorSection(sr.B))
	if err != nil {
		panic(err)
	}
	return frame
}

// benchPostFrame drives one binary-encoded request (frame body in, frame
// response negotiated by the absent Accept header).
func benchPostFrame(b *testing.B, h http.Handler, path string, body []byte) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", wirefmt.ContentType)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 200 {
		b.Errorf("%s: code=%d body=%s", path, rec.Code, rec.Body.String())
	}
}

// BenchmarkServeColdFactorizeSolve1024x256 measures the full cold path: the
// cache is emptied every iteration, so each solve pays for a fresh
// factorization.
func BenchmarkServeColdFactorizeSolve1024x256(b *testing.B) {
	s, h, fbody, sbody := benchServer()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Cache().Reset()
		benchPost(b, h, "/v1/factorize", fbody)
		benchPost(b, h, "/v1/solve", sbody)
	}
}

// BenchmarkServeCacheHitSolve1024x256 measures the warm path: every solve
// reuses the factorization cached in benchServer. The ISSUE acceptance bar
// is ≥5× lower latency than the cold benchmark above.
func BenchmarkServeCacheHitSolve1024x256(b *testing.B) {
	_, h, _, sbody := benchServer()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, h, "/v1/solve", sbody)
	}
}

// BenchmarkServeCacheHitSolveBinary1024x256 is the binary-frame twin of the
// cache-hit benchmark above: zero-copy b decode, pooled buffers, frame
// response. The ISSUE acceptance bar is well under 1ms/op at this shape.
func BenchmarkServeCacheHitSolveBinary1024x256(b *testing.B) {
	_, h, _, sbody := benchServer()
	frame := benchBinSolveBody(sbody)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPostFrame(b, h, "/v1/solve", frame)
	}
}

// --- the cold tall-skinny frame request ---------------------------------------
//
// The shape the benchmark's serve-cold-tall workload sends: a binary /v1/solve
// carrying a 4096×128 matrix (4 MiB of float64) nobody has seen, so the
// request pays body read, frame decode, content hash, factorization and
// solve. Each request is a new row rotation of one matrix: a new key, the
// same answer.

const coldRows, coldCols = 4096, 128

// coldTall is the matrix, the right-hand side A·x it is solved against, and
// the frame reused across rotations.
type coldTall struct {
	data, b []float64
	rotA    []float64
	rotB    []float64
	frame   []byte
}

func newColdTall() *coldTall {
	c := &coldTall{data: testMatrix(4096128, coldRows, coldCols, 1)}
	x := make([]float64, coldCols)
	for j := range x {
		x[j] = float64(j%11) - 5
	}
	c.b = matVecData(coldRows, coldCols, c.data, x)
	c.rotA = make([]float64, len(c.data))
	c.rotB = make([]float64, coldRows)
	return c
}

// rotated returns the solve frame for the matrix and b rotated down by r
// rows. The frame is rebuilt in place: it is only valid until the next call.
func (c *coldTall) rotated(tb testing.TB, r int) []byte {
	rot := func(dst, src []float64) {
		copy(dst, src[len(src)-r:])
		copy(dst[r:], src[:len(src)-r])
	}
	for j := 0; j < coldCols; j++ {
		rot(c.rotA[j*coldRows:(j+1)*coldRows], c.data[j*coldRows:(j+1)*coldRows])
	}
	rot(c.rotB, c.b)
	var err error
	c.frame, err = wirefmt.AppendFrame(c.frame[:0], wirefmt.JSONSection([]byte("{}")),
		wirefmt.MatrixSection(coldRows, coldCols, c.rotA), wirefmt.VectorSection(c.rotB))
	if err != nil {
		tb.Fatal(err)
	}
	return c.frame
}

// BenchmarkServeColdTallFrame4096x128 is the in-process referee for the
// inbound half of a cold request (the benchmark's serve-cold-tall drives the
// same request through a daemon): B/op is what the request allocates, the
// client's frame assembly excluded.
func BenchmarkServeColdTallFrame4096x128(b *testing.B) {
	s := New(Options{})
	defer s.Close()
	h := s.Handler()
	c := newColdTall()
	b.ReportAllocs()
	b.SetBytes(int64(8 * coldRows * coldCols))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		frame := c.rotated(b, 1+37*i%(coldRows-1))
		b.StartTimer()
		benchPostFrame(b, h, "/v1/solve", frame)
	}
}
