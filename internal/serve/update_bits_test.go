package serve

import (
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"tcqr"
	"tcqr/internal/matgen"
)

// xBitsHash is the FNV-1a hash of x's float64 bit patterns.
func xBitsHash(x []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range x {
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestServedUpdateBits pins the served update path at the serve-update-mix
// shape: a 2048×128 κ 1e3 geometric key, 16 rows appended at the element
// RMS, a by-key CGLS solve, then the 16 rows removed and the short solve.
//
// The append's hash is the one the explicit-Q update served before the
// daemon's factor dropped Q: the annihilation is the same code, so R′ did
// not move by a bit. The downdate's was re-recorded when the served
// downdate started sweeping the narrowed removed rows of A instead of
// B = Q₂·R: R′ moved within rounding, and CGLS takes 9 iterations where it
// took 8 (0xb1c5d71dffd62907 before), to an optimality of 6.1e-14 either way.
func TestServedUpdateBits(t *testing.T) {
	const (
		m, n, k    = 2048, 128, 16
		appendX    = 0x4eda9a0d466602cb
		appendIter = 9
		downX      = 0x0c34a657a0900b0f
		downIter   = 9
	)
	rng := rand.New(rand.NewSource(2048))
	a := matgen.WithCond(rng, m, n, 1e3, matgen.Geometric)
	var ss float64
	for _, v := range a.Data {
		ss += v * v
	}
	rms := math.Sqrt(ss / float64(m*n))
	block := make([]float64, k*n)
	for i := range block {
		block[i] = rms * rng.NormFloat64()
	}
	b := make([]float64, m+k)
	for i := range b {
		b[i] = rng.NormFloat64()
	}

	s := New(Options{Workers: 1})
	defer s.Close()
	h := s.Handler()
	var fr factorizeReply
	if code, _ := post(t, h, "/v1/factorize", map[string]any{"matrix": wireMat(m, n, a.Data)}, &fr); code != 200 {
		t.Fatalf("factorize: %d", code)
	}
	solve := func(what string, b []float64, wantX uint64, wantIter int) {
		t.Helper()
		var sr solveReply
		if code, _ := post(t, h, "/v1/solve", map[string]any{"key": fr.Key, "b": b}, &sr); code != 200 {
			t.Fatalf("%s solve: %d", what, code)
		}
		got := xBitsHash(sr.X)
		t.Logf("after the %s: x %#016x in %d iterations, optimality %.3g", what, got, sr.Iterations, sr.Optimality)
		// Recorded on amd64; other ports may fuse multiply-adds in Go loops.
		if runtime.GOARCH == "amd64" && (got != wantX || sr.Iterations != wantIter) {
			t.Errorf("after the %s: x %#016x in %d iterations, recorded %#016x in %d", what, got, sr.Iterations, uint64(wantX), wantIter)
		}
	}
	if code, _ := post(t, h, "/v1/update", map[string]any{"key": fr.Key, "append": wireMat(k, n, block)}, nil); code != 200 {
		t.Fatalf("append: %d", code)
	}
	solve("append", b, appendX, appendIter)
	if code, _ := post(t, h, "/v1/update", map[string]any{"key": fr.Key, "remove_rows": k}, nil); code != 200 {
		t.Fatalf("downdate: %d", code)
	}
	solve("downdate", b[:m], downX, downIter)
	if e, ok := s.cache.Get(fr.Key); !ok || e.F.Q != nil {
		t.Error("the downdated entry is missing or keeps a Q")
	}
}

// TestServedDowndateBreakdown: removing the row that carries nearly all of
// a column's mass breaks the downdate down. Under on_hazard fail that is a
// 422; under fallback the epoch is tcqr.Factorize of A's remaining rows
// under the entry's config, without Q, and its hazards open with the
// library's one downdate event, then the refactorization's own.
func TestServedDowndateBreakdown(t *testing.T) {
	// A = [[1, 0], [0, 1e-3], [0, 10]]: without its last row, column 2 keeps
	// ~1e-8 of its mass, inside the float32 noise floor.
	data := []float64{1, 0, 0, 0, 1e-3, 10}
	s := New(Options{Workers: 1})
	defer s.Close()
	h := s.Handler()
	downdate := func(policy string, out any) int {
		var fr factorizeReply
		cfg := map[string]any{"engine": "fp32", "on_hazard": policy}
		if code, _ := post(t, h, "/v1/factorize", map[string]any{"matrix": wireMat(3, 2, data), "config": cfg}, &fr); code != 200 {
			t.Fatalf("factorize under %s: %d", policy, code)
		}
		code, _ := post(t, h, "/v1/update", map[string]any{"key": fr.Key, "remove_rows": 1}, out)
		return code
	}
	var er envelope
	if code := downdate("fail", &er); code != 422 || er.Error.Code != "numerical_hazard" {
		t.Fatalf("breakdown under fail: %d %+v, want 422 numerical_hazard", code, er.Error)
	}
	var ur updateReply
	if code := downdate("fallback", &ur); code != 200 {
		t.Fatalf("breakdown under fallback: %d", code)
	}
	e, ok := s.cache.Get(ur.Key)
	if !ok {
		t.Fatalf("epoch %s not cached", ur.Key)
	}
	want, err := tcqr.Factorize(tcqr.FromColMajor(2, 2, []float64{1, 0, 0, 1e-3}), e.Config)
	if err != nil {
		t.Fatal(err)
	}
	ev := WireHazard{Kind: "breakdown", Stage: "downdate", Detail: er.Error.Message,
		Action: "refactorize remaining rows from scratch"}
	if len(ur.Hazards) == 0 || ur.Hazards[0] != ev || !slices.Equal(ur.Hazards[1:], wireHazards(want.Hazards)) {
		t.Errorf("hazards %+v, want %+v then the refactorization's %+v", ur.Hazards, ev, wireHazards(want.Hazards))
	}
	if e.F.Q != nil || !slices.Equal(factorBits(e.F), factorBits(want)) {
		t.Error("the recovered epoch is not tcqr.Factorize's R of the remaining rows, without Q")
	}
}
