package blas

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"tcqr/internal/dense"
	"tcqr/internal/f16"
)

// withBlockConfig shrinks the cache-blocking parameters so small test
// problems exercise the full multi-tile, multi-slab control flow of the
// packed kernel, restoring the defaults afterwards.
func withBlockConfig(t *testing.T, mc, kc, nc, minFlops int, fn func()) {
	t.Helper()
	oMC, oKC, oNC, oMin := gemmMC, gemmKC, gemmNC, gemmBlockedMinFlops
	gemmMC, gemmKC, gemmNC, gemmBlockedMinFlops = mc, kc, nc, minFlops
	defer func() {
		gemmMC, gemmKC, gemmNC, gemmBlockedMinFlops = oMC, oKC, oNC, oMin
	}()
	fn()
}

func randMatT[T dense.Float](rng *rand.Rand, rows, cols int) *dense.Matrix[T] {
	m := dense.New[T](rows, cols)
	for i := range m.Data {
		m.Data[i] = T(rng.NormFloat64())
	}
	return m
}

// goldenGemm checks the packed kernel against the retained naive reference
// kernel across all transpose pairs, α/β regimes, and edge-tile shapes.
func goldenGemm[T dense.Float](t *testing.T, tol float64) {
	rng := rand.New(rand.NewSource(7))
	shapes := []struct{ m, n, k int }{
		{4, 4, 4},    // single micro-tile minimum
		{16, 4, 8},   // one AVX f32 micro-panel exactly
		{17, 5, 9},   // every dimension one past a tile edge
		{13, 29, 23}, // odd everything
		{33, 25, 40}, // spans mc/nc/kc below
		{64, 48, 37},
	}
	withBlockConfig(t, 32, 16, 24, 1, func() {
		for _, sh := range shapes {
			for _, tA := range []Transpose{NoTrans, Trans} {
				for _, tB := range []Transpose{NoTrans, Trans} {
					for _, alpha := range []T{0, 1, -1.5} {
						for _, beta := range []T{0, 1, 0.5} {
							var a, b *dense.Matrix[T]
							if tA == NoTrans {
								a = randMatT[T](rng, sh.m, sh.k)
							} else {
								a = randMatT[T](rng, sh.k, sh.m)
							}
							if tB == NoTrans {
								b = randMatT[T](rng, sh.k, sh.n)
							} else {
								b = randMatT[T](rng, sh.n, sh.k)
							}
							c := randMatT[T](rng, sh.m, sh.n)
							want := c.Clone()
							gemmCols(tA, tB, alpha, a, b, beta, want, 0, sh.n, sh.k, sh.m)
							Gemm(tA, tB, alpha, a, b, beta, c)
							for i := range c.Data {
								w := float64(want.Data[i])
								if d := math.Abs(float64(c.Data[i]) - w); d > tol*(1+math.Abs(w)) {
									t.Fatalf("%v/%v m=%d n=%d k=%d α=%v β=%v: elem %d = %v, want %v",
										tA, tB, sh.m, sh.n, sh.k, alpha, beta, i, c.Data[i], want.Data[i])
								}
							}
						}
					}
				}
			}
		}
	})
}

func TestGemmBlockedGoldenFloat64(t *testing.T) { goldenGemm[float64](t, 1e-12) }
func TestGemmBlockedGoldenFloat32(t *testing.T) { goldenGemm[float32](t, 1e-3) }

// TestGemmBlockedStrided drives the packed kernel over views whose stride
// exceeds their row count, for all transpose pairs.
func TestGemmBlockedStrided(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	parent := randMatT[float64](rng, 90, 90)
	withBlockConfig(t, 16, 8, 12, 1, func() {
		for _, tA := range []Transpose{NoTrans, Trans} {
			for _, tB := range []Transpose{NoTrans, Trans} {
				m, n, k := 21, 17, 26
				var a, b *dense.Matrix[float64]
				if tA == NoTrans {
					a = parent.View(2, 3, m, k)
				} else {
					a = parent.View(2, 3, k, m)
				}
				if tB == NoTrans {
					b = parent.View(40, 30, k, n)
				} else {
					b = parent.View(40, 30, n, k)
				}
				cParent := randMatT[float64](rng, 40, 40)
				c := cParent.View(7, 9, m, n)
				want := c.Clone()
				gemmCols(tA, tB, -0.75, a, b, 0.25, want, 0, n, k, m)
				before := cParent.Clone()
				Gemm(tA, tB, -0.75, a, b, 0.25, c)
				for i := 0; i < m; i++ {
					for j := 0; j < n; j++ {
						if d := math.Abs(c.At(i, j) - want.At(i, j)); d > 1e-12*(1+math.Abs(want.At(i, j))) {
							t.Fatalf("%v/%v strided (%d,%d): %v want %v", tA, tB, i, j, c.At(i, j), want.At(i, j))
						}
					}
				}
				for i := 0; i < 40; i++ {
					for j := 0; j < 40; j++ {
						inside := i >= 7 && i < 7+m && j >= 9 && j < 9+n
						if !inside && cParent.At(i, j) != before.At(i, j) {
							t.Fatalf("%v/%v wrote outside view at (%d,%d)", tA, tB, i, j)
						}
					}
				}
			}
		}
	})
}

// TestGemmWorkerCountDeterminism: the blocked kernel must produce identical
// bits — and, hooked, the same overflow/underflow counts — at any GOMAXPROCS,
// because tile ownership and k-slab order are fixed by the problem shape
// alone. The cases cut the work every way the packed GEMM does: many
// macro-tiles and slabs under shrunk blocking, with op(B) packed in groups of
// two slabs, or in blocks of 48 columns one slab at a time; the row split of
// an output with fewer macro-tiles than workers (one 128-row tile, and one
// 64-row tile, at the default gemmMC); and the trailing update's shape. Each
// runs at one to four processors, plain and through the binary16 hook.
func TestGemmWorkerCountDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(9))
	for _, tc := range []struct {
		name    string
		m, n, k int
		tA      Transpose
		bMax    int // gemmBMax under shrunk blocking (kc 16, nc 24); 0: the default blocking
	}{
		{"tiles", 150, 130, 90, NoTrans, 2 * 16 * 132}, // two slabs of the 130-column op(B)
		{"tiles-trans", 150, 130, 90, Trans, 2 * 16 * 132},
		{"column-blocks", 150, 130, 90, Trans, 16 * 48},
		{"row-split", 128, 128, 600, Trans, 0},
		{"row-split-narrow", 64, 64, 700, Trans, 0},
		{"update", 700, 128, 128, NoTrans, 0},
	} {
		ar, ac := tc.m, tc.k
		if tc.tA == Trans {
			ar, ac = ac, ar
		}
		a := specialsMat32(rng, ar, ac)
		b := specialsMat32(rng, tc.k, tc.n)
		c0 := randMatT[float32](rng, tc.m, tc.n)
		wantOv, wantUf := f16Counts(a, b)
		for _, hooked := range []bool{false, true} {
			var first []float32
			for procs := 1; procs <= 4; procs++ {
				runtime.GOMAXPROCS(procs)
				c := c0.Clone()
				var ov, uf int64
				run := func() {
					if hooked {
						ov, uf = GemmHooked(tc.tA, NoTrans, 1.25, a, b, 0.5, c, &f16Hook, &f16Hook, true)
					} else {
						Gemm(tc.tA, NoTrans, 1.25, a, b, 0.5, c)
					}
				}
				if tc.bMax != 0 {
					withBlockConfig(t, 32, 16, 24, 1, func() {
						defer func(v int) { gemmBMax = v }(gemmBMax)
						gemmBMax = tc.bMax
						run()
					})
				} else {
					run()
				}
				what := fmt.Sprintf("%s hooked=%v at %d procs", tc.name, hooked, procs)
				if hooked && (ov != wantOv || uf != wantUf) {
					t.Errorf("%s: counted %d overflows, %d underflows; the operands hold %d, %d", what, ov, uf, wantOv, wantUf)
				}
				if first == nil {
					first = c.Data
					continue
				}
				sameBits(t, what+" against 1 proc", c.Data, first)
			}
		}
	}
}

// TestGemmConcurrentDeterminism has four callers run packed GEMMs and
// GemmBatches at once, over and over, on the one set of parked helpers and
// pooled jobs, so that helpers are woken late or not at all, callers wait for
// tasks a helper claimed and jobs are recycled while a helper still holds
// them: under -race this is the test of the shared runner with the GEMM's
// jobs. Every result must equal the same call made alone.
func TestGemmConcurrentDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	type call struct {
		a, b, c0, want *dense.M32
		tA             Transpose
		hooked, batch  bool
	}
	rng := rand.New(rand.NewSource(15))
	calls := make([]call, 24)
	for i := range calls {
		m, n, k := 8+rng.Intn(150), 8+rng.Intn(70), 8+rng.Intn(300)
		cl := call{tA: Transpose(i % 2), hooked: i%3 == 1, batch: i%6 == 5}
		if cl.batch {
			cl.tA = NoTrans
		}
		ar, ac := m, k
		if cl.tA == Trans {
			ar, ac = ac, ar
		}
		cl.a, cl.b, cl.c0 = randMatT[float32](rng, ar, ac), randMatT[float32](rng, k, n), randMatT[float32](rng, m, n)
		cl.want = cl.c0.Clone()
		concurrentCall(cl.tA, cl.a, cl.b, cl.want, cl.hooked, cl.batch)
		calls[i] = cl
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 10; r++ {
				for i := range calls {
					cl := &calls[(i+g*7)%len(calls)]
					c := cl.c0.Clone()
					concurrentCall(cl.tA, cl.a, cl.b, c, cl.hooked, cl.batch)
					for j := range c.Data {
						if math.Float32bits(c.Data[j]) != math.Float32bits(cl.want.Data[j]) {
							t.Errorf("caller %d: call %d element %d = %g, alone %g", g, i, j, c.Data[j], cl.want.Data[j])
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// concurrentCall is one call of TestGemmConcurrentDeterminism: a Gemm, a
// hooked one or a GemmBatch of the output's two row halves.
func concurrentCall(tA Transpose, a, b, c *dense.M32, hooked, batch bool) {
	switch {
	case batch:
		h := c.Rows / 2
		as := []*dense.M32{a.View(0, 0, h, a.Cols), a.View(h, 0, a.Rows-h, a.Cols)}
		cs := []*dense.M32{c.View(0, 0, h, c.Cols), c.View(h, 0, c.Rows-h, c.Cols)}
		GemmBatch(NoTrans, NoTrans, -1.5, as, []*dense.M32{b, b}, 0.5, cs)
	case hooked:
		GemmHooked(tA, NoTrans, -1.5, a, b, 0.5, c, &f16Hook, &f16Hook, true)
	default:
		Gemm(tA, NoTrans, -1.5, a, b, 0.5, c)
	}
}

// f16Hook rounds packed panels through binary16 like the TensorCore engine's
// hook and, like it, declares so: a hooked float32 GEMM runs the
// exact-product family where the host has one.
var f16Hook = PackHook[float32]{Round: f16.RoundInPlace, RoundCount: f16.RoundInPlaceCount, Binary16: true}

// specialsMat32 is a normal matrix with an eighth of its entries replaced by
// values that overflow binary16 (past 65504) or flush to zero in it.
func specialsMat32(rng *rand.Rand, rows, cols int) *dense.M32 {
	m := randMatT[float32](rng, rows, cols)
	for i := range m.Data {
		switch rng.Intn(16) {
		case 0:
			m.Data[i] *= 1e6
		case 1:
			m.Data[i] *= 1e-9
		}
	}
	return m
}

// f16Counts is what f16Hook counts over every element of a and b once.
func f16Counts(ms ...*dense.M32) (ov, uf int64) {
	for _, m := range ms {
		for j := 0; j < m.Cols; j++ {
			o, u := f16.RoundInPlaceCount(append([]float32(nil), m.Col(j)...))
			ov += o
			uf += u
		}
	}
	return ov, uf
}

// TestGemmHookedCountsExactlyOnce: blocking re-packs each operand panel many
// times, but with count enabled every source element must contribute to the
// totals exactly once. The hook counts occurrences of a sentinel value; zero
// padding must never be counted.
func TestGemmHookedCountsExactlyOnce(t *testing.T) {
	const sentinel = 3
	hook := PackHook[float32]{
		Round: func(panel []float32) {},
		RoundCount: func(panel []float32) (ov, uf int64) {
			for _, v := range panel {
				if v == sentinel {
					ov++
				}
			}
			return ov, 0
		},
	}
	for _, tc := range []struct{ m, n, k int }{
		{50, 70, 45}, // blocked, many tiles and slabs
		{5, 6, 4},    // small path
		{7, 9, 0},    // degenerate: k = 0
	} {
		var aR, aC, bR, bC = tc.m, tc.k, tc.k, tc.n
		a := dense.New[float32](aR, aC)
		b := dense.New[float32](bR, bC)
		for i := range a.Data {
			a.Data[i] = sentinel
		}
		for i := range b.Data {
			b.Data[i] = sentinel
		}
		c := dense.New[float32](tc.m, tc.n)
		var ov int64
		withBlockConfig(t, 16, 8, 12, 1, func() {
			ov, _ = GemmHooked(NoTrans, NoTrans, 1, a, b, 1, c, &hook, &hook, true)
		})
		want := int64(aR*aC + bR*bC)
		if ov != want {
			t.Errorf("m=%d n=%d k=%d: counted %d elements, want %d", tc.m, tc.n, tc.k, ov, want)
		}
	}
}

// nf32 is a named float32 type: it satisfies dense.Float but is deliberately
// invisible to the kernel selection, so Gemm[nf32] runs the Go 4×4 kernel.
type nf32 float32

// TestSyrkLargeMatchesGemm exercises the blocked Syrk path (n well past the
// 64-column block size, so off-diagonal rectangles go through the packed
// GEMM kernel) for both triangles and orientations, with nontrivial α/β.
func TestSyrkLargeMatchesGemm(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, k = 150, 70
	for _, uplo := range []Uplo{Lower, Upper} {
		for _, tr := range []Transpose{NoTrans, Trans} {
			var a *dense.M64
			if tr == NoTrans {
				a = randMatT[float64](rng, n, k)
			} else {
				a = randMatT[float64](rng, k, n)
			}
			c := randMatT[float64](rng, n, n)
			before := c.Clone()
			want := c.Clone()
			if tr == NoTrans {
				Gemm(NoTrans, Trans, 0.7, a, a, 0.3, want)
			} else {
				Gemm(Trans, NoTrans, 0.7, a, a, 0.3, want)
			}
			Syrk(uplo, tr, 0.7, a, 0.3, c)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					stored := (uplo == Lower && i >= j) || (uplo == Upper && i <= j)
					if stored {
						if d := math.Abs(c.At(i, j) - want.At(i, j)); d > 1e-10*(1+math.Abs(want.At(i, j))) {
							t.Fatalf("uplo=%v t=%v (%d,%d): %v want %v", uplo, tr, i, j, c.At(i, j), want.At(i, j))
						}
					} else if c.At(i, j) != before.At(i, j) {
						t.Fatalf("uplo=%v t=%v wrote outside the %v triangle at (%d,%d)", uplo, tr, uplo, i, j)
					}
				}
			}
		}
	}
}

// TestTrsmRightLarge exercises the blocked right-side Trsm (n past the 64
// block size, so cross-block updates run through the packed GEMM kernel)
// for every uplo/trans/diag combination, verifying X·op(A) = α·B.
func TestTrsmRightLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const m, n = 40, 150
	const alpha = 0.8
	for _, uplo := range []Uplo{Lower, Upper} {
		for _, tA := range []Transpose{NoTrans, Trans} {
			for _, diag := range []Diag{NonUnit, Unit} {
				a := dense.New[float64](n, n)
				full := dense.New[float64](n, n)
				for j := 0; j < n; j++ {
					for i := 0; i < n; i++ {
						if (uplo == Upper && i < j) || (uplo == Lower && i > j) {
							v := 0.5 * rng.NormFloat64() / float64(n)
							a.Set(i, j, v)
							full.Set(i, j, v)
						}
					}
					if diag == NonUnit {
						a.Set(j, j, 2+rng.Float64())
						full.Set(j, j, a.At(j, j))
					} else {
						a.Set(j, j, rng.NormFloat64()) // must be ignored
						full.Set(j, j, 1)
					}
				}
				b := randMatT[float64](rng, m, n)
				b0 := b.Clone()
				Trsm(Right, uplo, tA, diag, alpha, a, b)
				got := dense.New[float64](m, n)
				Gemm(NoTrans, tA, 1, b, full, 0, got)
				for i := 0; i < m; i++ {
					for j := 0; j < n; j++ {
						want := alpha * b0.At(i, j)
						if d := math.Abs(got.At(i, j) - want); d > 1e-9*(1+math.Abs(want)) {
							t.Fatalf("uplo=%v tA=%v diag=%v (%d,%d): X·op(A)=%v want %v",
								uplo, tA, diag, i, j, got.At(i, j), want)
						}
					}
				}
			}
		}
	}
}
