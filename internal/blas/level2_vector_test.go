package blas

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"tcqr/internal/dense"
	"tcqr/internal/roundtest"
)

// The tests in this file hold the AVX2 level-2 kernels (level2_amd64.s) to
// their contract: the dispatching entry points return the bits the Go loops
// return, on every input. Nothing switches the kernels off, so the tests get
// the Go side by calling it: gemvNoTrans, gemvTrans, trsvUpperNoTrans and
// trsvUpperTrans are the loops the dispatchers fall back to, and refGer /
// refGemmCols below are Ger's and gemmCols's loops as they stood before
// colUpdate existed. Off amd64 both sides are the Go loops and the tests pass
// trivially.

// goGemv is Gemv with the Go loops called directly.
func goGemv[T dense.Float](tA Transpose, alpha T, a *dense.Matrix[T], x []T, beta T, y []T) {
	if beta == 0 {
		for i := range y {
			y[i] = 0
		}
	} else if beta != 1 {
		Scal(beta, y)
	}
	if alpha == 0 {
		return
	}
	if tA == NoTrans {
		gemvNoTrans(alpha, a, x, y)
		return
	}
	gemvTrans(alpha, a, x, y)
}

// serialGemv is Gemv on the caller alone: the vector kernels without the
// split.
func serialGemv[T dense.Float](tA Transpose, alpha T, a *dense.Matrix[T], x []T, beta T, y []T) {
	if beta == 0 {
		clear(y)
	} else if beta != 1 {
		Scal(beta, y)
	}
	if alpha == 0 {
		return
	}
	if tA == NoTrans {
		gemvN(alpha, a, x, y)
		return
	}
	gemvT(alpha, a, x, y)
}

// splitGemv is Gemv with the split forced: chunk rows (NoTrans) or columns
// (Trans) per chunk, up to helpers helpers, at any size and processor count.
// An empty A, which Gemv never splits, goes to serialGemv.
func splitGemv(tA Transpose, alpha float64, a *dense.M64, x []float64, beta float64, y []float64, chunk, helpers int) {
	if alpha == 0 || a.Rows == 0 || a.Cols == 0 {
		serialGemv(tA, alpha, a, x, beta, y)
		return
	}
	if beta == 0 {
		clear(y)
	} else if beta != 1 {
		Scal(beta, y)
	}
	gemvParallel(tA, alpha, a, x, y, chunk, helpers)
}

// refGer is Ger's loop before the column update moved into colUpdate.
func refGer[T dense.Float](alpha T, x, y []T, a *dense.Matrix[T]) {
	if alpha == 0 {
		return
	}
	for j := 0; j < a.Cols; j++ {
		yj := alpha * y[j]
		if yj == 0 {
			continue
		}
		col := a.Col(j)
		for i, v := range x {
			col[i] += v * yj
		}
	}
}

// refGemmCols is the NoTrans-A half of gemmCols (the half GemmBatch runs in
// the tile tree) before the column update moved into colUpdate.
func refGemmCols[T dense.Float](tB Transpose, alpha T, a, b *dense.Matrix[T], beta T, c *dense.Matrix[T]) {
	scaleCols(c, beta, 0, c.Cols)
	for l := 0; l < a.Cols; l++ {
		al := a.Col(l)
		for j := 0; j < c.Cols; j++ {
			var t T
			if tB == NoTrans {
				t = alpha * b.At(l, j)
			} else {
				t = alpha * b.At(j, l)
			}
			if t == 0 {
				continue
			}
			cj := c.Col(j)
			for i, v := range al {
				cj[i] += v * t
			}
		}
	}
}

// bitsOf returns the IEEE bit pattern of v, widened to 64 bits.
func bitsOf[T dense.Float](v T) uint64 {
	if f, ok := any(v).(float32); ok {
		return uint64(math.Float32bits(f))
	}
	return math.Float64bits(float64(v))
}

// sameBits fails the test at the first element whose bits differ.
func sameBits[T dense.Float](t *testing.T, what string, got, want []T) {
	t.Helper()
	for i := range want {
		if bitsOf(got[i]) != bitsOf(want[i]) {
			t.Fatalf("%s: element %d = %x (%g), Go loop %x (%g)", what, i, bitsOf(got[i]), got[i], bitsOf(want[i]), want[i])
		}
	}
}

// level2Gen turns fuzz bytes into matrices and vectors: one byte per element
// chooses its class (normal, subnormal, ±0, ±Inf, quiet NaN with a payload,
// a magnitude whose products and sums overflow, one whose products
// underflow), its sign and its exponent; the element count supplies the
// mantissa. The bytes are read round and round.
type level2Gen struct {
	classes []byte
	n       uint32
}

func genValue[T dense.Float](g *level2Gen) T {
	b := byte(0)
	if len(g.classes) > 0 {
		b = g.classes[int(g.n)%len(g.classes)]
	}
	g.n++
	h := g.n * 2654435761
	frac := 1 + float64(h>>9)/(1<<23) // in [1, 2), 23 bits: exact in both precisions
	sign := 1.0
	if b&0x80 != 0 {
		sign = -1
	}
	_, f32 := any(T(0)).(float32)
	maxExp, minExp := 1023, -1022
	if f32 {
		maxExp, minExp = 127, -126
	}
	switch b & 0x0f {
	case 8:
		return T(sign * math.Ldexp(frac, minExp-1-int(b>>4&7))) // subnormal
	case 9:
		return T(sign * 0)
	case 10:
		return T(math.Inf(int(sign)))
	case 11: // quiet NaN, payload from the element count, either sign
		if f32 {
			return T(math.Float32frombits(0x7fc00000 | uint32(b&0x80)<<24 | h>>10))
		}
		return T(math.Float64frombits(0x7ff8000000000000 | uint64(b&0x80)<<56 | uint64(h)<<8))
	case 12, 13:
		return T(sign * math.Ldexp(frac, maxExp-int(b>>4&3))) // products and sums overflow, equal ones cancel
	case 14, 15:
		return T(sign * math.Ldexp(frac, minExp+int(b>>4&3))) // products underflow
	}
	return T(sign * math.Ldexp(frac, int(b>>4&7)-4))
}

// poison fills the storage a view does not own: a NaN there shows up in the
// result if a kernel reads past a column, and a changed bit pattern shows up
// in the whole-backing comparison if it writes there.
func poison[T dense.Float]() T { return T(math.Float32frombits(0x7fc0dead)) }

// genMat builds an r×c view with leading dimension r+pad whose first element
// sits off elements into its backing array, which is returned as well.
func genMat[T dense.Float](g *level2Gen, r, c, pad, off int) (*dense.Matrix[T], []T) {
	stride := max(1, r+pad)
	backing := make([]T, off+stride*c+1)
	for i := range backing {
		backing[i] = poison[T]()
	}
	a := &dense.Matrix[T]{Rows: r, Cols: c, Stride: stride, Data: backing[off : off+stride*c]}
	for j := 0; j < c; j++ {
		col := a.Col(j)
		for i := range col {
			col[i] = genValue[T](g)
		}
	}
	return a, backing
}

func genVec[T dense.Float](g *level2Gen, n, off int) []T {
	backing := make([]T, off+n)
	for i := range backing {
		backing[i] = genValue[T](g)
	}
	return backing[off:]
}

// cloneMat copies a view together with its backing array.
func cloneMat[T dense.Float](a *dense.Matrix[T], backing []T, off int) (*dense.Matrix[T], []T) {
	b := append([]T(nil), backing...)
	return &dense.Matrix[T]{Rows: a.Rows, Cols: a.Cols, Stride: a.Stride, Data: b[off : off+len(a.Data)]}, b
}

// level2Case runs every dispatching level-2 entry point and its Go loop on
// one generated problem and compares bits: Gemv N and T (r×c), Ger (r×c) and
// the GemmBatch body C(r×c) += A(r×k)·op(B), NN and NT, with each tile
// family the host runs.
func level2Case[T dense.Float](t *testing.T, what string, g *level2Gen, r, c, k, pad, off int, alpha, beta T) {
	t.Helper()
	a, aBack := genMat[T](g, r, c, pad, off)
	for _, tA := range []Transpose{NoTrans, Trans} {
		yr, xr := r, c
		if tA == Trans {
			yr, xr = c, r
		}
		x := genVec[T](g, xr, off)
		got := genVec[T](g, yr, (off+1)%4)
		want := append([]T(nil), got...)
		Gemv(tA, alpha, a, x, beta, got)
		goGemv(tA, alpha, a, x, beta, want)
		sameBits(t, what+" gemv", got, want)
	}

	x, y := genVec[T](g, r, off), genVec[T](g, c, 1)
	want, wantBack := cloneMat(a, aBack, off)
	Ger(alpha, x, y, a)
	refGer(alpha, x, y, want)
	sameBits(t, what+" ger", aBack, wantBack)

	if r == 0 || c == 0 {
		return
	}
	left, _ := genMat[T](g, r, k, pad, off)
	for _, tB := range []Transpose{NoTrans, Trans} {
		br, bc := k, c
		if tB == Trans {
			br, bc = c, k
		}
		b, _ := genMat[T](g, br, bc, 1, 0)
		cm, cBack := genMat[T](g, r, c, pad, (off+3)%8)
		want, wantBack := cloneMat(cm, cBack, (off+3)%8)
		if alpha == 0 {
			scaleCols(want, beta, 0, c)
		} else {
			refGemmCols(tB, alpha, left, b, beta, want)
		}
		for _, kern := range hostTileKernels() {
			got, gotBack := cloneMat(cm, cBack, (off+3)%8)
			withTileKernel(kern, func() {
				GemmBatch(NoTrans, tB, alpha, []*dense.Matrix[T]{left}, []*dense.Matrix[T]{b}, beta, []*dense.Matrix[T]{got})
			})
			sameBits(t, what+" "+tileKernelNames[kern]+" gemm", gotBack, wantBack)
		}
	}
}

// level2Case64 runs the float64 paths that have no float32 twin on one
// generated problem and compares bits: Gemv split into chunks of chunk rows
// or columns shared with up to helpers helpers (forced at any size, so small
// shapes reach every chunk and every tail) against the Go loops, and the
// Upper NoTrans/Trans Trsv on an r×r triangle against its Go loops
// trsvUpperNoTrans / trsvUpperTrans, which arm64 runs in every refinement
// iteration. Where two NaNs meet, which one survives is a property of a
// loop's shape: the split keeps the serial Gemv's, and the vector Trsv runs
// every Go loop in its Go loops' shape.
func level2Case64(t *testing.T, what string, g *level2Gen, r, c, pad, off, chunk, helpers int, diag Diag, alpha, beta float64) {
	t.Helper()
	a, _ := genMat[float64](g, r, c, pad, off)
	for _, tA := range []Transpose{NoTrans, Trans} {
		yr, xr := r, c
		if tA == Trans {
			yr, xr = c, r
		}
		x := genVec[float64](g, xr, off)
		got := genVec[float64](g, yr, (off+1)%4)
		want := append([]float64(nil), got...)
		splitGemv(tA, alpha, a, x, beta, got, chunk, helpers)
		goGemv(tA, alpha, a, x, beta, want)
		sameBits(t, fmt.Sprintf("%s gemv %v split by %d", what, tA, chunk), got, want)
	}
	tri, _ := genMat[float64](g, r, r, pad, off)
	for _, tA := range []Transpose{NoTrans, Trans} {
		got := genVec[float64](g, r, off)
		want := append([]float64(nil), got...)
		Trsv(Upper, tA, diag, tri, got)
		if tA == NoTrans {
			trsvUpperNoTrans(diag, tri, want)
		} else {
			trsvUpperTrans(diag, tri, want)
		}
		sameBits(t, fmt.Sprintf("%s trsv %v diag %v", what, tA, diag), got, want)
	}
}

// goMGSFrom is gram.MGS's Go loop from step k — from its start if j == k,
// else from trail column j — the oracle MGSTile hands back to.
func goMGSFrom(a, r *dense.M32, k, j int) {
	m, n := a.Rows, a.Cols
	rows := make([]float32, n)
	for ; k < n; k, j = k+1, k+1 {
		qk := a.Col(k)
		if j == k {
			nrm := Nrm2(qk)
			r.Set(k, k, nrm)
			if nrm == 0 {
				continue
			}
			Scal(1/nrm, qk)
			j = k + 1
		}
		if k == n-1 {
			break
		}
		trail := window(a, 0, j, m, n-j)
		y := rows[:n-j]
		Gemv(Trans, 1, &trail, qk, 0, y)
		for i, v := range y {
			r.Set(k, j+i, v)
		}
		Ger(-1, qk, y, &trail)
	}
}

// mgsCase factors one generated r×c tile (c ≤ MGSTileMaxCols, r ≥ c) by
// MGSTile from a strided view into a contiguous tile, with each tile family
// the host runs, the Go loop taking over where it hands back, and by the Go
// loop alone, and compares Q and R bits.
func mgsCase(t *testing.T, g *level2Gen, r, c, pad, off int) {
	t.Helper()
	src, srcBack := genMat[float32](g, r, c, pad, off)
	want, _ := cloneMat(src, srcBack, off)
	wantR := dense.New[float32](c, c)
	goMGSFrom(want, wantR, 0, 0)
	before := append([]float32(nil), srcBack...)
	for _, kern := range hostTileKernels() {
		name := tileKernelNames[kern]
		got, gotR := dense.New[float32](r, c), dense.New[float32](c, c)
		var k, j int
		withTileKernel(kern, func() { k, j = MGSTile(src, got, gotR, make([]float32, MGSTileWork(r))) })
		goMGSFrom(got, gotR, k, j)
		for jj := 0; jj < c; jj++ {
			sameBits(t, fmt.Sprintf("%s mgs %dx%d Q column %d (kernel stopped at %d, %d)", name, r, c, jj, k, j), got.Col(jj), want.Col(jj))
		}
		sameBits(t, fmt.Sprintf("%s mgs %dx%d R", name, r, c), gotR.Data, wantR.Data)
		sameBits(t, name+" mgs source", srcBack, before)
	}
}

// TestAmaxScalToBitIdentical holds Amax and ScalTo in float32 — the scan and
// the scaled copy of rgs's column scaling — to their Go loops, twenty times
// over every length to 100 (each tail past the 32- and 8-element kernel
// loops) and the
// value classes of level2Gen: NaNs a maximum must skip, infinities, signed
// zeros, subnormals and products that overflow or underflow.
func TestAmaxScalToBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 2020; trial++ {
		n := trial % 101
		classes := make([]byte, 1+rng.Intn(40))
		rng.Read(classes)
		g := &level2Gen{classes: classes}
		x := genVec[float32](g, n, rng.Intn(4))
		var want float32
		for _, v := range x {
			if a := float32(math.Abs(float64(v))); a > want {
				want = a
			}
		}
		sameBits(t, fmt.Sprintf("amax of %d", n), []float32{Amax(x)}, []float32{want})
		alpha := float32(math.Ldexp(1, rng.Intn(60)-30))
		got, wantY := make([]float32, n), make([]float32, n)
		for i, v := range x {
			wantY[i] = v * alpha
		}
		ScalTo(alpha, x, got)
		sameBits(t, fmt.Sprintf("scalto of %d", n), got, wantY)
	}
}

// level2Scalars are the α and β the fuzz target and the tests draw from.
var level2Scalars = [4]float64{0, 1, -1, -2.5}

// FuzzLevel2VectorVsGeneric drives the vector kernels against the Go loops
// over fuzzer-chosen shapes, strides, offsets, α/β and per-element value
// classes, and compares bits. The committed seed corpus walks every row tail
// and every column tail 0…7 past the vector bodies. The float64 split Gemv
// runs beside the serial one at the same shape with a fuzzer-chosen chunk of
// 8 to 32 and one to three helpers, the vector Trsv on a triangle of the row
// count, and the MGS tile kernel, in each family the host runs, on the rows
// and up to 32 of the columns.
func FuzzLevel2VectorVsGeneric(f *testing.F) {
	f.Add(uint8(40), uint8(16), uint8(3), uint8(0), uint8(0), uint8(5), []byte{0, 0x81, 0x32})
	f.Add(uint8(7), uint8(9), uint8(1), uint8(2), uint8(1), uint8(0x0d), []byte{11, 10, 0x89, 0x8a, 0x8b, 0, 1, 12, 0x8c})
	f.Fuzz(func(t *testing.T, rows, cols, inner, pad, off, ab uint8, classes []byte) {
		r, c, k := int(rows)%80, int(cols)%40, 1+int(inner)%9
		alpha, beta := level2Scalars[ab&3], level2Scalars[ab>>2&3]
		g := &level2Gen{classes: classes}
		level2Case[float64](t, "f64", g, r, c, k, int(pad)%5, int(off)%8, alpha, beta)
		level2Case[float32](t, "f32", g, r, c, k, int(pad)%5, int(off)%8, float32(alpha), float32(beta))
		level2Case64(t, "f64", g, r, c, int(pad)%5, int(off)%8, 8*(1+int(inner)%4), 1+int(pad)%3, Diag(ab>>4&1), alpha, beta)
		if c := min(int(cols)%(MGSTileMaxCols+1), r); c > 0 {
			mgsCase(t, g, r, c, int(pad)%5, int(off)%8)
		}
	})
}

// TestLevel2VectorBitIdentical is the deterministic sweep of the same
// comparison: every row count 0…71 against column counts across the
// eight-column passes, with random classes, so each kernel's main loop, each
// of its row tails and each column tail runs under go test.
func TestLevel2VectorBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for r := 0; r < 72; r++ {
		for _, c := range []int{0, 1, 3, 4, 7, 8, 9, 12, 15, 16, 17, 23, 31, 32} {
			classes := make([]byte, 64+rng.Intn(64))
			rng.Read(classes)
			if r%3 != 0 {
				// Mostly finite: an all-classes draw turns every result NaN
				// within a few columns and stops exercising rounding.
				for i := range classes {
					if rng.Intn(24) != 0 {
						classes[i] &^= 0x08
					}
				}
			}
			ab := rng.Intn(16)
			g := &level2Gen{classes: classes}
			alpha, beta := level2Scalars[ab&3], level2Scalars[ab>>2&3]
			level2Case[float64](t, "f64", g, r, c, 1+rng.Intn(9), rng.Intn(4), rng.Intn(8), alpha, beta)
			level2Case[float32](t, "f32", g, r, c, 1+rng.Intn(9), rng.Intn(4), rng.Intn(8), float32(alpha), float32(beta))
			level2Case64(t, "f64", g, r, c, rng.Intn(4), rng.Intn(8), 8*(1+rng.Intn(4)), 1+rng.Intn(3), Diag(rng.Intn(2)), alpha, beta)
		}
	}
}

// TestLevel2NaNHandedBack pins the one thing rounding does not: which NaN
// survives when two meet. x86 returns the first operand of an add or a
// multiply whose operands are both NaN, and the operand order of a compiled
// Go loop changes with the build mode, so the kernels store no NaN at all and
// hand the block to the Go loop instead. Two to five distinct NaNs (and the
// Inf·0 that makes the default one) are dropped at random places of an
// otherwise finite problem, often enough that every pair of positions within
// a pass meets. A kernel that stored its own NaN would still pass here in a
// build whose Go loops happen to share its operand order; it fails under
// -race and under the fuzzer's instrumentation, which is where the first
// version of the kernels was caught.
func TestLevel2NaNHandedBack(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 4000; trial++ {
		r, c := 1+rng.Intn(45), 1+rng.Intn(19)
		classes := make([]byte, 97)
		for i := range classes {
			classes[i] = byte(rng.Intn(256)) & 0x87
		}
		// Three to five special bytes; the generator reads the slice round
		// and round, and 97 is prime, so they land on different elements of
		// A, x and y in every trial.
		for n := 3 + rng.Intn(3); n > 0; n-- {
			classes[rng.Intn(len(classes))] = byte(rng.Intn(256))&0x80 | []byte{11, 11, 11, 10, 9}[rng.Intn(5)]
		}
		alpha := 1.0
		if trial%8 == 7 {
			alpha = math.Float64frombits(0x7ff8000000a1fa00) // α·x[j] has an order too
		}
		g := &level2Gen{classes: classes}
		level2Case[float64](t, "f64", g, r, c, 1+rng.Intn(4), rng.Intn(2), rng.Intn(2), alpha, 1)
		level2Case[float32](t, "f32", g, r, c, 1+rng.Intn(4), rng.Intn(2), rng.Intn(2), float32(alpha), 1)
		level2Case64(t, "f64", g, r, c, rng.Intn(2), rng.Intn(2), 8*(1+rng.Intn(2)), 1+rng.Intn(3), Diag(rng.Intn(2)), alpha, 1)
	}
}

// TestGerBitIdentical is TestGemvBlockedBitIdentical for Ger: identical to
// the loop it replaced down to the last bit, across shapes that reach every
// loop of the column-update kernel, zero coefficients (whose columns are
// skipped, not given ±0), signed zeros and non-finite entries.
func TestGerBitIdentical(t *testing.T) {
	gerBitIdentical[float32](t)
	gerBitIdentical[float64](t)
}

func gerBitIdentical[T dense.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	shapes := []struct{ m, n int }{
		{1, 1}, {3, 2}, {7, 3}, {8, 4}, {9, 5}, {31, 6}, {32, 7}, {33, 8},
		{40, 9}, {47, 3}, {100, 31}, {256, 31}, {259, 5},
	}
	for _, s := range shapes {
		for trial := 0; trial < 4; trial++ {
			// A view with a gap between columns, as MGS passes its trail.
			parent := randMatT[T](rng, s.m+3, s.n+1)
			a := parent.View(1, 1, s.m, s.n)
			x, y := make([]T, s.m), make([]T, s.n)
			for i := range x {
				x[i] = T(rng.NormFloat64())
			}
			for i := range y {
				y[i] = T(rng.NormFloat64())
			}
			alpha := T(1)
			switch trial {
			case 1:
				for i := 0; i < len(y); i += 3 {
					y[i] = 0
				}
			case 2:
				for i := range y {
					if i%2 == 0 {
						y[i] = T(math.Copysign(0, -1))
					}
				}
				x[0] = T(math.Inf(1))
				a.Set(s.m-1, s.n-1, T(math.NaN()))
				a.Set(0, s.n-1, T(math.Inf(-1)))
			case 3:
				alpha = -2.5
			}
			want := parent.Clone()
			Ger(alpha, x, y, a)
			refGer(alpha, x, y, want.View(1, 1, s.m, s.n))
			sameBits(t, "ger", parent.Data, want.Data)
		}
	}
}

// TestGemmBatchBitIdentical is the same pin for the GEMM under GemmBatch, at
// the tile tree's shapes (tall Q times a small square factor: 256 and 488
// rows, widths 32 and 24) and around them, NN and NT, with each tile family
// the host runs. The NN body runs the register-blocked kernels of the
// family: full and partial row blocks and column groups,
// zero coefficients (trial 1, and the upper triangular factor of trial 4,
// the tile tree's), signed zeros with an Inf in A and a NaN in C (trial 2),
// and β = 1 or any other β, where a zero coefficient sends its eight columns
// to gemmCols (trials 3 and 5).
func TestGemmBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	shapes := []struct{ m, n, k int }{
		{1, 1, 1}, {7, 3, 2}, {8, 4, 4}, {33, 5, 9}, {64, 8, 8}, {100, 31, 31}, {256, 32, 32}, {271, 32, 32},
		{488, 24, 24}, {40, 17, 20}, {16, 8, 70},
	}
	for _, tB := range []Transpose{NoTrans, Trans} {
		for _, s := range shapes {
			for trial := 0; trial < 6; trial++ {
				const batch = 3
				as, bs, cs, wants := make([]*dense.M32, batch), make([]*dense.M32, batch), make([]*dense.M32, batch), make([]*dense.M32, batch)
				for p := range as {
					as[p] = randMatT[float32](rng, s.m, s.k)
					bs[p] = randMatT[float32](rng, s.k, s.n)
					if tB == Trans {
						bs[p] = randMatT[float32](rng, s.n, s.k)
					}
					cs[p] = randMatT[float32](rng, s.m, s.n)
					switch trial {
					case 1:
						for i := 0; i < len(bs[p].Data); i += 3 {
							bs[p].Data[i] = 0
						}
					case 2:
						for i := 0; i < len(bs[p].Data); i += 2 {
							bs[p].Data[i] = float32(math.Copysign(0, -1))
						}
						as[p].Data[0] = float32(math.Inf(1))
						cs[p].Data[len(cs[p].Data)-1] = float32(math.NaN())
					case 4:
						for i := range bs[p].Data {
							if tB == NoTrans && i%s.k > i/s.k || tB == Trans && i%s.n < i/s.n {
								bs[p].Data[i] = 0 // upper triangular op(B)
							}
						}
					case 5:
						// β = 1 over −0 in C and every third column of op(B)
						// zero: a −0 survives only if no product is added.
						for i := range bs[p].Data {
							if tB == NoTrans && i/s.k%3 == 0 || tB == Trans && i%s.n%3 == 0 {
								bs[p].Data[i] = 0
							}
						}
						for i := 0; i < len(cs[p].Data); i += 5 {
							cs[p].Data[i] = float32(math.Copysign(0, -1))
						}
					}
					wants[p] = cs[p].Clone()
				}
				alpha, beta := float32(1), float32(0)
				switch trial {
				case 3:
					alpha, beta = -2.5, 0.5
				case 5:
					beta = 1
				}
				for p := range as {
					refGemmCols(tB, alpha, as[p], bs[p], beta, wants[p])
				}
				for _, kern := range hostTileKernels() {
					got := make([]*dense.M32, batch)
					for p := range cs {
						got[p] = cs[p].Clone()
					}
					withTileKernel(kern, func() { GemmBatch(NoTrans, tB, alpha, as, bs, beta, got) })
					for p := range as {
						sameBits(t, tileKernelNames[kern]+" gemm batch", got[p].Data, wants[p].Data)
					}
				}
			}
		}
	}
}

// TestLevel2NoAllocs holds the dispatch to zero allocations: the type switch
// must not box a slice and the hand-back windows must stay on the stack, on
// a whole matrix and on a view alike. The split Gemv (split-size matrices and
// views) and the vector Trsv, on a float64 and on a float32 triangle, are
// held to it at two processors or more: testing.AllocsPerRun runs at one,
// where nothing splits, so they are counted by allocsPerCall, helpers
// included.
func TestLevel2NoAllocs(t *testing.T) {
	level2NoAllocs[float32](t)
	level2NoAllocs[float64](t)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	rng := rand.New(rand.NewSource(46))
	parent := randMat(rng, 4102, 133)
	for name, a := range map[string]*dense.M64{"matrix": randMat(rng, 4096, 128), "view": parent.View(3, 2, 4097, 129)} {
		if _, helpers := gemvSplit(NoTrans, a.Rows, a.Cols); helpers == 0 {
			t.Fatalf("a %dx%d %s does not split", a.Rows, a.Cols, name)
		}
		xr, xc := make([]float64, a.Rows), make([]float64, a.Cols)
		for i := range xr {
			xr[i] = 1
		}
		for i := range xc {
			xc[i] = float64(i % 5)
		}
		yr, yc := make([]float64, a.Rows), make([]float64, a.Cols)
		for op, fn := range map[string]func(){
			"gemv N": func() { Gemv(NoTrans, 1, a, xc, 1, yr) },
			"gemv T": func() { Gemv(Trans, 1, a, xr, 0, yc) },
		} {
			if n := allocsPerCall(100, fn); n != 0 {
				t.Errorf("split %s on a %s: %v allocs per call, want 0", op, name, n)
			}
		}
	}
	tri := randMat(rng, 515, 515).View(1, 2, 513, 513)
	for i := 0; i < tri.Rows; i++ {
		tri.Set(i, i, 2)
	}
	tri32 := dense.ToF32(tri)
	x := make([]float64, tri.Rows)
	for _, tA := range []Transpose{NoTrans, Trans} {
		if n := allocsPerCall(100, func() { Trsv(Upper, tA, NonUnit, tri, x) }); n != 0 {
			t.Errorf("trsv %v: %v allocs per call, want 0", tA, n)
		}
		if n := allocsPerCall(100, func() { Trsv(Upper, tA, NonUnit, tri32, x) }); n != 0 {
			t.Errorf("trsv %v on a float32 triangle: %v allocs per call, want 0", tA, n)
		}
	}
}

// allocsPerCall is testing.AllocsPerRun at the current GOMAXPROCS: the mean
// number of heap allocations, anywhere in the process, per call of f after a
// warm-up that starts the helpers and fills the job free lists, and
// roundtest.ParkCaches.
func allocsPerCall(runs int, f func()) uint64 {
	for i := 0; i < 10; i++ {
		f()
	}
	roundtest.ParkCaches()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs)
}

func level2NoAllocs[T dense.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	parent := randMatT[T](rng, 70, 21) // odd sizes: every hand-back runs
	for name, a := range map[string]*dense.Matrix[T]{"matrix": parent, "view": parent.View(3, 2, 61, 19)} {
		xr, xc := make([]T, a.Rows), make([]T, a.Cols)
		for i := range xr {
			xr[i] = 1
		}
		for i := range xc {
			xc[i] = T(i % 5) // zero coefficients: the skip path too
		}
		yr, yc := make([]T, a.Rows), make([]T, a.Cols)
		for op, fn := range map[string]func(){
			"gemv N": func() { Gemv(NoTrans, 1, a, xc, 1, yr) },
			"gemv T": func() { Gemv(Trans, 1, a, xr, 0, yc) },
			"ger":    func() { Ger(-1, xr, xc, a) },
		} {
			if n := testing.AllocsPerRun(10, fn); n != 0 {
				t.Errorf("%T %s on a %s: %v allocs per call, want 0", T(0), op, name, n)
			}
		}
	}
}

// TestGemvSplitConcurrentBitIdentical has four callers split small products
// at once, over and over, so that jobs are recycled while helpers still hold
// them, helpers are woken late or not at all and callers wait for chunks a
// helper claimed: under -race this is the test of gemvJob's lifetime.
func TestGemvSplitConcurrentBitIdentical(t *testing.T) {
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(48 + c)))
			for i := 0; i < 200; i++ {
				r, k := 1+rng.Intn(70), 1+rng.Intn(40)
				a := randMat(rng, r, k)
				tA, xn, yn := NoTrans, k, r
				if i%2 == 1 {
					tA, xn, yn = Trans, r, k
				}
				x, got := make([]float64, xn), make([]float64, yn)
				for j := range x {
					x[j] = rng.NormFloat64()
				}
				want := make([]float64, yn)
				splitGemv(tA, 1, a, x, 0, got, 8*(1+rng.Intn(2)), 1+rng.Intn(3))
				goGemv(tA, 1, a, x, 0, want)
				for j := range want {
					if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
						t.Errorf("caller %d call %d: %v %dx%d y[%d] = %g, serial %g", c, i, tA, r, k, j, got[j], want[j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestGemvSplitNeedsTwoProcs: on one processor a split-size Gemv is the
// serial code. gemvSplit says so before anything shared is touched (the job
// free list, the counters and the helpers are all behind it), and the calls
// start no helper and no goroutine.
func TestGemvSplitNeedsTwoProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, s := range []struct{ m, n int }{{1024, 256}, {2048, 512}, {4096, 128}, {1 << 16, 8}} {
		for _, tA := range []Transpose{NoTrans, Trans} {
			if chunk, helpers := gemvSplit(tA, s.m, s.n); chunk != 0 || helpers != 0 {
				t.Errorf("%v %dx%d on one processor: chunk %d, %d helpers", tA, s.m, s.n, chunk, helpers)
			}
		}
	}
	a := randMat(rand.New(rand.NewSource(47)), 4096, 128)
	x, y := make([]float64, 4096), make([]float64, 128)
	helpers, goroutines := helpersStarted.Load(), runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		Gemv(Trans, 1, a, x, 0, y)
		Gemv(NoTrans, 1, a, y, 0, x)
	}
	if h, g := helpersStarted.Load(), runtime.NumGoroutine(); h != helpers || g != goroutines {
		t.Errorf("one processor: helpers %d -> %d, goroutines %d -> %d", helpers, h, goroutines, g)
	}
}
