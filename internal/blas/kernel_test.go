package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tcqr/internal/bf16"
	"tcqr/internal/cpufeat"
	"tcqr/internal/dense"
	"tcqr/internal/f16"
)

// The tests in this file hold every float32 micro-kernel family the host runs
// to the Go 4×4 kernel, bit for bit: the contract that lets the packed GEMM
// pick a family by CPUID alone. Off amd64, or on a host without AVX, the Go
// kernel is the only family and the comparisons hold trivially; the log line
// says which families ran.

// hostF32Kernels lists the float32 families this CPU can run, the Go kernel
// first.
func hostF32Kernels() []kernel {
	ks := []kernel{kernelGo}
	if cpufeat.AVX {
		ks = append(ks, kernelYMM)
	}
	if cpufeat.AVX512F {
		ks = append(ks, kernelZMM)
	}
	return ks
}

// hostExactKernels is hostF32Kernels with the exact-product family, which
// runs only on operands rounded to binary16.
func hostExactKernels() []kernel {
	ks := hostF32Kernels()
	if cpufeat.AVX512F {
		ks = append(ks, kernelZMMFMA)
	}
	return ks
}

var kernelNames = map[kernel]string{kernelGo: "go-4x4", kernelYMM: "ymm-16x4", kernelZMM: "zmm-32x4", kernelZMMFMA: "zmm-32x4-fma"}

// gemmWith is GemmHooked on the packed path with the kernel family forced
// (α must not be 0: Gemm answers that without a kernel).
func gemmWith(kern kernel, tA, tB Transpose, alpha float32, a, b *dense.M32, beta float32, c *dense.M32, hookA, hookB *PackHook[float32]) {
	m, n, k := checkGemm(tA, tB, a, b, c)
	gemmBlocked(kern, tA, tB, alpha, a, b, beta, c, m, n, k, hookA, hookB, false)
}

// classMat is a normal matrix with an eighth of its entries drawn from
// specials.
func classMat(rng *rand.Rand, rows, cols int, specials []float32) *dense.M32 {
	m := randMatT[float32](rng, rows, cols)
	for i := range m.Data {
		if rng.Intn(8) == 0 {
			m.Data[i] = specials[rng.Intn(len(specials))]
		}
	}
	return m
}

// TestScalarKernelMatchesAVX holds every float32 family the host supports —
// YMM 16×4, ZMM 32×4 and, on binary16 operands, ZMM 32×4 with fused
// multiply-adds — to the Go 4×4 kernel by
// Float32bits, through the whole packed path: every transpose pair, α and β
// reaching all five write-back cases of writeTile (three k-slabs, so later
// slabs add), shapes with full tiles of every height and edge tiles in both
// dimensions. Operands are rounded through binary16 at pack time, as the
// TensorCore engine rounds them, from every value class: binary16 subnormals,
// ±65504, ±0, values that round, ±Inf and values that overflow to it, a NaN
// planted in A (a row of tiles), and a NaN planted in C (one tile, the
// kernel's store refused and the tile recomputed). An Inf and a planted NaN
// never share a case: where two different NaNs meet, which one survives is
// operand order, and the Go kernel's changes with the build mode. The float32
// case runs unrounded operands, and so not the exact-product family.
func TestScalarKernelMatchesAVX(t *testing.T) {
	ks := hostExactKernels()
	names := make([]string, len(ks))
	for i, k := range ks {
		names[i] = kernelNames[k]
	}
	t.Logf("float32 families on this host: %v", names)

	rng := rand.New(rand.NewSource(10))
	finite := []float32{0x1p-24, -0x1.8p-20, 0x1.ff8p-15, 65504, -65504, 0, float32(math.Copysign(0, -1)), 1 + 0x1p-11, 1e-8}
	inf := append(finite[:len(finite):len(finite)], float32(math.Inf(1)), float32(math.Inf(-1)), 7e4, -1e6)
	nan := math.Float32frombits(0x7fc12340)
	shapes := []struct{ m, n, k int }{
		{101, 23, 37}, // full 32-, 16- and 4-row tiles, a 5-row and a 3-column edge
		{64, 16, 48},  // full tiles only
		{130, 9, 70},  // a 2-row edge, one full column tile and a 1-column edge
	}
	withBlockConfig(t, 64, 16, 12, 1, func() {
		for _, sh := range shapes {
			for _, tA := range []Transpose{NoTrans, Trans} {
				for _, tB := range []Transpose{NoTrans, Trans} {
					ar, ac, br, bc := sh.m, sh.k, sh.k, sh.n
					if tA == Trans {
						ar, ac = ac, ar
					}
					if tB == Trans {
						br, bc = bc, br
					}
					for _, alpha := range []float32{1, -1.5} {
						for _, beta := range []float32{0, 1, 0.5} {
							for _, class := range []string{"float32", "finite", "inf", "nan-in-a", "nan-in-c"} {
								specials := finite
								if class == "inf" {
									specials = inf
								}
								a := classMat(rng, ar, ac, specials)
								b := classMat(rng, br, bc, specials)
								c := classMat(rng, sh.m, sh.n, finite)
								switch class {
								case "float32":
									a, b = randMatT[float32](rng, ar, ac), randMatT[float32](rng, br, bc)
								case "nan-in-a":
									a.Data[rng.Intn(len(a.Data))] = nan
								case "nan-in-c":
									c.Data[rng.Intn(len(c.Data))] = nan
								}
								what := fmt.Sprintf("%dx%dx%d %v%v α=%v β=%v %s", sh.m, sh.n, sh.k, tA, tB, alpha, beta, class)
								familyCase(t, what, tA, tB, alpha, a, b, beta, c, class != "float32")
							}
						}
					}
				}
			}
		}
	})

	// The dispatch itself: Gemm on float32 runs f32Kernel, Gemm on nf32 the Go
	// kernel.
	a, b, c := randMatT[float32](rng, 61, 57), randMatT[float32](rng, 57, 43), randMatT[float32](rng, 61, 43)
	an, bn, cn := dense.New[nf32](61, 57), dense.New[nf32](57, 43), dense.New[nf32](61, 43)
	for _, p := range []struct {
		src []float32
		dst []nf32
	}{{a.Data, an.Data}, {b.Data, bn.Data}, {c.Data, cn.Data}} {
		for i, v := range p.src {
			p.dst[i] = nf32(v)
		}
	}
	withBlockConfig(t, 32, 16, 24, 1, func() {
		Gemm(NoTrans, NoTrans, 1.5, a, b, 0.5, c)
		Gemm(NoTrans, NoTrans, 1.5, an, bn, 0.5, cn)
	})
	for i := range c.Data {
		if math.Float32bits(c.Data[i]) != math.Float32bits(float32(cn.Data[i])) {
			t.Fatalf("Gemm[float32] and Gemm[nf32] disagree at %d: %v vs %v", i, c.Data[i], cn.Data[i])
		}
	}
}

// familyCase runs one GEMM through every float32 family of the host and holds
// it to the Go kernel's bits. Hooked, the operands are rounded through
// binary16 and the exact-product family runs too.
func familyCase(t *testing.T, what string, tA, tB Transpose, alpha float32, a, b *dense.M32, beta float32, c *dense.M32, hooked bool) {
	t.Helper()
	var hook *PackHook[float32]
	ks := hostF32Kernels()
	if hooked {
		hook = &f16Hook
		ks = hostExactKernels()
	}
	want := c.Clone()
	gemmWith(kernelGo, tA, tB, alpha, a, b, beta, want, hook, hook)
	for _, kern := range ks[1:] {
		got := c.Clone()
		gemmWith(kern, tA, tB, alpha, a, b, beta, got, hook, hook)
		sameBits(t, what+" "+kernelNames[kern], got.Data, want.Data)
	}
}

// TestKernelStoresFullTiles calls each assembly family on one full tile: with
// finite results it stores them itself and says so, with a NaN among them it
// stores nothing and says that. Without the first half the family test above
// would pass on kernels that always refused.
func TestKernelStoresFullTiles(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const kb, ldc = 9, 40
	for _, kern := range hostExactKernels()[1:] {
		mr := kern.mr()
		ap, bp := make([]float32, mr*kb), make([]float32, kernelNR*kb)
		for i := range ap {
			ap[i] = float32(rng.NormFloat64())
		}
		for i := range bp {
			bp[i] = float32(rng.NormFloat64())
		}
		f16.RoundInPlace(ap)
		f16.RoundInPlace(bp)
		for _, wb := range []struct {
			mode  int
			beta  float32
			first bool
		}{{tileAdd, 0.5, false}, {tileScale, 0, true}, {tileAxpby, 0.5, true}} {
			mode := wb.mode
			what := fmt.Sprintf("%s mode %d", kernelNames[kern], mode)
			c := make([]float32, ldc*kernelNR)
			for i := range c {
				c[i] = float32(rng.NormFloat64())
			}
			var acc [maxMR * kernelNR]float32
			tileF32(kern, kb, &ap[0], &bp[0], &acc[0], mr, 0, 0, tileAcc)
			want := append([]float32(nil), c...)
			writeTile(acc[:], mr, -1.5, wb.beta, want, ldc, mr, kernelNR, wb.first)
			got := append([]float32(nil), c...)
			if !tileF32(kern, kb, &ap[0], &bp[0], &got[0], ldc, -1.5, wb.beta, mode) {
				t.Fatalf("%s: finite tile refused", what)
			}
			sameBits(t, what, got, want)

			i := rng.Intn(len(ap))
			v := ap[i]
			ap[i] = float32(math.NaN())
			got = append(got[:0], c...)
			if tileF32(kern, kb, &ap[0], &bp[0], &got[0], ldc, -1.5, wb.beta, mode) {
				t.Fatalf("%s: a tile with a NaN result was stored", what)
			}
			sameBits(t, what+", refused tile", got, c)
			ap[i] = v
		}
	}
}

// TestTcEcBitsAcrossKernels runs tc-ec's three passes as internal/tcsim's TCEC
// engine issues them — hi·hi carrying β, then hi·lo' and lo'·hi scaled by
// 2⁻¹¹ — and holds each family to the Go kernel's bits, in one k-slab and in
// several.
func TestTcEcBitsAcrossKernels(t *testing.T) {
	lo := PackHook[float32]{Round: f16.ResidualInPlace}
	rng := rand.New(rand.NewSource(13))
	a, b, c0 := randMatT[float32](rng, 200, 150), randMatT[float32](rng, 150, 90), randMatT[float32](rng, 200, 90)
	const alpha, beta = 1.5, 0.5
	run := func(kern kernel) []float32 {
		c := c0.Clone()
		gemmWith(kern, NoTrans, NoTrans, alpha, a, b, beta, c, &f16Hook, &f16Hook)
		gemmWith(kern, NoTrans, NoTrans, alpha*0x1p-11, a, b, 1, c, &f16Hook, &lo)
		gemmWith(kern, NoTrans, NoTrans, alpha*0x1p-11, a, b, 1, c, &lo, &f16Hook)
		return c.Data
	}
	for _, kc := range []int{gemmKC, 32} {
		withBlockConfig(t, gemmMC, kc, gemmNC, gemmBlockedMinFlops, func() {
			want := run(kernelGo)
			for _, kern := range hostExactKernels()[1:] {
				sameBits(t, fmt.Sprintf("tc-ec kc=%d %s", kc, kernelNames[kern]), run(kern), want)
			}
		})
	}
}

// TestExactProductKernelRouting: the packed GEMM takes the exact-product
// family only when both pack hooks declare binary16 results, and only where
// the host has the ZMM family it twins; an unhooked operand, a hook that
// does not declare it (bfloat16's) and every float64 GEMM keep the mul+add
// families.
func TestExactProductKernelRouting(t *testing.T) {
	bf := PackHook[float32]{Round: bf16.RoundInPlace}
	fma := f32Kernel
	if f32Kernel == kernelZMM {
		fma = kernelZMMFMA
	}
	for _, c := range []struct {
		what         string
		hookA, hookB *PackHook[float32]
		want         kernel
	}{
		{"binary16·binary16", &f16Hook, &f16Hook, fma},
		{"binary16·unhooked", &f16Hook, nil, f32Kernel},
		{"unhooked·binary16", nil, &f16Hook, f32Kernel},
		{"unhooked", nil, nil, f32Kernel},
		{"bfloat16·bfloat16", &bf, &bf, f32Kernel},
		{"binary16·bfloat16", &f16Hook, &bf, f32Kernel},
	} {
		if got := hookedKernel(c.hookA, c.hookB); got != c.want {
			t.Errorf("%s: family %s, want %s", c.what, kernelNames[got], kernelNames[c.want])
		}
	}
	h64 := PackHook[float64]{Round: func([]float64) {}, Binary16: true}
	if got := hookedKernel(&h64, &h64); got != gemmKernel[float64]() {
		t.Errorf("float64 with binary16 hooks: family %d, want gemmKernel's %d", got, gemmKernel[float64]())
	}
	t.Logf("binary16 GEMMs run %s", kernelNames[fma])
}

// TestExactProductTilesMatchMulAdd runs random 32×4 tiles of binary16
// operands — normals across the whole exponent range, subnormals, ±65504,
// ±0, ±Inf — through the exact-product tile and the mul+add tile, raw
// accumulators and every write-back, and requires equal bits.
func TestExactProductTilesMatchMulAdd(t *testing.T) {
	if !cpufeat.AVX512F {
		t.Skip("no AVX-512F: the exact-product family does not run here")
	}
	rng := rand.New(rand.NewSource(55))
	specials := []float32{0x1p-24, -0x1p-24, 0x1.ff8p-15, 65504, -65504, 0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1))}
	val := func() float32 {
		if rng.Intn(16) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return f16.Round(float32(math.Ldexp(rng.NormFloat64(), rng.Intn(42)-26)))
	}
	const kb, ldc = 24, 37
	ap, bp := make([]float32, 32*kb), make([]float32, kernelNR*kb)
	c := make([]float32, ldc*kernelNR)
	var want, got [maxMR * kernelNR]float32
	for trial := 0; trial < 2000; trial++ {
		for i := range ap {
			ap[i] = val()
		}
		for i := range bp {
			bp[i] = val()
		}
		tile32x4F32(kb, &ap[0], &bp[0], &want[0], 32, 0, 0, tileAcc)
		tile32x4F32FMA(kb, &ap[0], &bp[0], &got[0], 32, 0, 0, tileAcc)
		sameBits(t, fmt.Sprintf("trial %d accumulators", trial), got[:], want[:])
		for i := range c {
			c[i] = f16.Round(float32(rng.NormFloat64()))
		}
		mode := tileAcc + 1 + rng.Intn(3)
		cw, cg := append([]float32(nil), c...), append([]float32(nil), c...)
		okW := tile32x4F32(kb, &ap[0], &bp[0], &cw[0], ldc, -1.5, 0.5, mode)
		okG := tile32x4F32FMA(kb, &ap[0], &bp[0], &cg[0], ldc, -1.5, 0.5, mode)
		if okW != okG {
			t.Fatalf("trial %d mode %d: mul+add stored %v, exact-product %v", trial, mode, okW, okG)
		}
		sameBits(t, fmt.Sprintf("trial %d mode %d", trial, mode), cg, cw)
	}
}

// TestBF16ProductsNotExact pins why bfloat16 operands keep the mul+add
// family: their products can fall below binary32's range. Two k terms into
// one accumulator, 2⁻⁷⁵·2⁻⁷⁴ = 2⁻¹⁴⁹ (the least subnormal, exact) and then
// 2⁻⁷⁵·2⁻⁷⁵ = 2⁻¹⁵⁰: rounded on its own that product is a tie, to even, so
// +0, and the sum stays 2⁻¹⁴⁹, where the fused 2⁻¹⁴⁹ + 2⁻¹⁵⁰ is a tie between
// 2⁻¹⁴⁹ and 2⁻¹⁴⁸ that rounds to 2⁻¹⁴⁸. All three operands are bfloat16
// values.
func TestBF16ProductsNotExact(t *testing.T) {
	a0, a1, b0, b1 := float32(0x1p-75), float32(0x1p-75), float32(0x1p-74), float32(0x1p-75)
	for _, v := range []float32{a0, a1, b0, b1} {
		if bf16.Round(v) != v {
			t.Fatalf("%g is not a bfloat16 value", v)
		}
	}
	if f16.Round(a0) != 0 {
		t.Fatalf("%g is a binary16 value", a0)
	}
	var acc float32
	acc += float32(a0 * b0)
	acc += float32(a1 * b1)
	if acc != 0x1p-149 {
		t.Fatalf("the Go kernel's sum is %g, want 2⁻¹⁴⁹", acc)
	}
	if fused := float32(math.FMA(float64(a1), float64(b1), float64(float32(a0*b0)))); fused != 0x1p-148 {
		t.Fatalf("the fused sum is %g, want 2⁻¹⁴⁸", fused)
	}
	if !cpufeat.AVX512F {
		return
	}
	ap, bp := make([]float32, 32*2), make([]float32, kernelNR*2)
	ap[0], ap[32], bp[0], bp[kernelNR] = a0, a1, b0, b1
	var mulAdd, fused [32 * kernelNR]float32
	tile32x4F32(2, &ap[0], &bp[0], &mulAdd[0], 32, 0, 0, tileAcc)
	tile32x4F32FMA(2, &ap[0], &bp[0], &fused[0], 32, 0, 0, tileAcc)
	if mulAdd[0] != acc || fused[0] != 0x1p-148 {
		t.Errorf("tiles: mul+add %g, exact-product %g; want %g and 2⁻¹⁴⁸", mulAdd[0], fused[0], acc)
	}
}
