//go:build amd64

package blas

import "tcqr/internal/cpufeat"

// AVX2 kernels for the level-2 loops the solvers spend their time in: the
// two float64 matrix-vector products of a refinement iteration (CGLS, LSQR)
// and its two triangular solves (Upper NoTrans and Upper Trans Trsv on a
// float64 x, whose head updates and head dot products are gemvN8F64, walking
// eight columns backwards by a negative stride, and gemvT8F64; for the
// float32 R a refinement applies, gemvN8Wide and gemvT8Wide, which widen
// each element as they load it), and the float32
// transposed product and column update of Gemv and Ger, which the Go loop of
// gram.MGS calls (the MGS tile of the CAQR panel has a fused kernel of its
// own, tile_amd64.go, held to the same rules and to that loop's bits). The
// contract is Float64bits/Float32bits equality with the Go loops of
// level2.go on every input, and it rests on three rules.
//
// Rounding: multiply and add stay separate instructions, never FMA, so each
// product is rounded where the Go loop rounds it. The package's one fused
// kernel is the GEMM's exact-product tile (kernel_amd64.go), which runs only
// on binary16 operands: a product of two binary16 values has at most 22
// significant bits and lies in [2⁻⁴⁸, 2³²], so it is exact in binary32, and
// fusing it into its sum rounds nothing the Go loop does not. The level-2
// operands are unrounded, so these kernels never fuse. (The Go loops
// themselves — every Go loop of this package — write T(x*y) + z, not x*y + z: the
// conversion keeps a compiler that fuses multiply-adds, as the arm64 one
// does, from changing what the oracle means. make lint fails on a fused
// instruction in the package's arm64 listing.)
//
// Order: every output element sees the operations of the Go loop in the Go
// loop's order. IEEE addition and multiplication are commutative bit for
// bit on everything but a pair of NaNs, so which operand is named first does
// not matter — until two NaNs meet.
//
// NaN: when both operands are NaN, x86 returns the first, and which operand
// the compiled Go loop names first is the register allocator's choice: it
// differs between a plain build, a -race build and a fuzz-instrumented one.
// So no kernel ever stores a NaN. NaN is absorbing under add and multiply — a
// result that is not NaN saw no NaN on its way — so a kernel checks what it
// is about to store, and on a NaN stores nothing and reports how far it got;
// the Go loop recomputes that block, and the payload is the Go loop's in
// every build because the Go loop produced it.
//
// The kernels take a pointer and the leading dimension, so they run on views
// as they stand (unaligned loads throughout), and allocate nothing. Whether a
// float64 Gemv is split between the caller and helpers (parallel.go) is
// decided above them: each chunk calls them on its window as the serial
// product would.

// useVectorLevel2 selects the kernels of level2_amd64.s, decided once at
// init. Nothing overrides it: the tests reach the Go loops by calling them.
var useVectorLevel2 = cpufeat.AVX2

// gemvN8F64 folds eight columns of a into y four rows at a time, over the
// whole multiples of four in rows: each y[i] sees the additions of the Go
// loop's eight successive column sweeps with the coefficients coef, none of
// which may be zero. The columns are a, a+stride, …, a+7·stride, and
// stride may be negative. It stops before the first four rows whose result
// holds a NaN and returns the number of rows it stored.
//
//go:noescape
func gemvN8F64(rows int, a *float64, stride int, coef *[8]float64, y *float64) (done int)

// gemvT8F64 adds α times the sequential dot product of x with each of eight
// columns of a to y[0..7], for any rows ≥ 0. If one of the eight results is
// NaN it stores none of them and returns false.
//
//go:noescape
func gemvT8F64(rows int, a *float64, stride int, x *float64, alpha float64, y *float64) (ok bool)

// gemvN8Wide is gemvN8F64 on a float32 a, each element widened to float64,
// exactly, as it is loaded: the bits of gemvN8F64 on the float64 copy of a,
// from half the bytes.
//
//go:noescape
func gemvN8Wide(rows int, a *float32, stride int, coef *[8]float64, y *float64) (done int)

// gemvT8Wide is gemvT8F64 on a float32 a, widened as gemvN8Wide widens it.
//
//go:noescape
func gemvT8Wide(rows int, a *float32, stride int, x *float64, alpha float64, y *float64) (ok bool)

// gemvT8F32 is gemvT8F64 in float32.
//
//go:noescape
func gemvT8F32(rows int, a *float32, stride int, x *float32, alpha float32, y *float32) (ok bool)

// colUpdateF32 computes y[i] ← x[i]·t + y[i] eight elements at a time, over
// the whole multiples of eight in n. It stops before the first eight (or, in
// its unrolled loop, thirty-two) whose result holds a NaN and returns the
// number of elements it stored.
//
//go:noescape
func colUpdateF32(n int, x *float32, t float32, y *float32) (done int)
