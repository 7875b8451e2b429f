//go:build amd64

#include "textflag.h"

// The float32 MGS tile kernels, the register-blocked NoTrans/NoTrans GEMM
// body, and the scan and the scaled copy of rgs's column scaling;
// tile_amd64.go has the contract, and tile.go and level1.go call them. The
// rules of level2_amd64.s hold: multiply and add are separate instructions,
// never FMA, every output sees the Go loop's operations in the Go loop's
// order, and no kernel stores a NaN.
//
// The MGS kernels work on a row-major copy of the tile: row i of a tile of
// up to 32 columns is 32 floats (128 bytes) at w + 128·i, column j of it lane
// j. Column k itself travels in a contiguous buffer c.

DATA absMask<>+0(SB)/8, $0x7fffffff7fffffff
DATA absMask<>+8(SB)/8, $0x7fffffff7fffffff
DATA absMask<>+16(SB)/8, $0x7fffffff7fffffff
DATA absMask<>+24(SB)/8, $0x7fffffff7fffffff
GLOBL absMask<>(SB), RODATA|NOPTR, $32

DATA zeroF32<>+0(SB)/8, $0
DATA zeroF32<>+8(SB)/8, $0
DATA zeroF32<>+16(SB)/8, $0
DATA zeroF32<>+24(SB)/8, $0
GLOBL zeroF32<>(SB), RODATA|NOPTR, $32

DATA oneF32<>+0(SB)/4, $0x3f800000
GLOBL oneF32<>(SB), RODATA|NOPTR, $4

// func mgsNormF32(m int, c *float32) float32
//
// Nrm2 of c[0..m), in Nrm2's order: a running scale s (X12, +0 at first)
// and sum ssq (X11, 1 at first), eight elements at a time. When none of the
// eight exceeds s, their terms (a/s)² (0 for a = 0) come from one vector
// divide and are added to ssq one by one, in order; otherwise, and for the
// m mod 8 tail, Nrm2's scalar loop takes them (a > s is rare, so the branch
// predictor keeps the divides off the chain). The square root is taken in
// float64, as Nrm2 takes it. A NaN or an Inf ends in a norm that is not
// finite, which MGSTile hands back.
TEXT ·mgsNormF32(SB), NOSPLIT, $0-20
	MOVQ   m+0(FP), CX
	MOVQ   c+8(FP), SI
	VXORPS X12, X12, X12
	VMOVSS oneF32<>(SB), X11
	MOVQ   CX, DX
	SHRQ   $3, DX
	JZ     ntail

nblock:
	VMOVUPS      (SI), Y0
	VANDPS       absMask<>(SB), Y0, Y0
	VBROADCASTSS X12, Y1
	VCMPPS       $0x1e, Y1, Y0, Y2        // a > s, ordered
	VMOVMSKPS    Y2, AX
	TESTL        AX, AX
	JNZ          nslow
	VDIVPS       Y1, Y0, Y3
	VMULPS       Y3, Y3, Y3
	VCMPPS       $4, zeroF32<>(SB), Y0, Y2 // a ≠ 0 (unordered counts as ≠)
	VANDPS       Y2, Y3, Y3
	VEXTRACTF128 $1, Y3, X0
	VADDSS       X3, X11, X11
	VMOVSHDUP    X3, X2
	VADDSS       X2, X11, X11
	VPERMILPS    $2, X3, X2
	VADDSS       X2, X11, X11
	VPERMILPS    $3, X3, X2
	VADDSS       X2, X11, X11
	VADDSS       X0, X11, X11
	VMOVSHDUP    X0, X2
	VADDSS       X2, X11, X11
	VPERMILPS    $2, X0, X2
	VADDSS       X2, X11, X11
	VPERMILPS    $3, X0, X2
	VADDSS       X2, X11, X11
	ADDQ         $32, SI

nnext:
	DECQ DX
	JNZ  nblock

ntail:
	ANDQ $7, CX
	JZ   ndone
	MOVQ CX, BX
	MOVQ $1, R8                    // the tail: ndone after the lanes
	JMP  nlane

nslow:
	MOVQ $8, BX
	XORQ R8, R8

nlane:
	VMOVSS   (SI), X0
	VANDPS   absMask<>(SB), X0, X0
	VUCOMISS zeroF32<>(SB), X0
	JNE      nnonzero
	JP       nnonzero
	JMP      nlanenext             // a = 0

nnonzero:
	VUCOMISS X12, X0
	JA       nnewmax
	VDIVSS   X12, X0, X1           // r = a/s
	VMULSS   X1, X1, X1
	VADDSS   X1, X11, X11          // ssq + r·r
	JMP      nlanenext

nnewmax:
	VDIVSS  X0, X12, X1            // r = s/a
	VMULSS  X1, X11, X2
	VMULSS  X1, X2, X2
	VADDSS  oneF32<>(SB), X2, X11  // 1 + ssq·r·r
	VMOVAPS X0, X12                // s = a

nlanenext:
	ADDQ  $4, SI
	DECQ  BX
	JNZ   nlane
	TESTQ R8, R8
	JZ    nnext

ndone:
	VCVTSS2SD X11, X11, X0
	VSQRTSD   X0, X0, X0
	VCVTSD2SS X0, X0, X0
	VMULSS    X0, X12, X0
	VMOVSS    X0, ret+16(FP)
	VZEROUPPER
	RET

// STEPY takes the lanes at off of a row of w (SI): the update in the lanes MK
// marks, Y8 holding qp[i] and nd at off(R10), then the dot product's next
// term, Y9 holding q[i], added to ACC.
#define STEPY(off, MK, ACC) \
	VMOVUPS   off(SI), Y10       \
	VMULPS    off(R10), Y8, Y11  \
	VADDPS    Y11, Y10, Y11      \
	VBLENDVPS MK, Y11, Y10, Y10  \
	VMOVUPS   Y10, off(SI)       \
	VMULPS    Y9, Y10, Y11       \
	VADDPS    Y11, ACC, ACC

// func mgsStepF32(m int, w, qp, nd, q, c, out *float32, nv, next int, mk *uint32)
//
// One pass over the rows for step k of the tile, on nv YMM lanes-vectors of
// each row from lane 8·(k+1)/8: first the update of step k−1, which the
// previous pass left pending — w ← w + qp[i]·nd in the lanes mk marks, Ger's
// product rounded and then the sum — then, on the updated row, step k's dot
// products out[l] = Σ_i q[i]·w[i, l] from +0 in ascending i (columns in the
// lanes, gemvT's sums), and c[i] ← lane next of the updated row: column k+1
// as step k+1 will find it, before the update of step k. Every element gets
// its update before its dot product, as in the Go loop. Y0..Y3 are the sums,
// Y4..Y7 the masks, Y14 the lane index of next. A sum that is not finite is
// stored like the others: out is MGSTile's, which hands such a column back
// instead of using it.
TEXT ·mgsStepF32(SB), NOSPLIT, $0-80
	MOVQ         m+0(FP), CX
	MOVQ         w+8(FP), SI
	MOVQ         qp+16(FP), R8
	MOVQ         nd+24(FP), R10
	MOVQ         q+32(FP), R9
	MOVQ         c+40(FP), DI
	MOVQ         out+48(FP), R11
	MOVQ         nv+56(FP), DX
	MOVQ         next+64(FP), AX
	MOVQ         mk+72(FP), BX
	VMOVD        AX, X14
	VPBROADCASTD X14, Y14
	VMOVUPS      (BX), Y4
	VMOVUPS      32(BX), Y5
	VMOVUPS      64(BX), Y6
	VMOVUPS      96(BX), Y7
	VXORPS       Y0, Y0, Y0
	VXORPS       Y1, Y1, Y1
	VXORPS       Y2, Y2, Y2
	VXORPS       Y3, Y3, Y3
	TESTQ        CX, CX
	JZ           systore
	CMPQ         DX, $2
	JLT          sy1
	JEQ          sy2
	CMPQ         DX, $3
	JEQ          sy3

sy4:
	VBROADCASTSS (R8), Y8
	VBROADCASTSS (R9), Y9
	STEPY(0, Y4, Y0)
	VPERMPS      Y10, Y14, Y12
	VMOVSS       X12, (DI)
	STEPY(32, Y5, Y1)
	STEPY(64, Y6, Y2)
	STEPY(96, Y7, Y3)
	ADDQ         $128, SI
	ADDQ         $4, R8
	ADDQ         $4, R9
	ADDQ         $4, DI
	DECQ         CX
	JNZ          sy4
	JMP          systore

sy3:
	VBROADCASTSS (R8), Y8
	VBROADCASTSS (R9), Y9
	STEPY(0, Y4, Y0)
	VPERMPS      Y10, Y14, Y12
	VMOVSS       X12, (DI)
	STEPY(32, Y5, Y1)
	STEPY(64, Y6, Y2)
	ADDQ         $128, SI
	ADDQ         $4, R8
	ADDQ         $4, R9
	ADDQ         $4, DI
	DECQ         CX
	JNZ          sy3
	JMP          systore

sy2:
	VBROADCASTSS (R8), Y8
	VBROADCASTSS (R9), Y9
	STEPY(0, Y4, Y0)
	VPERMPS      Y10, Y14, Y12
	VMOVSS       X12, (DI)
	STEPY(32, Y5, Y1)
	ADDQ         $128, SI
	ADDQ         $4, R8
	ADDQ         $4, R9
	ADDQ         $4, DI
	DECQ         CX
	JNZ          sy2
	JMP          systore

sy1:
	VBROADCASTSS (R8), Y8
	VBROADCASTSS (R9), Y9
	STEPY(0, Y4, Y0)
	VPERMPS      Y10, Y14, Y12
	VMOVSS       X12, (DI)
	ADDQ         $128, SI
	ADDQ         $4, R8
	ADDQ         $4, R9
	ADDQ         $4, DI
	DECQ         CX
	JNZ          sy1

systore:
	VMOVUPS Y0, (R11)
	CMPQ    DX, $2
	JLT     sydone
	VMOVUPS Y1, 32(R11)
	CMPQ    DX, $3
	JLT     sydone
	VMOVUPS Y2, 64(R11)
	CMPQ    DX, $4
	JLT     sydone
	VMOVUPS Y3, 96(R11)

sydone:
	VZEROUPPER
	RET

// func mgsStepZ(m int, w, qp, nd, q, c, out *float32, nv, next int, bits uint32)
//
// mgsStepF32 on one or two ZMM lanes-vectors from lane 16·(k+1)/16, the
// lanes of the pending update chosen by the bits of bits (low sixteen for the
// first vector) through opmask registers. Z0 and Z1 are the sums.
TEXT ·mgsStepZ(SB), NOSPLIT, $0-76
	MOVQ         m+0(FP), CX
	MOVQ         w+8(FP), SI
	MOVQ         qp+16(FP), R8
	MOVQ         nd+24(FP), R10
	MOVQ         q+32(FP), R9
	MOVQ         c+40(FP), DI
	MOVQ         out+48(FP), R11
	MOVQ         nv+56(FP), DX
	MOVQ         next+64(FP), AX
	MOVL         bits+72(FP), BX
	VPBROADCASTD AX, Z22
	KMOVW        BX, K1
	SHRL         $16, BX
	KMOVW        BX, K2
	VMOVUPS      (R10), Z20
	VXORPS       Z0, Z0, Z0
	VXORPS       Z1, Z1, Z1
	CMPQ         DX, $2
	JLT          sznd
	VMOVUPS      64(R10), Z21

sznd:
	TESTQ CX, CX
	JZ    szstore
	CMPQ  DX, $2
	JLT   sz1

sz2:
	VBROADCASTSS (R8), Z23
	VBROADCASTSS (R9), Z26
	VMOVUPS      (SI), Z24
	VMULPS       Z23, Z20, Z25
	VADDPS       Z25, Z24, K1, Z24
	VMOVUPS      Z24, (SI)
	VMULPS       Z26, Z24, Z25
	VADDPS       Z25, Z0, Z0
	VPERMPS      Z24, Z22, Z27
	VMOVSS       X27, (DI)
	VMOVUPS      64(SI), Z28
	VMULPS       Z23, Z21, Z29
	VADDPS       Z29, Z28, K2, Z28
	VMOVUPS      Z28, 64(SI)
	VMULPS       Z26, Z28, Z29
	VADDPS       Z29, Z1, Z1
	ADDQ         $128, SI
	ADDQ         $4, R8
	ADDQ         $4, R9
	ADDQ         $4, DI
	DECQ         CX
	JNZ          sz2
	JMP          szstore

sz1:
	VBROADCASTSS (R8), Z23
	VBROADCASTSS (R9), Z26
	VMOVUPS      (SI), Z24
	VMULPS       Z23, Z20, Z25
	VADDPS       Z25, Z24, K1, Z24
	VMOVUPS      Z24, (SI)
	VMULPS       Z26, Z24, Z25
	VADDPS       Z25, Z0, Z0
	VPERMPS      Z24, Z22, Z27
	VMOVSS       X27, (DI)
	ADDQ         $128, SI
	ADDQ         $4, R8
	ADDQ         $4, R9
	ADDQ         $4, DI
	DECQ         CX
	JNZ          sz1

szstore:
	VMOVUPS Z0, (R11)
	CMPQ    DX, $2
	JLT     szdone
	VMOVUPS Z1, 64(R11)

szdone:
	VZEROUPPER
	RET

// func amaxF32(n int, x *float32) float32
//
// max |x[i]| over the multiples of eight in n, from +0, a NaN never
// selected (VMAXPS returns its second operand, the running maximum, when the
// first is NaN); four running maxima a turn, then the lanes. The maximum of
// values that are not NaN does not depend on the order it is taken in.
TEXT ·amaxF32(SB), NOSPLIT, $0-20
	MOVQ    n+0(FP), CX
	MOVQ    x+8(FP), SI
	VMOVUPS absMask<>(SB), Y15
	VXORPS  Y0, Y0, Y0
	VXORPS  Y1, Y1, Y1
	VXORPS  Y2, Y2, Y2
	VXORPS  Y3, Y3, Y3
	MOVQ    CX, DX
	SHRQ    $5, DX
	JZ      amax8

amax32:
	VANDPS (SI), Y15, Y4
	VANDPS 32(SI), Y15, Y5
	VANDPS 64(SI), Y15, Y6
	VANDPS 96(SI), Y15, Y7
	VMAXPS Y0, Y4, Y0
	VMAXPS Y1, Y5, Y1
	VMAXPS Y2, Y6, Y2
	VMAXPS Y3, Y7, Y3
	ADDQ   $128, SI
	DECQ   DX
	JNZ    amax32

amax8:
	ANDQ $31, CX
	SHRQ $3, CX
	JZ   amaxlanes

amax8loop:
	VANDPS (SI), Y15, Y4
	VMAXPS Y0, Y4, Y0
	ADDQ   $32, SI
	DECQ   CX
	JNZ    amax8loop

amaxlanes:
	VMAXPS       Y1, Y0, Y0
	VMAXPS       Y3, Y2, Y2
	VMAXPS       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VMAXPS       X1, X0, X0
	VPERMILPS    $0x4e, X0, X1
	VMAXPS       X1, X0, X0
	VPERMILPS    $0xb1, X0, X1
	VMAXPS       X1, X0, X0
	VMOVSS       X0, ret+16(FP)
	VZEROUPPER
	RET

// func scaleF32(n int, x *float32, alpha float32, y *float32)
//
// y[i] = x[i]·α, Scal's product.
TEXT ·scaleF32(SB), NOSPLIT, $0-32
	MOVQ         n+0(FP), CX
	MOVQ         x+8(FP), SI
	VBROADCASTSS alpha+16(FP), Y15
	MOVQ         y+24(FP), DI
	MOVQ         CX, DX
	SHRQ         $3, DX
	JZ           stail

sloop:
	VMULPS  (SI), Y15, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    DX
	JNZ     sloop

stail:
	ANDQ $7, CX
	JZ   sdone

sone:
	VMULSS (SI), X15, X0
	VMOVSS X0, (DI)
	ADDQ   $4, SI
	ADDQ   $4, DI
	DECQ   CX
	JNZ    sone

sdone:
	VZEROUPPER
	RET

// func transposeF32x8(rows int, src *float32, lds int, dst *float32)
//
// Copies eight columns of src (src, src+lds, …), rows a multiple of eight,
// into lanes 0..7 of the rows dst + 128·i: an 8×8 transpose in registers per
// eight rows.
TEXT ·transposeF32x8(SB), NOSPLIT, $0-32
	MOVQ rows+0(FP), CX
	MOVQ src+8(FP), SI
	MOVQ lds+16(FP), DX
	MOVQ dst+24(FP), DI
	SHLQ $2, DX
	LEAQ (DX)(DX*2), R9
	LEAQ (SI)(DX*4), R10
	SHRQ $3, CX
	JZ   tdone

tloop:
	VMOVUPS    (SI), Y0
	VMOVUPS    (SI)(DX*1), Y1
	VMOVUPS    (SI)(DX*2), Y2
	VMOVUPS    (SI)(R9*1), Y3
	VMOVUPS    (R10), Y4
	VMOVUPS    (R10)(DX*1), Y5
	VMOVUPS    (R10)(DX*2), Y6
	VMOVUPS    (R10)(R9*1), Y7
	VUNPCKLPS  Y1, Y0, Y8         // c0 c1 of rows 0 1 | 4 5
	VUNPCKHPS  Y1, Y0, Y9         // rows 2 3 | 6 7
	VUNPCKLPS  Y3, Y2, Y10        // c2 c3
	VUNPCKHPS  Y3, Y2, Y11
	VUNPCKLPS  Y5, Y4, Y12        // c4 c5
	VUNPCKHPS  Y5, Y4, Y13
	VUNPCKLPS  Y7, Y6, Y14        // c6 c7
	VUNPCKHPS  Y7, Y6, Y15
	VSHUFPS    $0x44, Y10, Y8, Y0 // c0..c3 of row 0 | 4
	VSHUFPS    $0xee, Y10, Y8, Y1 // row 1 | 5
	VSHUFPS    $0x44, Y11, Y9, Y2 // row 2 | 6
	VSHUFPS    $0xee, Y11, Y9, Y3 // row 3 | 7
	VSHUFPS    $0x44, Y14, Y12, Y4 // c4..c7
	VSHUFPS    $0xee, Y14, Y12, Y5
	VSHUFPS    $0x44, Y15, Y13, Y6
	VSHUFPS    $0xee, Y15, Y13, Y7
	VPERM2F128 $0x20, Y4, Y0, Y8
	VPERM2F128 $0x31, Y4, Y0, Y12
	VPERM2F128 $0x20, Y5, Y1, Y9
	VPERM2F128 $0x31, Y5, Y1, Y13
	VPERM2F128 $0x20, Y6, Y2, Y10
	VPERM2F128 $0x31, Y6, Y2, Y14
	VPERM2F128 $0x20, Y7, Y3, Y11
	VPERM2F128 $0x31, Y7, Y3, Y15
	VMOVUPS    Y8, (DI)
	VMOVUPS    Y9, 128(DI)
	VMOVUPS    Y10, 256(DI)
	VMOVUPS    Y11, 384(DI)
	VMOVUPS    Y12, 512(DI)
	VMOVUPS    Y13, 640(DI)
	VMOVUPS    Y14, 768(DI)
	VMOVUPS    Y15, 896(DI)
	ADDQ       $32, SI
	ADDQ       $32, R10
	ADDQ       $1024, DI
	DECQ       CX
	JNZ        tloop

tdone:
	VZEROUPPER
	RET

// NN8 adds column j's term a·t of one k step to its accumulator: the product
// rounded, then the sum, as colUpdate does.
#define NN8(toff, A, ACC, T, P) \
	VBROADCASTSS toff(R13), T \
	VMULPS       T, A, P      \
	VADDPS       P, ACC, ACC

// func gemmNN8F32(m, k int, a *float32, lda int, t *float32, c *float32, ldc int, beta float32, mode int) (done int)
//
// C[0:m, 0:8] ← β·C + A·T, eight rows at a time with the 8×8 block of C in
// Y0..Y7 across all k steps: t holds the k·8 coefficients α·b_lj, l-major,
// none of them zero, and each C element takes its k terms in ascending l.
// mode 0 starts from +0 (β = 0), 1 from C (β = 1), 2 from C·β. It stops
// before the first eight rows whose result holds a NaN and returns the rows
// it stored.
TEXT ·gemmNN8F32(SB), NOSPLIT, $0-80
	MOVQ         m+0(FP), CX
	MOVQ         a+16(FP), SI
	MOVQ         lda+24(FP), R11
	MOVQ         c+40(FP), DI
	MOVQ         ldc+48(FP), DX
	VBROADCASTSS beta+56(FP), Y15
	MOVQ         mode+64(FP), R8
	SHLQ         $2, R11
	SHLQ         $2, DX
	LEAQ         (DX)(DX*2), R9
	XORQ         BX, BX
	SHRQ         $3, CX
	JZ           nn8done

nn8block:
	LEAQ   (DI)(DX*4), R10
	CMPQ   R8, $1
	JEQ    nn8load
	JGT    nn8scale
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	JMP    nn8k

nn8load:
	VMOVUPS (DI), Y0
	VMOVUPS (DI)(DX*1), Y1
	VMOVUPS (DI)(DX*2), Y2
	VMOVUPS (DI)(R9*1), Y3
	VMOVUPS (R10), Y4
	VMOVUPS (R10)(DX*1), Y5
	VMOVUPS (R10)(DX*2), Y6
	VMOVUPS (R10)(R9*1), Y7
	JMP     nn8k

nn8scale:
	VMULPS (DI), Y15, Y0
	VMULPS (DI)(DX*1), Y15, Y1
	VMULPS (DI)(DX*2), Y15, Y2
	VMULPS (DI)(R9*1), Y15, Y3
	VMULPS (R10), Y15, Y4
	VMULPS (R10)(DX*1), Y15, Y5
	VMULPS (R10)(DX*2), Y15, Y6
	VMULPS (R10)(R9*1), Y15, Y7

nn8k:
	MOVQ SI, R12
	MOVQ t+32(FP), R13
	MOVQ k+8(FP), R14

nn8l:
	VMOVUPS (R12), Y8
	NN8(0, Y8, Y0, Y9, Y10)
	NN8(4, Y8, Y1, Y11, Y12)
	NN8(8, Y8, Y2, Y9, Y10)
	NN8(12, Y8, Y3, Y11, Y12)
	NN8(16, Y8, Y4, Y9, Y10)
	NN8(20, Y8, Y5, Y11, Y12)
	NN8(24, Y8, Y6, Y9, Y10)
	NN8(28, Y8, Y7, Y11, Y12)
	ADDQ    R11, R12
	ADDQ    $32, R13
	DECQ    R14
	JNZ     nn8l

	VCMPPS    $3, Y1, Y0, Y8
	VCMPPS    $3, Y3, Y2, Y9
	VCMPPS    $3, Y5, Y4, Y10
	VCMPPS    $3, Y7, Y6, Y11
	VORPS     Y9, Y8, Y8
	VORPS     Y11, Y10, Y10
	VORPS     Y10, Y8, Y8
	VMOVMSKPS Y8, AX
	TESTL     AX, AX
	JNZ       nn8done
	VMOVUPS   Y0, (DI)
	VMOVUPS   Y1, (DI)(DX*1)
	VMOVUPS   Y2, (DI)(DX*2)
	VMOVUPS   Y3, (DI)(R9*1)
	VMOVUPS   Y4, (R10)
	VMOVUPS   Y5, (R10)(DX*1)
	VMOVUPS   Y6, (R10)(DX*2)
	VMOVUPS   Y7, (R10)(R9*1)
	ADDQ      $32, SI
	ADDQ      $32, DI
	ADDQ      $8, BX
	DECQ      CX
	JNZ       nn8block

nn8done:
	MOVQ BX, done+72(FP)
	VZEROUPPER
	RET

// func gemmNN16F32(m, k int, a *float32, lda int, t *float32, c *float32, ldc int, beta float32, mode int) (done int)
//
// gemmNN8F32 on ZMM registers, sixteen rows at a time.
TEXT ·gemmNN16F32(SB), NOSPLIT, $0-80
	MOVQ         m+0(FP), CX
	MOVQ         a+16(FP), SI
	MOVQ         lda+24(FP), R11
	MOVQ         c+40(FP), DI
	MOVQ         ldc+48(FP), DX
	VBROADCASTSS beta+56(FP), Z15
	MOVQ         mode+64(FP), R8
	SHLQ         $2, R11
	SHLQ         $2, DX
	LEAQ         (DX)(DX*2), R9
	XORQ         BX, BX
	SHRQ         $4, CX
	JZ           nn16done

nn16block:
	LEAQ   (DI)(DX*4), R10
	CMPQ   R8, $1
	JEQ    nn16load
	JGT    nn16scale
	VXORPS Z0, Z0, Z0
	VXORPS Z1, Z1, Z1
	VXORPS Z2, Z2, Z2
	VXORPS Z3, Z3, Z3
	VXORPS Z4, Z4, Z4
	VXORPS Z5, Z5, Z5
	VXORPS Z6, Z6, Z6
	VXORPS Z7, Z7, Z7
	JMP    nn16k

nn16load:
	VMOVUPS (DI), Z0
	VMOVUPS (DI)(DX*1), Z1
	VMOVUPS (DI)(DX*2), Z2
	VMOVUPS (DI)(R9*1), Z3
	VMOVUPS (R10), Z4
	VMOVUPS (R10)(DX*1), Z5
	VMOVUPS (R10)(DX*2), Z6
	VMOVUPS (R10)(R9*1), Z7
	JMP     nn16k

nn16scale:
	VMULPS (DI), Z15, Z0
	VMULPS (DI)(DX*1), Z15, Z1
	VMULPS (DI)(DX*2), Z15, Z2
	VMULPS (DI)(R9*1), Z15, Z3
	VMULPS (R10), Z15, Z4
	VMULPS (R10)(DX*1), Z15, Z5
	VMULPS (R10)(DX*2), Z15, Z6
	VMULPS (R10)(R9*1), Z15, Z7

nn16k:
	MOVQ SI, R12
	MOVQ t+32(FP), R13
	MOVQ k+8(FP), R14

nn16l:
	VMOVUPS (R12), Z8
	NN8(0, Z8, Z0, Z9, Z10)
	NN8(4, Z8, Z1, Z11, Z12)
	NN8(8, Z8, Z2, Z9, Z10)
	NN8(12, Z8, Z3, Z11, Z12)
	NN8(16, Z8, Z4, Z9, Z10)
	NN8(20, Z8, Z5, Z11, Z12)
	NN8(24, Z8, Z6, Z9, Z10)
	NN8(28, Z8, Z7, Z11, Z12)
	ADDQ    R11, R12
	ADDQ    $32, R13
	DECQ    R14
	JNZ     nn16l

	VCMPPS   $3, Z0, Z0, K1
	VCMPPS   $3, Z1, Z1, K2
	KORW     K2, K1, K1
	VCMPPS   $3, Z2, Z2, K2
	KORW     K2, K1, K1
	VCMPPS   $3, Z3, Z3, K2
	KORW     K2, K1, K1
	VCMPPS   $3, Z4, Z4, K2
	KORW     K2, K1, K1
	VCMPPS   $3, Z5, Z5, K2
	KORW     K2, K1, K1
	VCMPPS   $3, Z6, Z6, K2
	KORW     K2, K1, K1
	VCMPPS   $3, Z7, Z7, K2
	KORW     K2, K1, K1
	KORTESTW K1, K1
	JNZ      nn16done
	VMOVUPS  Z0, (DI)
	VMOVUPS  Z1, (DI)(DX*1)
	VMOVUPS  Z2, (DI)(DX*2)
	VMOVUPS  Z3, (DI)(R9*1)
	VMOVUPS  Z4, (R10)
	VMOVUPS  Z5, (R10)(DX*1)
	VMOVUPS  Z6, (R10)(DX*2)
	VMOVUPS  Z7, (R10)(R9*1)
	ADDQ     $64, SI
	ADDQ     $64, DI
	ADDQ     $16, BX
	DECQ     CX
	JNZ      nn16block

nn16done:
	MOVQ BX, done+72(FP)
	VZEROUPPER
	RET
