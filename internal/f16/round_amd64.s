//go:build amd64

#include "textflag.h"

// AVX2/F16C slice kernels for the binary16 round trip. Eight float32 lanes
// per iteration; the callers in vector.go pass a multiple of eight and run
// the remainder through the scalar loops. VCVTPS2PH rounds by its immediate
// ($0 = nearest-even), not by MXCSR, denormalizes instead of flushing, and
// saturates to ±Inf exactly where FromFloat32 does, so for every non-NaN
// input the hardware and the scalar code agree bit for bit. NaN is the one
// disagreement (the instruction forces the quiet bit, FromFloat32 keeps a
// signalling payload), patched by NANFIX on the rare iteration that holds one.

DATA nanKeep<>+0(SB)/4, $0xffffe000 // sign, exponent, high ten mantissa bits
GLOBL nanKeep<>(SB), RODATA|NOPTR, $4
DATA nanPayload<>+0(SB)/4, $0x007fe000 // the high ten mantissa bits
GLOBL nanPayload<>(SB), RODATA|NOPTR, $4
DATA quietBit<>+0(SB)/4, $0x00400000
GLOBL quietBit<>(SB), RODATA|NOPTR, $4
DATA absMask<>+0(SB)/4, $0x7fffffff
GLOBL absMask<>(SB), RODATA|NOPTR, $4
DATA infBits<>+0(SB)/4, $0x7f800000
GLOBL infBits<>(SB), RODATA|NOPTR, $4
DATA shift11<>+0(SB)/4, $0x45000000 // float32(2¹¹)
GLOBL shift11<>(SB), RODATA|NOPTR, $4

// ROUND leaves fl16(Y0) in Y1 and the NaN lanes of Y0 in Y2 / AX.
#define ROUND \
	VCVTPS2PH $0, Y0, X1;     \
	VCVTPH2PS X1, Y1;         \
	VCMPPS    $3, Y0, Y0, Y2; \
	VMOVMSKPS Y2, AX

// NANFIX overwrites the NaN lanes (Y2) of Y1 with the scalar rule applied
// to Y0: r = b & 0xffffe000; if r & 0x007fe000 == 0 { r |= 0x00400000 }.
// Needs Y15 = nanKeep, Y14 = nanPayload, Y13 = quietBit, Y10 = 0.
#define NANFIX \
	VPAND     Y15, Y0, Y3; \
	VPAND     Y14, Y3, Y4; \
	VPCMPEQD  Y10, Y4, Y4; \
	VPAND     Y13, Y4, Y4; \
	VPOR      Y4, Y3, Y3;  \
	VBLENDVPS Y2, Y3, Y1, Y1

#define NANCONSTS \
	VPBROADCASTD nanKeep<>(SB), Y15;    \
	VPBROADCASTD nanPayload<>(SB), Y14; \
	VPBROADCASTD quietBit<>(SB), Y13;   \
	VPXOR        Y10, Y10, Y10

// func roundVec(dst, src *float32, n int)
//
// dst[i] = fl16(src[i]) for i < n; n is a multiple of 8. dst and src are
// either the same pointer or disjoint.
TEXT ·roundVec(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $3, CX
	JZ   rdone
	NANCONSTS

rloop:
	VMOVUPS (SI), Y0
	ROUND
	TESTL   AX, AX
	JNZ     rnan

rstore:
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     rloop

rdone:
	VZEROUPPER
	RET

rnan:
	NANFIX
	JMP rstore

// func roundCountVec(x *float32, n int) (overflow, underflow int64)
//
// Rounds x[:n] in place (n a multiple of 8) and tallies, as integer compares
// on the bit patterns, overflow = |out| == Inf ∧ |in| < Inf and underflow =
// |out| == 0 ∧ |in| ≠ 0 — the same two events roundCountScalar counts. A
// compare yields −1 per hit, so subtracting it counts up. The eight tallies
// of each kind are 32-bit lanes, summed in 64 bits at the end: exact for any
// n below 2³⁵.
TEXT ·roundCountVec(SB), NOSPLIT, $64-32
	MOVQ  x+0(FP), DI
	MOVQ  n+8(FP), CX
	VPXOR Y8, Y8, Y8 // overflow tallies
	VPXOR Y9, Y9, Y9 // underflow tallies
	SHRQ  $3, CX
	JZ    csum
	NANCONSTS
	VPBROADCASTD absMask<>(SB), Y12
	VPBROADCASTD infBits<>(SB), Y11

cloop:
	VMOVUPS (DI), Y0
	ROUND
	TESTL   AX, AX
	JNZ     cnan

cstore:
	VMOVUPS  Y1, (DI)
	VPAND    Y12, Y1, Y5  // |out|
	VPAND    Y12, Y0, Y6  // |in|
	VPCMPEQD Y11, Y5, Y7  // |out| == Inf
	VPCMPGTD Y6, Y11, Y3  // Inf > |in|
	VPAND    Y3, Y7, Y7
	VPSUBD   Y7, Y8, Y8
	VPCMPEQD Y10, Y5, Y7  // |out| == 0
	VPCMPEQD Y10, Y6, Y3  // |in| == 0
	VPANDN   Y7, Y3, Y7
	VPSUBD   Y7, Y9, Y9
	ADDQ     $32, DI
	DECQ     CX
	JNZ      cloop

csum:
	VMOVDQU Y8, 0(SP)
	VMOVDQU Y9, 32(SP)
	VZEROUPPER
	XORQ    AX, AX
	XORQ    DX, DX
	XORQ    CX, CX

csumloop:
	MOVL 0(SP)(CX*4), BX
	ADDQ BX, AX
	MOVL 32(SP)(CX*4), BX
	ADDQ BX, DX
	INCQ CX
	CMPQ CX, $8
	JNE  csumloop
	MOVQ AX, overflow+16(FP)
	MOVQ DX, underflow+24(FP)
	RET

cnan:
	NANFIX
	JMP cstore

// func residualVec(x *float32, n int)
//
// x[i] = fl16((x[i] − fl16(x[i]))·2¹¹) in place for i < n (a multiple of 8),
// the residual taken as +0 where fl16(x[i]) is infinite — residualScalar's
// definition. No NANFIX: the subtraction x − hi returns its first operand
// quieted when both are NaN, exactly as the scalar SUBSS does, so whatever
// payload the conversion gave hi never reaches the result, and a quiet NaN
// goes through VCVTPS2PH as it goes through FromFloat32.
TEXT ·residualVec(SB), NOSPLIT, $0-16
	MOVQ x+0(FP), DI
	MOVQ n+8(FP), CX
	SHRQ $3, CX
	JZ   sdone
	VPBROADCASTD absMask<>(SB), Y12
	VPBROADCASTD infBits<>(SB), Y11
	VBROADCASTSS shift11<>(SB), Y9

sloop:
	VMOVUPS   (DI), Y0
	VCVTPS2PH $0, Y0, X1
	VCVTPH2PS X1, Y1       // hi
	VSUBPS    Y1, Y0, Y2   // lo = x − hi
	VPAND     Y12, Y1, Y3
	VPCMPEQD  Y11, Y3, Y3  // hi infinite
	VPANDN    Y2, Y3, Y2   // lo, or +0 under an infinite hi
	VMULPS    Y9, Y2, Y2
	VCVTPS2PH $0, Y2, X2
	VCVTPH2PS X2, Y2
	VMOVUPS   Y2, (DI)
	ADDQ      $32, DI
	DECQ      CX
	JNZ       sloop

sdone:
	VZEROUPPER
	RET
