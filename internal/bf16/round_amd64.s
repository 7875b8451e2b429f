//go:build amd64

#include "textflag.h"

// AVX2 slice kernels for the bfloat16 round trip, eight float32 lanes per
// iteration; the callers in bf16.go pass a multiple of eight and run the
// remainder through the scalar loops. Rounding is FromFloat32's integer
// rule, (b + 0x7fff + ((b>>16)&1)) with the low half cleared: the carry
// walks into the exponent and, at the very top, into ±Inf. A NaN would
// carry too, so its lanes are replaced with the scalar rule
// (b & 0xffff0000) | 0x00400000 — branch-free, it costs three instructions.

DATA one<>+0(SB)/4, $0x00000001
GLOBL one<>(SB), RODATA|NOPTR, $4
DATA halfLess<>+0(SB)/4, $0x00007fff
GLOBL halfLess<>(SB), RODATA|NOPTR, $4
DATA topHalf<>+0(SB)/4, $0xffff0000
GLOBL topHalf<>(SB), RODATA|NOPTR, $4
DATA quietBit<>+0(SB)/4, $0x00400000
GLOBL quietBit<>(SB), RODATA|NOPTR, $4
DATA absMask<>+0(SB)/4, $0x7fffffff
GLOBL absMask<>(SB), RODATA|NOPTR, $4
DATA infBits<>+0(SB)/4, $0x7f800000
GLOBL infBits<>(SB), RODATA|NOPTR, $4

#define CONSTS \
	VPBROADCASTD one<>(SB), Y15;      \
	VPBROADCASTD halfLess<>(SB), Y14; \
	VPBROADCASTD topHalf<>(SB), Y13;  \
	VPBROADCASTD quietBit<>(SB), Y12

// ROUND leaves the bfloat16 round trip of Y0 in Y1.
#define ROUND \
	VPSRLD    $16, Y0, Y1;    \
	VPAND     Y15, Y1, Y1;    \
	VPADDD    Y14, Y1, Y1;    \
	VPADDD    Y0, Y1, Y1;     \
	VPAND     Y13, Y1, Y1;    \
	VCMPPS    $3, Y0, Y0, Y2; \
	VPAND     Y13, Y0, Y3;    \
	VPOR      Y12, Y3, Y3;    \
	VBLENDVPS Y2, Y3, Y1, Y1

// func roundVec(dst, src *float32, n int)
//
// dst[i] = bfloat16 round trip of src[i] for i < n; n is a multiple of 8.
// dst and src are either the same pointer or disjoint.
TEXT ·roundVec(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $3, CX
	JZ   rdone
	CONSTS

rloop:
	VMOVDQU (SI), Y0
	ROUND
	VMOVDQU Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     rloop

rdone:
	VZEROUPPER
	RET

// func roundCountVec(x *float32, n int) (overflow int64)
//
// Rounds x[:n] in place (n a multiple of 8) and tallies overflow = |out| ==
// Inf ∧ |in| < Inf as integer compares on the bit patterns — the event
// roundCountScalar counts. A compare yields −1 per hit, so subtracting it
// counts up. The eight tallies are 32-bit lanes, summed in 64 bits at the
// end: exact for any n below 2³⁵.
TEXT ·roundCountVec(SB), NOSPLIT, $32-24
	MOVQ  x+0(FP), DI
	MOVQ  n+8(FP), CX
	VPXOR Y8, Y8, Y8 // overflow tallies
	SHRQ  $3, CX
	JZ    csum
	CONSTS
	VPBROADCASTD absMask<>(SB), Y11
	VPBROADCASTD infBits<>(SB), Y10

cloop:
	VMOVDQU  (DI), Y0
	ROUND
	VMOVDQU  Y1, (DI)
	VPAND    Y11, Y1, Y5 // |out|
	VPAND    Y11, Y0, Y6 // |in|
	VPCMPEQD Y10, Y5, Y7 // |out| == Inf
	VPCMPGTD Y6, Y10, Y3 // Inf > |in|
	VPAND    Y3, Y7, Y7
	VPSUBD   Y7, Y8, Y8
	ADDQ     $32, DI
	DECQ     CX
	JNZ      cloop

csum:
	VMOVDQU Y8, 0(SP)
	VZEROUPPER
	XORQ    AX, AX
	XORQ    CX, CX

csumloop:
	MOVL 0(SP)(CX*4), BX
	ADDQ BX, AX
	INCQ CX
	CMPQ CX, $8
	JNE  csumloop
	MOVQ AX, overflow+16(FP)
	RET
