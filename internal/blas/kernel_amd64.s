//go:build amd64

#include "textflag.h"

// The float32 tile kernels share one frame and one contract (kernel_amd64.go):
//
// func tileNx4F32(kb int, ap, bp, c *float32, ldc int, alpha, beta float32, mode int) (ok bool)
//
// ap: kb groups of N floats (one micro-panel column per k index)
// bp: kb groups of 4 floats
// c:  the tile's top-left element, columns ldc floats apart
// mode: the write-back (0 raw accumulators, 1 C + α·acc, 2 α·acc,
//       3 β·C + α·acc)

// Column pointers of the tile: R8, R10, R11, R12 = c + s·ldc·4.
#define COLUMNS \
	SHLQ $2, R9; \
	LEAQ (R8)(R9*1), R10; \
	LEAQ (R10)(R9*1), R11; \
	LEAQ (R11)(R9*1), R12

// func tile16x4F32(kb int, ap, bp, c *float32, ldc int, alpha, beta float32, mode int) (ok bool)
TEXT ·tile16x4F32(SB), NOSPLIT, $0-57
	MOVQ   kb+0(FP), CX
	MOVQ   ap+8(FP), SI
	MOVQ   bp+16(FP), DI
	MOVQ   c+24(FP), R8
	MOVQ   ldc+32(FP), R9
	MOVQ   mode+48(FP), DX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	TESTQ  CX, CX
	JZ     y16sum

y16mul:
	VMOVUPS      (SI), Y8
	VMOVUPS      32(SI), Y9
	VBROADCASTSS (DI), Y10
	VMULPS       Y10, Y8, Y11
	VADDPS       Y11, Y0, Y0
	VMULPS       Y10, Y9, Y12
	VADDPS       Y12, Y1, Y1
	VBROADCASTSS 4(DI), Y10
	VMULPS       Y10, Y8, Y11
	VADDPS       Y11, Y2, Y2
	VMULPS       Y10, Y9, Y12
	VADDPS       Y12, Y3, Y3
	VBROADCASTSS 8(DI), Y10
	VMULPS       Y10, Y8, Y11
	VADDPS       Y11, Y4, Y4
	VMULPS       Y10, Y9, Y12
	VADDPS       Y12, Y5, Y5
	VBROADCASTSS 12(DI), Y10
	VMULPS       Y10, Y8, Y11
	VADDPS       Y11, Y6, Y6
	VMULPS       Y10, Y9, Y12
	VADDPS       Y12, Y7, Y7
	ADDQ         $64, SI
	ADDQ         $16, DI
	DECQ         CX
	JNZ          y16mul

y16sum:
	COLUMNS
	TESTQ        DX, DX
	JZ           y16store
	VBROADCASTSS alpha+40(FP), Y8
	VMULPS       Y8, Y0, Y0
	VMULPS       Y8, Y1, Y1
	VMULPS       Y8, Y2, Y2
	VMULPS       Y8, Y3, Y3
	VMULPS       Y8, Y4, Y4
	VMULPS       Y8, Y5, Y5
	VMULPS       Y8, Y6, Y6
	VMULPS       Y8, Y7, Y7
	CMPQ         DX, $2
	JE           y16check
	JA           y16axpby
	VADDPS       (R8), Y0, Y0
	VADDPS       32(R8), Y1, Y1
	VADDPS       (R10), Y2, Y2
	VADDPS       32(R10), Y3, Y3
	VADDPS       (R11), Y4, Y4
	VADDPS       32(R11), Y5, Y5
	VADDPS       (R12), Y6, Y6
	VADDPS       32(R12), Y7, Y7
	JMP          y16check

y16axpby:
	VBROADCASTSS beta+44(FP), Y9
	VMULPS       (R8), Y9, Y10
	VADDPS       Y10, Y0, Y0
	VMULPS       32(R8), Y9, Y10
	VADDPS       Y10, Y1, Y1
	VMULPS       (R10), Y9, Y10
	VADDPS       Y10, Y2, Y2
	VMULPS       32(R10), Y9, Y10
	VADDPS       Y10, Y3, Y3
	VMULPS       (R11), Y9, Y10
	VADDPS       Y10, Y4, Y4
	VMULPS       32(R11), Y9, Y10
	VADDPS       Y10, Y5, Y5
	VMULPS       (R12), Y9, Y10
	VADDPS       Y10, Y6, Y6
	VMULPS       32(R12), Y9, Y10
	VADDPS       Y10, Y7, Y7

y16check:
	VCMPPS $3, Y1, Y0, Y8
	VCMPPS $3, Y3, Y2, Y9
	VORPS  Y9, Y8, Y8
	VCMPPS $3, Y5, Y4, Y9
	VORPS  Y9, Y8, Y8
	VCMPPS $3, Y7, Y6, Y9
	VORPS  Y9, Y8, Y8
	VPTEST Y8, Y8
	JNZ    y16nan

y16store:
	VMOVUPS Y0, (R8)
	VMOVUPS Y1, 32(R8)
	VMOVUPS Y2, (R10)
	VMOVUPS Y3, 32(R10)
	VMOVUPS Y4, (R11)
	VMOVUPS Y5, 32(R11)
	VMOVUPS Y6, (R12)
	VMOVUPS Y7, 32(R12)
	MOVB    $1, ok+56(FP)
	VZEROUPPER
	RET

y16nan:
	MOVB $0, ok+56(FP)
	VZEROUPPER
	RET

// The ZMM tiles' prologue: the arguments into registers, eight +0
// accumulators. A zero kb jumps straight to the write-back.
#define Z32START \
	MOVQ   kb+0(FP), CX; \
	MOVQ   ap+8(FP), SI; \
	MOVQ   bp+16(FP), DI; \
	MOVQ   c+24(FP), R8; \
	MOVQ   ldc+32(FP), R9; \
	MOVQ   mode+48(FP), DX; \
	VPXORD Z0, Z0, Z0; \
	VPXORD Z1, Z1, Z1; \
	VPXORD Z2, Z2, Z2; \
	VPXORD Z3, Z3, Z3; \
	VPXORD Z4, Z4, Z4; \
	VPXORD Z5, Z5, Z5; \
	VPXORD Z6, Z6, Z6; \
	VPXORD Z7, Z7, Z7; \
	TESTQ  CX, CX; \
	JZ     z32sum

// The ZMM tiles' write-back, from the label z32sum on (labels are local to
// each TEXT): α and β applied with writeTile's operations, a product rounded
// and then a sum, the NaN refusal, the store.
#define Z32FINISH \
z32sum: \
	COLUMNS; \
	TESTQ        DX, DX; \
	JZ           z32store; \
	VBROADCASTSS alpha+40(FP), Z8; \
	VMULPS       Z8, Z0, Z0; \
	VMULPS       Z8, Z1, Z1; \
	VMULPS       Z8, Z2, Z2; \
	VMULPS       Z8, Z3, Z3; \
	VMULPS       Z8, Z4, Z4; \
	VMULPS       Z8, Z5, Z5; \
	VMULPS       Z8, Z6, Z6; \
	VMULPS       Z8, Z7, Z7; \
	CMPQ         DX, $2; \
	JE           z32check; \
	JA           z32axpby; \
	VADDPS       (R8), Z0, Z0; \
	VADDPS       64(R8), Z1, Z1; \
	VADDPS       (R10), Z2, Z2; \
	VADDPS       64(R10), Z3, Z3; \
	VADDPS       (R11), Z4, Z4; \
	VADDPS       64(R11), Z5, Z5; \
	VADDPS       (R12), Z6, Z6; \
	VADDPS       64(R12), Z7, Z7; \
	JMP          z32check; \
z32axpby: \
	VBROADCASTSS beta+44(FP), Z9; \
	VMULPS       (R8), Z9, Z10; \
	VADDPS       Z10, Z0, Z0; \
	VMULPS       64(R8), Z9, Z10; \
	VADDPS       Z10, Z1, Z1; \
	VMULPS       (R10), Z9, Z10; \
	VADDPS       Z10, Z2, Z2; \
	VMULPS       64(R10), Z9, Z10; \
	VADDPS       Z10, Z3, Z3; \
	VMULPS       (R11), Z9, Z10; \
	VADDPS       Z10, Z4, Z4; \
	VMULPS       64(R11), Z9, Z10; \
	VADDPS       Z10, Z5, Z5; \
	VMULPS       (R12), Z9, Z10; \
	VADDPS       Z10, Z6, Z6; \
	VMULPS       64(R12), Z9, Z10; \
	VADDPS       Z10, Z7, Z7; \
z32check: \
	VCMPPS   $3, Z1, Z0, K1; \
	VCMPPS   $3, Z3, Z2, K2; \
	VCMPPS   $3, Z5, Z4, K3; \
	VCMPPS   $3, Z7, Z6, K4; \
	KORW     K2, K1, K1; \
	KORW     K4, K3, K3; \
	KORTESTW K3, K1; \
	JNZ      z32nan; \
z32store: \
	VMOVUPS Z0, (R8); \
	VMOVUPS Z1, 64(R8); \
	VMOVUPS Z2, (R10); \
	VMOVUPS Z3, 64(R10); \
	VMOVUPS Z4, (R11); \
	VMOVUPS Z5, 64(R11); \
	VMOVUPS Z6, (R12); \
	VMOVUPS Z7, 64(R12); \
	MOVB    $1, ok+56(FP); \
	VZEROUPPER; \
	RET; \
z32nan: \
	MOVB $0, ok+56(FP); \
	VZEROUPPER; \
	RET

// func tile32x4F32(kb int, ap, bp, c *float32, ldc int, alpha, beta float32, mode int) (ok bool)
TEXT ·tile32x4F32(SB), NOSPLIT, $0-57
	Z32START

z32mul:
	VMOVUPS      (SI), Z8
	VMOVUPS      64(SI), Z9
	VBROADCASTSS (DI), Z10
	VMULPS       Z10, Z8, Z11
	VADDPS       Z11, Z0, Z0
	VMULPS       Z10, Z9, Z12
	VADDPS       Z12, Z1, Z1
	VBROADCASTSS 4(DI), Z10
	VMULPS       Z10, Z8, Z11
	VADDPS       Z11, Z2, Z2
	VMULPS       Z10, Z9, Z12
	VADDPS       Z12, Z3, Z3
	VBROADCASTSS 8(DI), Z10
	VMULPS       Z10, Z8, Z11
	VADDPS       Z11, Z4, Z4
	VMULPS       Z10, Z9, Z12
	VADDPS       Z12, Z5, Z5
	VBROADCASTSS 12(DI), Z10
	VMULPS       Z10, Z8, Z11
	VADDPS       Z11, Z6, Z6
	VMULPS       Z10, Z9, Z12
	VADDPS       Z12, Z7, Z7
	ADDQ         $128, SI
	ADDQ         $16, DI
	DECQ         CX
	JNZ          z32mul

	Z32FINISH

// func tile32x4F32FMA(kb int, ap, bp, c *float32, ldc int, alpha, beta float32, mode int) (ok bool)
//
// tile32x4F32 with one fused multiply-add per product (VFMADD231PS): for
// binary16 operands only, whose products are exact in binary32
// (kernel_amd64.go). The write-back is tile32x4F32's.
TEXT ·tile32x4F32FMA(SB), NOSPLIT, $0-57
	Z32START

z32fma:
	VMOVUPS      (SI), Z8
	VMOVUPS      64(SI), Z9
	VBROADCASTSS (DI), Z10
	VFMADD231PS  Z10, Z8, Z0
	VFMADD231PS  Z10, Z9, Z1
	VBROADCASTSS 4(DI), Z10
	VFMADD231PS  Z10, Z8, Z2
	VFMADD231PS  Z10, Z9, Z3
	VBROADCASTSS 8(DI), Z10
	VFMADD231PS  Z10, Z8, Z4
	VFMADD231PS  Z10, Z9, Z5
	VBROADCASTSS 12(DI), Z10
	VFMADD231PS  Z10, Z8, Z6
	VFMADD231PS  Z10, Z9, Z7
	ADDQ         $128, SI
	ADDQ         $16, DI
	DECQ         CX
	JNZ          z32fma

	Z32FINISH

// func gemmKernel8x4F64(kb int, ap, bp, out *float64)
//
// ap: kb quads of 8 doubles; bp: kb quads of 4 doubles; out: 8x4
// column-major accumulator block.
TEXT ·gemmKernel8x4F64(SB), NOSPLIT, $0-32
	MOVQ   kb+0(FP), CX
	MOVQ   ap+8(FP), SI
	MOVQ   bp+16(FP), DI
	MOVQ   out+24(FP), DX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	TESTQ  CX, CX
	JZ     f64done

f64loop:
	VMOVUPD      (SI), Y8
	VMOVUPD      32(SI), Y9
	VBROADCASTSD (DI), Y10
	VMULPD       Y10, Y8, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y10, Y9, Y12
	VADDPD       Y12, Y1, Y1
	VBROADCASTSD 8(DI), Y10
	VMULPD       Y10, Y8, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       Y10, Y9, Y12
	VADDPD       Y12, Y3, Y3
	VBROADCASTSD 16(DI), Y10
	VMULPD       Y10, Y8, Y11
	VADDPD       Y11, Y4, Y4
	VMULPD       Y10, Y9, Y12
	VADDPD       Y12, Y5, Y5
	VBROADCASTSD 24(DI), Y10
	VMULPD       Y10, Y8, Y11
	VADDPD       Y11, Y6, Y6
	VMULPD       Y10, Y9, Y12
	VADDPD       Y12, Y7, Y7
	ADDQ         $64, SI
	ADDQ         $32, DI
	DECQ         CX
	JNZ          f64loop

f64done:
	VMOVUPD    Y0, (DX)
	VMOVUPD    Y1, 32(DX)
	VMOVUPD    Y2, 64(DX)
	VMOVUPD    Y3, 96(DX)
	VMOVUPD    Y4, 128(DX)
	VMOVUPD    Y5, 160(DX)
	VMOVUPD    Y6, 192(DX)
	VMOVUPD    Y7, 224(DX)
	VZEROUPPER
	RET
