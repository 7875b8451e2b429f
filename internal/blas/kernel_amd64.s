//go:build amd64

#include "textflag.h"

// func gemmKernel16x4F32(kb int, ap, bp, out *float32)
//
// ap: kb quads of 16 floats (one micro-panel column per k index)
// bp: kb quads of 4 floats
// out: 16x4 column-major accumulator block
TEXT ·gemmKernel16x4F32(SB), NOSPLIT, $0-32
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
	JZ     f32done

f32loop:
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
	JNZ          f32loop

f32done:
	VMOVUPS    Y0, (DX)
	VMOVUPS    Y1, 32(DX)
	VMOVUPS    Y2, 64(DX)
	VMOVUPS    Y3, 96(DX)
	VMOVUPS    Y4, 128(DX)
	VMOVUPS    Y5, 160(DX)
	VMOVUPS    Y6, 192(DX)
	VMOVUPS    Y7, 224(DX)
	VZEROUPPER
	RET

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
