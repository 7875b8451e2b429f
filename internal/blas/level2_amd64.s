//go:build amd64

#include "textflag.h"

// AVX2 level-2 kernels; level2_amd64.go has the contract. Two rules hold
// throughout:
//
//   - multiply and add are separate instructions, never FMA, and every output
//     element sees the Go loop's operations in the Go loop's order, so each
//     intermediate is rounded where the Go loop rounds it;
//   - no kernel stores a NaN. Every comparison below is VCMPP* $3
//     ("unordered"), true in a lane where either input is NaN; a set bit
//     sends the block back to the Go loop.
//
// Register use shared by the Gemv kernels: SI = column 0 of the block,
// DX = stride in bytes, R9 = 3·stride, R10 = column 4 (SI + 4·stride), so
// the eight columns are (SI), (SI)(DX*1), (SI)(DX*2), (SI)(R9*1) and the
// same four off R10.

// func gemvN8F64(rows int, a *float64, stride int, coef *[8]float64, y *float64) (done int)
//
// Four rows per turn, one lane each: with a_k the column and c_k (Y8..Y15)
// its coefficient,
//
//	t = y + a0·c0 + a1·c1 + a2·c2 + a3·c3     (first four-column block)
//	y = t + a4·c4 + a5·c5 + a6·c6 + a7·c7     (second)
//
// left to right. The chains of successive turns are independent and
// out-of-order execution overlaps them; unrolling bought nothing. done counts
// the rows stored.
TEXT ·gemvN8F64(SB), NOSPLIT, $0-48
	MOVQ         rows+0(FP), CX
	MOVQ         a+8(FP), SI
	MOVQ         stride+16(FP), DX
	MOVQ         coef+24(FP), R8
	MOVQ         y+32(FP), DI
	SHLQ         $3, DX
	LEAQ         (DX)(DX*2), R9
	LEAQ         (SI)(DX*4), R10
	VBROADCASTSD (R8), Y8
	VBROADCASTSD 8(R8), Y9
	VBROADCASTSD 16(R8), Y10
	VBROADCASTSD 24(R8), Y11
	VBROADCASTSD 32(R8), Y12
	VBROADCASTSD 40(R8), Y13
	VBROADCASTSD 48(R8), Y14
	VBROADCASTSD 56(R8), Y15
	XORQ         BX, BX            // rows stored
	SHRQ         $2, CX
	JZ           n64done

n64loop:
	VMOVUPD   (SI), Y1
	VMULPD    Y8, Y1, Y1
	VADDPD    (DI), Y1, Y0
	VMOVUPD   (SI)(DX*1), Y1
	VMULPD    Y9, Y1, Y1
	VADDPD    Y1, Y0, Y0
	VMOVUPD   (SI)(DX*2), Y1
	VMULPD    Y10, Y1, Y1
	VADDPD    Y1, Y0, Y0
	VMOVUPD   (SI)(R9*1), Y1
	VMULPD    Y11, Y1, Y1
	VADDPD    Y1, Y0, Y0
	VMOVUPD   (R10), Y1
	VMULPD    Y12, Y1, Y1
	VADDPD    Y1, Y0, Y0
	VMOVUPD   (R10)(DX*1), Y1
	VMULPD    Y13, Y1, Y1
	VADDPD    Y1, Y0, Y0
	VMOVUPD   (R10)(DX*2), Y1
	VMULPD    Y14, Y1, Y1
	VADDPD    Y1, Y0, Y0
	VMOVUPD   (R10)(R9*1), Y1
	VMULPD    Y15, Y1, Y1
	VADDPD    Y1, Y0, Y0
	VCMPPD    $3, Y0, Y0, Y2
	VMOVMSKPD Y2, AX
	TESTL     AX, AX
	JNZ       n64done
	VMOVUPD   Y0, (DI)
	ADDQ      $32, SI
	ADDQ      $32, R10
	ADDQ      $32, DI
	ADDQ      $4, BX
	DECQ      CX
	JNZ       n64loop

n64done:
	MOVQ BX, done+40(FP)
	VZEROUPPER
	RET

// func gemvT8F64(rows int, a *float64, stride int, x *float64, alpha float64, y *float64) (ok bool)
//
// Columns in the lanes: Y0 holds s_0..s_3 and Y1 holds s_4..s_7, each the
// running sum Σ a[i,k]·x[i] from +0 in ascending i. Two rows per turn: one
// register takes rows i, i+1 of column k in its low half and of column k+2
// in its high half and is multiplied by (x[i], x[i+1]) in both halves; an
// unpack pair turns two such registers into row i and row i+1 across four
// columns, which are added in that order. y[k] ← s_k·α + y[k] at the end.
TEXT ·gemvT8F64(SB), NOSPLIT, $0-49
	MOVQ         rows+0(FP), CX
	MOVQ         a+8(FP), SI
	MOVQ         stride+16(FP), DX
	MOVQ         x+24(FP), BX
	VBROADCASTSD alpha+32(FP), Y15
	MOVQ         y+40(FP), DI
	SHLQ         $3, DX
	LEAQ         (DX)(DX*2), R9
	LEAQ         (SI)(DX*4), R10
	VXORPD       Y0, Y0, Y0
	VXORPD       Y1, Y1, Y1
	MOVQ         CX, AX
	SHRQ         $1, AX
	JZ           t64odd

t64loop:
	VBROADCASTF128 (BX), Y2                   // x[i], x[i+1] in both halves
	VMOVUPD        (SI), X3
	VINSERTF128    $1, (SI)(DX*2), Y3, Y3     // column 0 | column 2
	VMOVUPD        (SI)(DX*1), X4
	VINSERTF128    $1, (SI)(R9*1), Y4, Y4     // column 1 | column 3
	VMOVUPD        (R10), X5
	VINSERTF128    $1, (R10)(DX*2), Y5, Y5    // column 4 | column 6
	VMOVUPD        (R10)(DX*1), X6
	VINSERTF128    $1, (R10)(R9*1), Y6, Y6    // column 5 | column 7
	VMULPD         Y2, Y3, Y3
	VMULPD         Y2, Y4, Y4
	VMULPD         Y2, Y5, Y5
	VMULPD         Y2, Y6, Y6
	VUNPCKLPD      Y4, Y3, Y7                 // row i, columns 0..3
	VUNPCKHPD      Y4, Y3, Y8                 // row i+1
	VUNPCKLPD      Y6, Y5, Y9                 // row i, columns 4..7
	VUNPCKHPD      Y6, Y5, Y10
	VADDPD         Y7, Y0, Y0
	VADDPD         Y9, Y1, Y1
	VADDPD         Y8, Y0, Y0
	VADDPD         Y10, Y1, Y1
	ADDQ           $16, SI
	ADDQ           $16, R10
	ADDQ           $16, BX
	DECQ           AX
	JNZ            t64loop

t64odd:
	TESTQ        $1, CX
	JZ           t64done
	VBROADCASTSD (BX), Y2
	VMOVSD       (SI), X3
	VMOVHPD      (SI)(DX*1), X3, X3
	VMOVSD       (SI)(DX*2), X4
	VMOVHPD      (SI)(R9*1), X4, X4
	VINSERTF128  $1, X4, Y3, Y3
	VMOVSD       (R10), X5
	VMOVHPD      (R10)(DX*1), X5, X5
	VMOVSD       (R10)(DX*2), X6
	VMOVHPD      (R10)(R9*1), X6, X6
	VINSERTF128  $1, X6, Y5, Y5
	VMULPD       Y2, Y3, Y3
	VMULPD       Y2, Y5, Y5
	VADDPD       Y3, Y0, Y0
	VADDPD       Y5, Y1, Y1

t64done:
	VMULPD    Y15, Y0, Y0
	VMULPD    Y15, Y1, Y1
	VADDPD    (DI), Y0, Y0
	VADDPD    32(DI), Y1, Y1
	VCMPPD    $3, Y1, Y0, Y2
	VMOVMSKPD Y2, AX
	TESTL     AX, AX
	SETEQ     ok+48(FP)
	JNZ       t64ret
	VMOVUPD   Y0, (DI)
	VMOVUPD   Y1, 32(DI)

t64ret:
	VZEROUPPER
	RET

// func gemvN8Wide(rows int, a *float32, stride int, coef *[8]float64, y *float64) (done int)
//
// gemvN8F64 on a float32 a: VCVTPS2PD widens four elements of a column as it
// loads them, exactly, and the multiplies and adds that follow are
// gemvN8F64's in gemvN8F64's order, so the bits are those of gemvN8F64 on
// the float64 copy of a. Each turn reads 16 bytes of a column instead of 32.
TEXT ·gemvN8Wide(SB), NOSPLIT, $0-48
	MOVQ         rows+0(FP), CX
	MOVQ         a+8(FP), SI
	MOVQ         stride+16(FP), DX
	MOVQ         coef+24(FP), R8
	MOVQ         y+32(FP), DI
	SHLQ         $2, DX
	LEAQ         (DX)(DX*2), R9
	LEAQ         (SI)(DX*4), R10
	VBROADCASTSD (R8), Y8
	VBROADCASTSD 8(R8), Y9
	VBROADCASTSD 16(R8), Y10
	VBROADCASTSD 24(R8), Y11
	VBROADCASTSD 32(R8), Y12
	VBROADCASTSD 40(R8), Y13
	VBROADCASTSD 48(R8), Y14
	VBROADCASTSD 56(R8), Y15
	XORQ         BX, BX            // rows stored
	SHRQ         $2, CX
	JZ           nwdone

nwloop:
	VCVTPS2PD (SI), Y1
	VMULPD    Y8, Y1, Y1
	VADDPD    (DI), Y1, Y0
	VCVTPS2PD (SI)(DX*1), Y1
	VMULPD    Y9, Y1, Y1
	VADDPD    Y1, Y0, Y0
	VCVTPS2PD (SI)(DX*2), Y1
	VMULPD    Y10, Y1, Y1
	VADDPD    Y1, Y0, Y0
	VCVTPS2PD (SI)(R9*1), Y1
	VMULPD    Y11, Y1, Y1
	VADDPD    Y1, Y0, Y0
	VCVTPS2PD (R10), Y1
	VMULPD    Y12, Y1, Y1
	VADDPD    Y1, Y0, Y0
	VCVTPS2PD (R10)(DX*1), Y1
	VMULPD    Y13, Y1, Y1
	VADDPD    Y1, Y0, Y0
	VCVTPS2PD (R10)(DX*2), Y1
	VMULPD    Y14, Y1, Y1
	VADDPD    Y1, Y0, Y0
	VCVTPS2PD (R10)(R9*1), Y1
	VMULPD    Y15, Y1, Y1
	VADDPD    Y1, Y0, Y0
	VCMPPD    $3, Y0, Y0, Y2
	VMOVMSKPD Y2, AX
	TESTL     AX, AX
	JNZ       nwdone
	VMOVUPD   Y0, (DI)
	ADDQ      $16, SI
	ADDQ      $16, R10
	ADDQ      $32, DI
	ADDQ      $4, BX
	DECQ      CX
	JNZ       nwloop

nwdone:
	MOVQ BX, done+40(FP)
	VZEROUPPER
	RET

// func gemvT8Wide(rows int, a *float32, stride int, x *float64, alpha float64, y *float64) (ok bool)
//
// gemvT8F64 on a float32 a. Every element is widened, exactly, by a
// VCVTPS2PD into the lane gemvT8F64 loads it into: rows i, i+1 of column k
// (a VCVTPS2PD from 8 bytes) and of column k+2 (another, VINSERTF128'd into
// the high half) per turn, and row i of four columns gathered by VINSERTPS
// for an odd last row. The multiplies, unpacks and adds are gemvT8F64's, so
// the bits are those of gemvT8F64 on the float64 copy of a.
TEXT ·gemvT8Wide(SB), NOSPLIT, $0-49
	MOVQ         rows+0(FP), CX
	MOVQ         a+8(FP), SI
	MOVQ         stride+16(FP), DX
	MOVQ         x+24(FP), BX
	VBROADCASTSD alpha+32(FP), Y15
	MOVQ         y+40(FP), DI
	SHLQ         $2, DX
	LEAQ         (DX)(DX*2), R9
	LEAQ         (SI)(DX*4), R10
	VXORPD       Y0, Y0, Y0
	VXORPD       Y1, Y1, Y1
	MOVQ         CX, AX
	SHRQ         $1, AX
	JZ           twodd

twloop:
	VBROADCASTF128 (BX), Y2                 // x[i], x[i+1] in both halves
	VCVTPS2PD      (SI), X3
	VCVTPS2PD      (SI)(DX*2), X7
	VINSERTF128    $1, X7, Y3, Y3           // column 0 | column 2
	VCVTPS2PD      (SI)(DX*1), X4
	VCVTPS2PD      (SI)(R9*1), X8
	VINSERTF128    $1, X8, Y4, Y4           // column 1 | column 3
	VCVTPS2PD      (R10), X5
	VCVTPS2PD      (R10)(DX*2), X9
	VINSERTF128    $1, X9, Y5, Y5           // column 4 | column 6
	VCVTPS2PD      (R10)(DX*1), X6
	VCVTPS2PD      (R10)(R9*1), X10
	VINSERTF128    $1, X10, Y6, Y6          // column 5 | column 7
	VMULPD         Y2, Y3, Y3
	VMULPD         Y2, Y4, Y4
	VMULPD         Y2, Y5, Y5
	VMULPD         Y2, Y6, Y6
	VUNPCKLPD      Y4, Y3, Y7               // row i, columns 0..3
	VUNPCKHPD      Y4, Y3, Y8               // row i+1
	VUNPCKLPD      Y6, Y5, Y9               // row i, columns 4..7
	VUNPCKHPD      Y6, Y5, Y10
	VADDPD         Y7, Y0, Y0
	VADDPD         Y9, Y1, Y1
	VADDPD         Y8, Y0, Y0
	VADDPD         Y10, Y1, Y1
	ADDQ           $8, SI
	ADDQ           $8, R10
	ADDQ           $16, BX
	DECQ           AX
	JNZ            twloop

twodd:
	TESTQ        $1, CX
	JZ           twdone
	VBROADCASTSD (BX), Y2
	VMOVSS       (SI), X3
	VINSERTPS    $0x10, (SI)(DX*1), X3, X3
	VINSERTPS    $0x20, (SI)(DX*2), X3, X3
	VINSERTPS    $0x30, (SI)(R9*1), X3, X3
	VCVTPS2PD    X3, Y3                     // row i, columns 0..3
	VMOVSS       (R10), X5
	VINSERTPS    $0x10, (R10)(DX*1), X5, X5
	VINSERTPS    $0x20, (R10)(DX*2), X5, X5
	VINSERTPS    $0x30, (R10)(R9*1), X5, X5
	VCVTPS2PD    X5, Y5                     // row i, columns 4..7
	VMULPD       Y2, Y3, Y3
	VMULPD       Y2, Y5, Y5
	VADDPD       Y3, Y0, Y0
	VADDPD       Y5, Y1, Y1

twdone:
	VMULPD    Y15, Y0, Y0
	VMULPD    Y15, Y1, Y1
	VADDPD    (DI), Y0, Y0
	VADDPD    32(DI), Y1, Y1
	VCMPPD    $3, Y1, Y0, Y2
	VMOVMSKPD Y2, AX
	TESTL     AX, AX
	SETEQ     ok+48(FP)
	JNZ       twret
	VMOVUPD   Y0, (DI)
	VMOVUPD   Y1, 32(DI)

twret:
	VZEROUPPER
	RET

// func gemvT8F32(rows int, a *float32, stride int, x *float32, alpha float32, y *float32) (ok bool)
//
// gemvT8F64 in float32 with all eight columns in one register: Y0 holds
// s_0..s_7. Four rows per turn: one register takes rows i..i+3 of column k in
// its low half and of column k+4 in its high half and is multiplied by
// x[i..i+3] in both halves; a 4×4 transpose inside each half turns four such
// registers into rows i, i+1, i+2, i+3 across the eight columns, which are
// added in that order.
TEXT ·gemvT8F32(SB), NOSPLIT, $0-49
	MOVQ         rows+0(FP), CX
	MOVQ         a+8(FP), SI
	MOVQ         stride+16(FP), DX
	MOVQ         x+24(FP), BX
	VBROADCASTSS alpha+32(FP), Y15
	MOVQ         y+40(FP), DI
	SHLQ         $2, DX
	LEAQ         (DX)(DX*2), R9
	LEAQ         (SI)(DX*4), R10
	VXORPS       Y0, Y0, Y0
	MOVQ         CX, AX
	SHRQ         $2, AX
	JZ           t32tail

t32loop:
	VBROADCASTF128 (BX), Y2                   // x[i..i+3] in both halves
	VMOVUPS        (SI), X3
	VINSERTF128    $1, (R10), Y3, Y3          // column 0 | column 4
	VMOVUPS        (SI)(DX*1), X4
	VINSERTF128    $1, (R10)(DX*1), Y4, Y4    // column 1 | column 5
	VMOVUPS        (SI)(DX*2), X5
	VINSERTF128    $1, (R10)(DX*2), Y5, Y5    // column 2 | column 6
	VMOVUPS        (SI)(R9*1), X6
	VINSERTF128    $1, (R10)(R9*1), Y6, Y6    // column 3 | column 7
	VMULPS         Y2, Y3, Y3
	VMULPS         Y2, Y4, Y4
	VMULPS         Y2, Y5, Y5
	VMULPS         Y2, Y6, Y6
	VUNPCKLPS      Y4, Y3, Y7                 // per half, column:row = 0:i 1:i 0:i+1 1:i+1
	VUNPCKHPS      Y4, Y3, Y8                 // 0:i+2 1:i+2 0:i+3 1:i+3
	VUNPCKLPS      Y6, Y5, Y9                 // 2:i 3:i 2:i+1 3:i+1
	VUNPCKHPS      Y6, Y5, Y10                // 2:i+2 3:i+2 2:i+3 3:i+3
	VUNPCKLPD      Y9, Y7, Y11                // row i, columns 0..7
	VUNPCKHPD      Y9, Y7, Y12                // row i+1
	VUNPCKLPD      Y10, Y8, Y13               // row i+2
	VUNPCKHPD      Y10, Y8, Y14               // row i+3
	VADDPS         Y11, Y0, Y0
	VADDPS         Y12, Y0, Y0
	VADDPS         Y13, Y0, Y0
	VADDPS         Y14, Y0, Y0
	ADDQ           $16, SI
	ADDQ           $16, R10
	ADDQ           $16, BX
	DECQ           AX
	JNZ            t32loop

t32tail:
	ANDQ $3, CX
	JZ   t32done

t32row:
	VBROADCASTSS (BX), Y2
	VMOVSS       (SI), X3
	VINSERTPS    $0x10, (SI)(DX*1), X3, X3
	VINSERTPS    $0x20, (SI)(DX*2), X3, X3
	VINSERTPS    $0x30, (SI)(R9*1), X3, X3
	VMOVSS       (R10), X4
	VINSERTPS    $0x10, (R10)(DX*1), X4, X4
	VINSERTPS    $0x20, (R10)(DX*2), X4, X4
	VINSERTPS    $0x30, (R10)(R9*1), X4, X4
	VINSERTF128  $1, X4, Y3, Y3
	VMULPS       Y2, Y3, Y3
	VADDPS       Y3, Y0, Y0
	ADDQ         $4, SI
	ADDQ         $4, R10
	ADDQ         $4, BX
	DECQ         CX
	JNZ          t32row

t32done:
	VMULPS    Y15, Y0, Y0
	VADDPS    (DI), Y0, Y0
	VCMPPS    $3, Y0, Y0, Y2
	VMOVMSKPS Y2, AX
	TESTL     AX, AX
	SETEQ     ok+48(FP)
	JNZ       t32ret
	VMOVUPS   Y0, (DI)

t32ret:
	VZEROUPPER
	RET

// func colUpdateF32(n int, x *float32, t float32, y *float32) (done int)
//
// y[i] ← x[i]·t + y[i], thirty-two and then eight elements per turn; done
// counts the elements stored, n&^7 unless a NaN stopped it.
TEXT ·colUpdateF32(SB), NOSPLIT, $0-40
	MOVQ         n+0(FP), CX
	MOVQ         x+8(FP), SI
	VBROADCASTSS t+16(FP), Y15
	MOVQ         y+24(FP), DI
	XORQ         BX, BX            // elements stored
	MOVQ         CX, DX
	SHRQ         $5, DX
	JZ           cu8

cu32loop:
	VMOVUPS   (SI), Y0
	VMOVUPS   32(SI), Y1
	VMOVUPS   64(SI), Y2
	VMOVUPS   96(SI), Y3
	VMULPS    Y15, Y0, Y0
	VMULPS    Y15, Y1, Y1
	VMULPS    Y15, Y2, Y2
	VMULPS    Y15, Y3, Y3
	VADDPS    (DI), Y0, Y0
	VADDPS    32(DI), Y1, Y1
	VADDPS    64(DI), Y2, Y2
	VADDPS    96(DI), Y3, Y3
	VCMPPS    $3, Y1, Y0, Y4
	VCMPPS    $3, Y3, Y2, Y5
	VORPS     Y5, Y4, Y4
	VMOVMSKPS Y4, AX
	TESTL     AX, AX
	JNZ       cudone
	VMOVUPS   Y0, (DI)
	VMOVUPS   Y1, 32(DI)
	VMOVUPS   Y2, 64(DI)
	VMOVUPS   Y3, 96(DI)
	ADDQ      $128, SI
	ADDQ      $128, DI
	ADDQ      $32, BX
	DECQ      DX
	JNZ       cu32loop

cu8:
	ANDQ $31, CX
	SHRQ $3, CX
	JZ   cudone

cu8loop:
	VMOVUPS   (SI), Y0
	VMULPS    Y15, Y0, Y0
	VADDPS    (DI), Y0, Y0
	VCMPPS    $3, Y0, Y0, Y4
	VMOVMSKPS Y4, AX
	TESTL     AX, AX
	JNZ       cudone
	VMOVUPS   Y0, (DI)
	ADDQ      $32, SI
	ADDQ      $32, DI
	ADDQ      $8, BX
	DECQ      CX
	JNZ       cu8loop

cudone:
	MOVQ BX, done+32(FP)
	VZEROUPPER
	RET
