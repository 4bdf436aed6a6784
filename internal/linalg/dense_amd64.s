//go:build amd64

#include "textflag.h"

// The Dense.Forward vector bodies. Both take one or more blocks of four
// rows, addressed as two row pairs so the Go side can point a 1–3 row tail
// at repeated rows (see blocked in dense.go):
//
//	row slot 0: x            row slot 1: x + xStep
//	row slot 2: x + xPair    row slot 3: x + xPair + xStep
//
// and likewise for dst; the next block starts at x + 2*xPair. Offsets are
// in elements. Every accumulator starts at its bias and takes one fused
// multiply-add per input in increasing order, which is the per-output
// operation sequence of the portable math.FMA body, so all bodies agree
// bitwise.

// func denseZMM(dst, x, wt, bias *float64, in, outPad, blocks, xStep, xPair, dstStep, dstPair int)
//
// AVX-512 body: a tile is 4 rows × 16 outputs in eight zmm accumulators.
// Per input i it loads two zmm of weights (one aligned cache line each)
// and broadcasts the four rows' x[i], feeding eight independent FMA chains
// — enough to cover the FMA latency on two ports. A trailing 8-output
// column block (outPad ≡ 8 mod 16) runs as a 4 × 8 tile.
TEXT ·denseZMM(SB), NOSPLIT, $0-88
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ outPad+40(FP), R12
	SHLQ $3, R12             // weight row stride, bytes
	MOVQ blocks+48(FP), R13
	MOVQ xStep+56(FP), R8
	SHLQ $3, R8
	MOVQ xPair+64(FP), R9
	SHLQ $3, R9
	MOVQ dstStep+72(FP), R10
	SHLQ $3, R10
	MOVQ dstPair+80(FP), R11
	SHLQ $3, R11

dzblock:
	XORQ AX, AX              // output column offset, bytes

dztile16:
	LEAQ 128(AX), BX
	CMPQ BX, R12
	JGT  dztile8             // fewer than 16 columns left

	MOVQ    bias+24(FP), BX
	VMOVUPD (BX)(AX*1), Z0
	VMOVUPD 64(BX)(AX*1), Z1
	VMOVAPD Z0, Z2
	VMOVAPD Z1, Z3
	VMOVAPD Z0, Z4
	VMOVAPD Z1, Z5
	VMOVAPD Z0, Z6
	VMOVAPD Z1, Z7

	MOVQ wt+16(FP), BX
	ADDQ AX, BX              // weights of this column block, input 0
	MOVQ SI, CX              // row pair A
	LEAQ (SI)(R9*1), DX      // row pair B
	MOVQ in+32(FP), R14

dzloop16:
	VMOVUPD      (BX), Z16
	VMOVUPD      64(BX), Z17
	VBROADCASTSD (CX), Z18
	VBROADCASTSD (CX)(R8*1), Z19
	VBROADCASTSD (DX), Z20
	VBROADCASTSD (DX)(R8*1), Z21
	VFMADD231PD  Z16, Z18, Z0
	VFMADD231PD  Z17, Z18, Z1
	VFMADD231PD  Z16, Z19, Z2
	VFMADD231PD  Z17, Z19, Z3
	VFMADD231PD  Z16, Z20, Z4
	VFMADD231PD  Z17, Z20, Z5
	VFMADD231PD  Z16, Z21, Z6
	VFMADD231PD  Z17, Z21, Z7
	ADDQ         R12, BX
	ADDQ         $8, CX
	ADDQ         $8, DX
	DECQ         R14
	JNZ          dzloop16

	LEAQ    (DI)(AX*1), CX
	VMOVUPD Z0, (CX)
	VMOVUPD Z1, 64(CX)
	VMOVUPD Z2, (CX)(R10*1)
	VMOVUPD Z3, 64(CX)(R10*1)
	ADDQ    R11, CX
	VMOVUPD Z4, (CX)
	VMOVUPD Z5, 64(CX)
	VMOVUPD Z6, (CX)(R10*1)
	VMOVUPD Z7, 64(CX)(R10*1)
	ADDQ    $128, AX
	JMP     dztile16

dztile8:
	CMPQ AX, R12
	JGE  dznext              // no columns left

	MOVQ    bias+24(FP), BX
	VMOVUPD (BX)(AX*1), Z0
	VMOVAPD Z0, Z2
	VMOVAPD Z0, Z4
	VMOVAPD Z0, Z6

	MOVQ wt+16(FP), BX
	ADDQ AX, BX
	MOVQ SI, CX
	LEAQ (SI)(R9*1), DX
	MOVQ in+32(FP), R14

dzloop8:
	VMOVUPD      (BX), Z16
	VBROADCASTSD (CX), Z18
	VBROADCASTSD (CX)(R8*1), Z19
	VBROADCASTSD (DX), Z20
	VBROADCASTSD (DX)(R8*1), Z21
	VFMADD231PD  Z16, Z18, Z0
	VFMADD231PD  Z16, Z19, Z2
	VFMADD231PD  Z16, Z20, Z4
	VFMADD231PD  Z16, Z21, Z6
	ADDQ         R12, BX
	ADDQ         $8, CX
	ADDQ         $8, DX
	DECQ         R14
	JNZ          dzloop8

	LEAQ    (DI)(AX*1), CX
	VMOVUPD Z0, (CX)
	VMOVUPD Z2, (CX)(R10*1)
	ADDQ    R11, CX
	VMOVUPD Z4, (CX)
	VMOVUPD Z6, (CX)(R10*1)

dznext:
	LEAQ (SI)(R9*2), SI      // next block of four rows
	LEAQ (DI)(R11*2), DI
	DECQ R13
	JNZ  dzblock

	VZEROUPPER
	RET

// func denseYMM(dst, x, wt, bias *float64, in, outPad, blocks, xStep, xPair, dstStep, dstPair int)
//
// AVX2 body: a tile is 4 rows × 8 outputs in eight ymm accumulators, two
// weight loads and four broadcasts per input — the same eight FMA chains
// at half the vector width. outPad is a multiple of 8, so there is no
// column remainder.
TEXT ·denseYMM(SB), NOSPLIT, $0-88
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ outPad+40(FP), R12
	SHLQ $3, R12
	MOVQ blocks+48(FP), R13
	MOVQ xStep+56(FP), R8
	SHLQ $3, R8
	MOVQ xPair+64(FP), R9
	SHLQ $3, R9
	MOVQ dstStep+72(FP), R10
	SHLQ $3, R10
	MOVQ dstPair+80(FP), R11
	SHLQ $3, R11

dyblock:
	XORQ AX, AX

dytile:
	MOVQ    bias+24(FP), BX
	VMOVUPD (BX)(AX*1), Y0
	VMOVUPD 32(BX)(AX*1), Y1
	VMOVAPD Y0, Y2
	VMOVAPD Y1, Y3
	VMOVAPD Y0, Y4
	VMOVAPD Y1, Y5
	VMOVAPD Y0, Y6
	VMOVAPD Y1, Y7

	MOVQ wt+16(FP), BX
	ADDQ AX, BX
	MOVQ SI, CX
	LEAQ (SI)(R9*1), DX
	MOVQ in+32(FP), R14

dyloop:
	VMOVUPD      (BX), Y8
	VMOVUPD      32(BX), Y9
	VBROADCASTSD (CX), Y10
	VBROADCASTSD (CX)(R8*1), Y11
	VBROADCASTSD (DX), Y12
	VBROADCASTSD (DX)(R8*1), Y13
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y11, Y3
	VFMADD231PD  Y8, Y12, Y4
	VFMADD231PD  Y9, Y12, Y5
	VFMADD231PD  Y8, Y13, Y6
	VFMADD231PD  Y9, Y13, Y7
	ADDQ         R12, BX
	ADDQ         $8, CX
	ADDQ         $8, DX
	DECQ         R14
	JNZ          dyloop

	LEAQ    (DI)(AX*1), CX
	VMOVUPD Y0, (CX)
	VMOVUPD Y1, 32(CX)
	VMOVUPD Y2, (CX)(R10*1)
	VMOVUPD Y3, 32(CX)(R10*1)
	ADDQ    R11, CX
	VMOVUPD Y4, (CX)
	VMOVUPD Y5, 32(CX)
	VMOVUPD Y6, (CX)(R10*1)
	VMOVUPD Y7, 32(CX)(R10*1)
	ADDQ    $64, AX
	CMPQ    AX, R12
	JLT     dytile

	LEAQ (SI)(R9*2), SI
	LEAQ (DI)(R11*2), DI
	DECQ R13
	JNZ  dyblock

	VZEROUPPER
	RET

// The float32 bodies of Dense32.Forward: the same four-row blocks, row
// addressing and per-output FMA chains as the float64 bodies above, at
// twice the lanes per register. OutPad is a multiple of 16 (one cache line
// of float32), and element offsets scale by 4 bytes.

// func dense32ZMM(dst, x, wt, bias *float32, in, outPad, blocks, xStep, xPair, dstStep, dstPair int)
//
// AVX-512 body: a tile is 4 rows × 32 outputs in eight zmm accumulators,
// two weight loads and four VBROADCASTSS per input. A trailing 16-output
// column block (outPad ≡ 16 mod 32) runs as a 4 × 16 tile.
TEXT ·dense32ZMM(SB), NOSPLIT, $0-88
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ outPad+40(FP), R12
	SHLQ $2, R12             // weight row stride, bytes
	MOVQ blocks+48(FP), R13
	MOVQ xStep+56(FP), R8
	SHLQ $2, R8
	MOVQ xPair+64(FP), R9
	SHLQ $2, R9
	MOVQ dstStep+72(FP), R10
	SHLQ $2, R10
	MOVQ dstPair+80(FP), R11
	SHLQ $2, R11

sz32block:
	XORQ AX, AX              // output column offset, bytes

sz32tile32:
	LEAQ 128(AX), BX
	CMPQ BX, R12
	JGT  sz32tile16          // fewer than 32 columns left

	MOVQ    bias+24(FP), BX
	VMOVUPS (BX)(AX*1), Z0
	VMOVUPS 64(BX)(AX*1), Z1
	VMOVAPS Z0, Z2
	VMOVAPS Z1, Z3
	VMOVAPS Z0, Z4
	VMOVAPS Z1, Z5
	VMOVAPS Z0, Z6
	VMOVAPS Z1, Z7

	MOVQ wt+16(FP), BX
	ADDQ AX, BX              // weights of this column block, input 0
	MOVQ SI, CX              // row pair A
	LEAQ (SI)(R9*1), DX      // row pair B
	MOVQ in+32(FP), R14

sz32loop32:
	VMOVUPS      (BX), Z16
	VMOVUPS      64(BX), Z17
	VBROADCASTSS (CX), Z18
	VBROADCASTSS (CX)(R8*1), Z19
	VBROADCASTSS (DX), Z20
	VBROADCASTSS (DX)(R8*1), Z21
	VFMADD231PS  Z16, Z18, Z0
	VFMADD231PS  Z17, Z18, Z1
	VFMADD231PS  Z16, Z19, Z2
	VFMADD231PS  Z17, Z19, Z3
	VFMADD231PS  Z16, Z20, Z4
	VFMADD231PS  Z17, Z20, Z5
	VFMADD231PS  Z16, Z21, Z6
	VFMADD231PS  Z17, Z21, Z7
	ADDQ         R12, BX
	ADDQ         $4, CX
	ADDQ         $4, DX
	DECQ         R14
	JNZ          sz32loop32

	LEAQ    (DI)(AX*1), CX
	VMOVUPS Z0, (CX)
	VMOVUPS Z1, 64(CX)
	VMOVUPS Z2, (CX)(R10*1)
	VMOVUPS Z3, 64(CX)(R10*1)
	ADDQ    R11, CX
	VMOVUPS Z4, (CX)
	VMOVUPS Z5, 64(CX)
	VMOVUPS Z6, (CX)(R10*1)
	VMOVUPS Z7, 64(CX)(R10*1)
	ADDQ    $128, AX
	JMP     sz32tile32

sz32tile16:
	CMPQ AX, R12
	JGE  sz32next            // no columns left

	MOVQ    bias+24(FP), BX
	VMOVUPS (BX)(AX*1), Z0
	VMOVAPS Z0, Z2
	VMOVAPS Z0, Z4
	VMOVAPS Z0, Z6

	MOVQ wt+16(FP), BX
	ADDQ AX, BX
	MOVQ SI, CX
	LEAQ (SI)(R9*1), DX
	MOVQ in+32(FP), R14

sz32loop16:
	VMOVUPS      (BX), Z16
	VBROADCASTSS (CX), Z18
	VBROADCASTSS (CX)(R8*1), Z19
	VBROADCASTSS (DX), Z20
	VBROADCASTSS (DX)(R8*1), Z21
	VFMADD231PS  Z16, Z18, Z0
	VFMADD231PS  Z16, Z19, Z2
	VFMADD231PS  Z16, Z20, Z4
	VFMADD231PS  Z16, Z21, Z6
	ADDQ         R12, BX
	ADDQ         $4, CX
	ADDQ         $4, DX
	DECQ         R14
	JNZ          sz32loop16

	LEAQ    (DI)(AX*1), CX
	VMOVUPS Z0, (CX)
	VMOVUPS Z2, (CX)(R10*1)
	ADDQ    R11, CX
	VMOVUPS Z4, (CX)
	VMOVUPS Z6, (CX)(R10*1)

sz32next:
	LEAQ (SI)(R9*2), SI      // next block of four rows
	LEAQ (DI)(R11*2), DI
	DECQ R13
	JNZ  sz32block

	VZEROUPPER
	RET

// func dense32YMM(dst, x, wt, bias *float32, in, outPad, blocks, xStep, xPair, dstStep, dstPair int)
//
// AVX2 body: a tile is 4 rows × 16 outputs in eight ymm accumulators, two
// weight loads and four broadcasts per input. outPad is a multiple of 16,
// so there is no column remainder.
TEXT ·dense32YMM(SB), NOSPLIT, $0-88
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ outPad+40(FP), R12
	SHLQ $2, R12
	MOVQ blocks+48(FP), R13
	MOVQ xStep+56(FP), R8
	SHLQ $2, R8
	MOVQ xPair+64(FP), R9
	SHLQ $2, R9
	MOVQ dstStep+72(FP), R10
	SHLQ $2, R10
	MOVQ dstPair+80(FP), R11
	SHLQ $2, R11

sy32block:
	XORQ AX, AX

sy32tile:
	MOVQ    bias+24(FP), BX
	VMOVUPS (BX)(AX*1), Y0
	VMOVUPS 32(BX)(AX*1), Y1
	VMOVAPS Y0, Y2
	VMOVAPS Y1, Y3
	VMOVAPS Y0, Y4
	VMOVAPS Y1, Y5
	VMOVAPS Y0, Y6
	VMOVAPS Y1, Y7

	MOVQ wt+16(FP), BX
	ADDQ AX, BX
	MOVQ SI, CX
	LEAQ (SI)(R9*1), DX
	MOVQ in+32(FP), R14

sy32loop:
	VMOVUPS      (BX), Y8
	VMOVUPS      32(BX), Y9
	VBROADCASTSS (CX), Y10
	VBROADCASTSS (CX)(R8*1), Y11
	VBROADCASTSS (DX), Y12
	VBROADCASTSS (DX)(R8*1), Y13
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y9, Y10, Y1
	VFMADD231PS  Y8, Y11, Y2
	VFMADD231PS  Y9, Y11, Y3
	VFMADD231PS  Y8, Y12, Y4
	VFMADD231PS  Y9, Y12, Y5
	VFMADD231PS  Y8, Y13, Y6
	VFMADD231PS  Y9, Y13, Y7
	ADDQ         R12, BX
	ADDQ         $4, CX
	ADDQ         $4, DX
	DECQ         R14
	JNZ          sy32loop

	LEAQ    (DI)(AX*1), CX
	VMOVUPS Y0, (CX)
	VMOVUPS Y1, 32(CX)
	VMOVUPS Y2, (CX)(R10*1)
	VMOVUPS Y3, 32(CX)(R10*1)
	ADDQ    R11, CX
	VMOVUPS Y4, (CX)
	VMOVUPS Y5, 32(CX)
	VMOVUPS Y6, (CX)(R10*1)
	VMOVUPS Y7, 32(CX)(R10*1)
	ADDQ    $64, AX
	CMPQ    AX, R12
	JLT     sy32tile

	LEAQ (SI)(R9*2), SI
	LEAQ (DI)(R11*2), DI
	DECQ R13
	JNZ  sy32block

	VZEROUPPER
	RET
