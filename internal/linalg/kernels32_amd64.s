//go:build amd64

#include "textflag.h"

// The float32 vector kernels of the coalition-batch inference path: AVX2
// bodies of GLUInto and GLURows (one kernel), ScaleShiftInto (float64 in,
// float32 out), ScaleMaxMask, Scale, ReLU and Axpy on []float32. All but
// ScaleMaxMask take a multiple of 8 elements (ScaleShiftInto: of 4) and
// leave the tail to their Go wrapper (matrix.go).

// Replicated (8x4 byte) constants of the float32 sigmoid: sign mask, exp
// clamp bounds, Cody-Waite range-reduction constants, 1.0, the Taylor
// coefficients 1/k! for k=2..7, and the IEEE-754 single exponent bias as
// eight int32 lanes; then one -Inf.
#define S32SIGN 0
#define S32CLAMPHI 32
#define S32CLAMPLO 64
#define S32LOG2E 96
#define S32LN2HI 128
#define S32LN2LO 160
#define S32ONE 192
#define S32C2 224
#define S32C3 256
#define S32C4 288
#define S32C5 320
#define S32C6 352
#define S32C7 384
#define S32BIAS 416
#define S32NEGINF 448

DATA sig32const<>+0(SB)/4, $0x80000000
DATA sig32const<>+4(SB)/4, $0x80000000
DATA sig32const<>+8(SB)/4, $0x80000000
DATA sig32const<>+12(SB)/4, $0x80000000
DATA sig32const<>+16(SB)/4, $0x80000000
DATA sig32const<>+20(SB)/4, $0x80000000
DATA sig32const<>+24(SB)/4, $0x80000000
DATA sig32const<>+28(SB)/4, $0x80000000
DATA sig32const<>+32(SB)/4, $0x42ae0000 // 87.0
DATA sig32const<>+36(SB)/4, $0x42ae0000
DATA sig32const<>+40(SB)/4, $0x42ae0000
DATA sig32const<>+44(SB)/4, $0x42ae0000
DATA sig32const<>+48(SB)/4, $0x42ae0000
DATA sig32const<>+52(SB)/4, $0x42ae0000
DATA sig32const<>+56(SB)/4, $0x42ae0000
DATA sig32const<>+60(SB)/4, $0x42ae0000
DATA sig32const<>+64(SB)/4, $0xc2ae0000 // -87.0
DATA sig32const<>+68(SB)/4, $0xc2ae0000
DATA sig32const<>+72(SB)/4, $0xc2ae0000
DATA sig32const<>+76(SB)/4, $0xc2ae0000
DATA sig32const<>+80(SB)/4, $0xc2ae0000
DATA sig32const<>+84(SB)/4, $0xc2ae0000
DATA sig32const<>+88(SB)/4, $0xc2ae0000
DATA sig32const<>+92(SB)/4, $0xc2ae0000
DATA sig32const<>+96(SB)/4, $0x3fb8aa3b // log2(e)
DATA sig32const<>+100(SB)/4, $0x3fb8aa3b
DATA sig32const<>+104(SB)/4, $0x3fb8aa3b
DATA sig32const<>+108(SB)/4, $0x3fb8aa3b
DATA sig32const<>+112(SB)/4, $0x3fb8aa3b
DATA sig32const<>+116(SB)/4, $0x3fb8aa3b
DATA sig32const<>+120(SB)/4, $0x3fb8aa3b
DATA sig32const<>+124(SB)/4, $0x3fb8aa3b
DATA sig32const<>+128(SB)/4, $0x3f318000 // ln2 high bits
DATA sig32const<>+132(SB)/4, $0x3f318000
DATA sig32const<>+136(SB)/4, $0x3f318000
DATA sig32const<>+140(SB)/4, $0x3f318000
DATA sig32const<>+144(SB)/4, $0x3f318000
DATA sig32const<>+148(SB)/4, $0x3f318000
DATA sig32const<>+152(SB)/4, $0x3f318000
DATA sig32const<>+156(SB)/4, $0x3f318000
DATA sig32const<>+160(SB)/4, $0xb95e8083 // ln2 - ln2 high bits
DATA sig32const<>+164(SB)/4, $0xb95e8083
DATA sig32const<>+168(SB)/4, $0xb95e8083
DATA sig32const<>+172(SB)/4, $0xb95e8083
DATA sig32const<>+176(SB)/4, $0xb95e8083
DATA sig32const<>+180(SB)/4, $0xb95e8083
DATA sig32const<>+184(SB)/4, $0xb95e8083
DATA sig32const<>+188(SB)/4, $0xb95e8083
DATA sig32const<>+192(SB)/4, $0x3f800000 // 1.0
DATA sig32const<>+196(SB)/4, $0x3f800000
DATA sig32const<>+200(SB)/4, $0x3f800000
DATA sig32const<>+204(SB)/4, $0x3f800000
DATA sig32const<>+208(SB)/4, $0x3f800000
DATA sig32const<>+212(SB)/4, $0x3f800000
DATA sig32const<>+216(SB)/4, $0x3f800000
DATA sig32const<>+220(SB)/4, $0x3f800000
DATA sig32const<>+224(SB)/4, $0x3f000000 // 1/2!
DATA sig32const<>+228(SB)/4, $0x3f000000
DATA sig32const<>+232(SB)/4, $0x3f000000
DATA sig32const<>+236(SB)/4, $0x3f000000
DATA sig32const<>+240(SB)/4, $0x3f000000
DATA sig32const<>+244(SB)/4, $0x3f000000
DATA sig32const<>+248(SB)/4, $0x3f000000
DATA sig32const<>+252(SB)/4, $0x3f000000
DATA sig32const<>+256(SB)/4, $0x3e2aaaab // 1/3!
DATA sig32const<>+260(SB)/4, $0x3e2aaaab
DATA sig32const<>+264(SB)/4, $0x3e2aaaab
DATA sig32const<>+268(SB)/4, $0x3e2aaaab
DATA sig32const<>+272(SB)/4, $0x3e2aaaab
DATA sig32const<>+276(SB)/4, $0x3e2aaaab
DATA sig32const<>+280(SB)/4, $0x3e2aaaab
DATA sig32const<>+284(SB)/4, $0x3e2aaaab
DATA sig32const<>+288(SB)/4, $0x3d2aaaab // 1/4!
DATA sig32const<>+292(SB)/4, $0x3d2aaaab
DATA sig32const<>+296(SB)/4, $0x3d2aaaab
DATA sig32const<>+300(SB)/4, $0x3d2aaaab
DATA sig32const<>+304(SB)/4, $0x3d2aaaab
DATA sig32const<>+308(SB)/4, $0x3d2aaaab
DATA sig32const<>+312(SB)/4, $0x3d2aaaab
DATA sig32const<>+316(SB)/4, $0x3d2aaaab
DATA sig32const<>+320(SB)/4, $0x3c088889 // 1/5!
DATA sig32const<>+324(SB)/4, $0x3c088889
DATA sig32const<>+328(SB)/4, $0x3c088889
DATA sig32const<>+332(SB)/4, $0x3c088889
DATA sig32const<>+336(SB)/4, $0x3c088889
DATA sig32const<>+340(SB)/4, $0x3c088889
DATA sig32const<>+344(SB)/4, $0x3c088889
DATA sig32const<>+348(SB)/4, $0x3c088889
DATA sig32const<>+352(SB)/4, $0x3ab60b61 // 1/6!
DATA sig32const<>+356(SB)/4, $0x3ab60b61
DATA sig32const<>+360(SB)/4, $0x3ab60b61
DATA sig32const<>+364(SB)/4, $0x3ab60b61
DATA sig32const<>+368(SB)/4, $0x3ab60b61
DATA sig32const<>+372(SB)/4, $0x3ab60b61
DATA sig32const<>+376(SB)/4, $0x3ab60b61
DATA sig32const<>+380(SB)/4, $0x3ab60b61
DATA sig32const<>+384(SB)/4, $0x39500d01 // 1/7!
DATA sig32const<>+388(SB)/4, $0x39500d01
DATA sig32const<>+392(SB)/4, $0x39500d01
DATA sig32const<>+396(SB)/4, $0x39500d01
DATA sig32const<>+400(SB)/4, $0x39500d01
DATA sig32const<>+404(SB)/4, $0x39500d01
DATA sig32const<>+408(SB)/4, $0x39500d01
DATA sig32const<>+412(SB)/4, $0x39500d01
DATA sig32const<>+416(SB)/4, $127 // IEEE-754 single exponent bias
DATA sig32const<>+420(SB)/4, $127
DATA sig32const<>+424(SB)/4, $127
DATA sig32const<>+428(SB)/4, $127
DATA sig32const<>+432(SB)/4, $127
DATA sig32const<>+436(SB)/4, $127
DATA sig32const<>+440(SB)/4, $127
DATA sig32const<>+444(SB)/4, $127
DATA sig32const<>+448(SB)/4, $0xff800000 // -Inf
GLOBL sig32const<>(SB), RODATA|NOPTR, $452

// func scaleShiftInto32AVX(dst *float32, x, scale, shift *float64, n int)
//
// dst[i] = float32(x[i]*scale[i] + shift[i]): the float64 standardization
// FMA of scaleShiftIntoAVX, rounded once to float32. n is a multiple of 4.
TEXT ·scaleShiftInto32AVX(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ scale+16(FP), CX
	MOVQ shift+24(FP), R8
	MOVQ n+32(FP), DX

	SHRQ $2, DX
	JZ   ssi32done

ssi32loop:
	VMOVUPD     (SI), Y1
	VMOVUPD     (CX), Y2
	VFMADD213PD (R8), Y2, Y1
	VCVTPD2PSY  Y1, X1
	VMOVUPS     X1, (DI)
	ADDQ $16, DI
	ADDQ $32, SI
	ADDQ $32, CX
	ADDQ $32, R8
	DECQ DX
	JNZ  ssi32loop

ssi32done:
	VZEROUPPER
	RET

// func scaleMaxMask32AVX(v, scale *float32, n int) (vmax float32, mask uint64)
//
// v[i] *= scale[i] in place for i < n (1 <= n <= 64); returns vmax, the
// maximum of the scaled values, and the mask of those greater than
// vmax - 1 (ordered, quiet: NaN compares false) — sparsemax's candidate
// set, one pass to scale and find the maximum, one to compare. Each step
// is the correctly rounded float32 operation the scalar code performs, so
// the results are bitwise those of ScaleMax followed by MaskGreater.
TEXT ·scaleMaxMask32AVX(SB), NOSPLIT, $0-40
	MOVQ v+0(FP), DI
	MOVQ scale+8(FP), SI
	MOVQ n+16(FP), DX

	VBROADCASTSS sig32const<>+S32NEGINF(SB), Y0
	MOVQ DI, R9
	MOVQ DX, BX
	SHRQ $3, BX
	JZ   smm32reduce

smm32loop:
	VMOVUPS (DI), Y1
	VMULPS  (SI), Y1, Y1
	VMOVUPS Y1, (DI)
	VMAXPS  Y1, Y0, Y0
	ADDQ $32, DI
	ADDQ $32, SI
	DECQ BX
	JNZ  smm32loop

smm32reduce:
	VEXTRACTF128 $1, Y0, X1
	VMAXPS       X1, X0, X0
	VSHUFPS      $0x4e, X0, X0, X1
	VMAXPS       X1, X0, X0
	VSHUFPS      $0xb1, X0, X0, X1
	VMAXPS       X1, X0, X0

	MOVQ DX, BX
	ANDQ $7, BX
	JZ   smm32mask

smm32tail:
	VMOVSS (DI), X1
	VMULSS (SI), X1, X1
	VMOVSS X1, (DI)
	VMAXSS X1, X0, X0
	ADDQ $4, DI
	ADDQ $4, SI
	DECQ BX
	JNZ  smm32tail

smm32mask:
	VMOVSS       X0, vmax+24(FP)
	VSUBSS       sig32const<>+S32ONE(SB), X0, X2
	VBROADCASTSS X2, Y2
	MOVQ         R9, DI
	XORQ         R8, R8
	XORQ         CX, CX
	MOVQ         DX, BX
	SHRQ         $3, BX
	JZ           smm32masktail

smm32maskloop:
	VMOVUPS   (DI), Y1
	VCMPPS    $0x1e, Y2, Y1, Y3
	VMOVMSKPS Y3, AX
	SHLQ      CL, AX
	ORQ       AX, R8
	ADDQ $8, CX
	ADDQ $32, DI
	DECQ BX
	JNZ  smm32maskloop

smm32masktail:
	ANDQ $7, DX
	JZ   smm32done

smm32masktail1:
	VMOVSS    (DI), X1
	VCMPSS    $0x1e, X2, X1, X3
	VMOVMSKPS X3, AX
	ANDQ      $1, AX
	SHLQ      CL, AX
	ORQ       AX, R8
	INCQ CX
	ADDQ $4, DI
	DECQ DX
	JNZ  smm32masktail1

smm32done:
	VZEROUPPER
	MOVQ R8, mask+32(FP)
	RET

// func scale32AVX(alpha float32, x *float32, n int)
//
// x[i] *= alpha, n a multiple of 8.
TEXT ·scale32AVX(SB), NOSPLIT, $0-24
	VBROADCASTSS alpha+0(FP), Y0
	MOVQ         x+8(FP), DI
	MOVQ         n+16(FP), DX

	SHRQ $3, DX
	JZ   sl32done

sl32loop:
	VMULPS  (DI), Y0, Y1
	VMOVUPS Y1, (DI)
	ADDQ $32, DI
	DECQ DX
	JNZ  sl32loop

sl32done:
	VZEROUPPER
	RET

// func relu32AVX(x *float32, n int)
//
// x[i] = max(0, x[i]), n a multiple of 8; NaN propagates.
TEXT ·relu32AVX(SB), NOSPLIT, $0-16
	MOVQ   x+0(FP), DI
	MOVQ   n+8(FP), DX
	VXORPS Y0, Y0, Y0

	SHRQ $3, DX
	JZ   rl32done

rl32loop:
	VMAXPS  (DI), Y0, Y1
	VMOVUPS Y1, (DI)
	ADDQ $32, DI
	DECQ DX
	JNZ  rl32loop

rl32done:
	VZEROUPPER
	RET

// func axpy32AVX(alpha float32, x, y *float32, n int)
//
// y[i] += alpha * x[i] (fused), n a multiple of 8.
TEXT ·axpy32AVX(SB), NOSPLIT, $0-32
	VBROADCASTSS alpha+0(FP), Y0
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), DI
	MOVQ         n+24(FP), DX

	SHRQ $3, DX
	JZ   ax32done

ax32loop:
	VMOVUPS     (SI), Y1
	VFMADD213PS (DI), Y0, Y1
	VMOVUPS     Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ DX
	JNZ  ax32loop

ax32done:
	VZEROUPPER
	RET

// func glu32RowsAVX(dst, u, v *float32, n, rows, dstStride, srcStride int)
//
// dst[r*dstStride+i] = u[r*srcStride+i] / (1 + exp(-v[r*srcStride+i])) in
// float32 for i < n, n a multiple of 8, over rows rows: gluAVX's algorithm
// at float32 precision, one call keeping every row's independent chains in
// flight together. t = -v is clamped to [-87, 87] (2^±126 stays a normal
// float32), reduced by Cody-Waite (t = k*ln2 + r, |r| <= ln2/2), and
// exp(r) is the degree-7 Taylor polynomial, whose first dropped term is
// below 1e-8 relative — under float32's own rounding.
TEXT ·glu32RowsAVX(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ u+8(FP), BX
	MOVQ v+16(FP), R12
	MOVQ n+24(FP), R8
	MOVQ rows+32(FP), R9
	MOVQ dstStride+40(FP), R10
	SHLQ $2, R10
	MOVQ srcStride+48(FP), R11
	SHLQ $2, R11
	SHRQ $3, R8
	JZ   gr32done
	TESTQ R9, R9
	JZ   gr32done
	SUBQ BX, R12             // offset of v from u, bytes

gr32row:
	MOVQ DI, CX              // dst row
	MOVQ BX, SI              // u of this row
	MOVQ R8, DX

gr32loop:
	VMOVUPS (SI)(R12*1), Y0
	VXORPS  sig32const<>+S32SIGN(SB), Y0, Y0
	VMINPS  sig32const<>+S32CLAMPHI(SB), Y0, Y0
	VMAXPS  sig32const<>+S32CLAMPLO(SB), Y0, Y0

	VMULPS       sig32const<>+S32LOG2E(SB), Y0, Y2
	VROUNDPS     $0, Y2, Y2
	VFNMADD231PS sig32const<>+S32LN2HI(SB), Y2, Y0
	VFNMADD231PS sig32const<>+S32LN2LO(SB), Y2, Y0

	VMOVUPS     sig32const<>+S32C7(SB), Y1
	VFMADD213PS sig32const<>+S32C6(SB), Y0, Y1
	VFMADD213PS sig32const<>+S32C5(SB), Y0, Y1
	VFMADD213PS sig32const<>+S32C4(SB), Y0, Y1
	VFMADD213PS sig32const<>+S32C3(SB), Y0, Y1
	VFMADD213PS sig32const<>+S32C2(SB), Y0, Y1
	VFMADD213PS sig32const<>+S32ONE(SB), Y0, Y1
	VFMADD213PS sig32const<>+S32ONE(SB), Y0, Y1

	VCVTPS2DQ Y2, Y8
	VPADDD    sig32const<>+S32BIAS(SB), Y8, Y8
	VPSLLD    $23, Y8, Y8
	VMULPS    Y8, Y1, Y1

	VADDPS  sig32const<>+S32ONE(SB), Y1, Y1
	VMOVUPS (SI), Y3
	VDIVPS  Y1, Y3, Y0
	VMOVUPS Y0, (CX)

	ADDQ $32, SI
	ADDQ $32, CX
	DECQ DX
	JNZ  gr32loop

	ADDQ R10, DI
	ADDQ R11, BX
	DECQ R9
	JNZ  gr32row

gr32done:
	VZEROUPPER
	RET
