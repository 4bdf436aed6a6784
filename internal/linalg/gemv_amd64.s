//go:build amd64

#include "textflag.h"

// func cpuidex(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func gemvTAVX(dst, w, x *float64, inDim, outDim int, bias *float64)
//
// dst[o] = dot(w[o*inDim : (o+1)*inDim], x[:inDim]) (+ bias[o] when bias is
// non-nil) for o = 0..outDim-1. outDim must be a multiple of 4 (the Go
// wrapper peels the remainder) and inDim must be >= 1.
//
// Outputs run in tiles of four weight rows streaming against one ymm-wide
// load of x per iteration: 5 loads feed 16 FLOPs of fused multiply-add,
// with four independent accumulator vectors hiding the FMA latency. The
// whole output loop lives in the kernel so the asm-call overhead is paid
// once per GemvT, not once per tile. The <4 element inDim tail runs as
// scalar FMAs against the already-reduced (and bias-added) sums in dst.
TEXT ·gemvTAVX(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ w+8(FP), R11
	MOVQ x+16(FP), R12
	MOVQ inDim+24(FP), DX
	MOVQ outDim+32(FP), R13
	MOVQ bias+40(FP), R14

	SHRQ $2, R13             // output tile count
	JZ   gtdone
	MOVQ DX, R15
	SHLQ $3, R15             // weight row stride in bytes

gttile:
	MOVQ R11, SI             // w row 0
	LEAQ (SI)(R15*1), R8     // w row 1
	LEAQ (R8)(R15*1), R9     // w row 2
	LEAQ (R9)(R15*1), R10    // w row 3
	MOVQ R12, CX             // x

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

	MOVQ DX, BX
	SHRQ $2, BX              // number of 4-wide blocks
	JZ   gtreduce

gtloop4:
	VMOVUPD     (CX), Y4
	VFMADD231PD (SI), Y4, Y0
	VFMADD231PD (R8), Y4, Y1
	VFMADD231PD (R9), Y4, Y2
	VFMADD231PD (R10), Y4, Y3
	ADDQ $32, CX
	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	DECQ BX
	JNZ  gtloop4

gtreduce:
	// Transpose-reduce the four accumulators into one [s0 s1 s2 s3].
	VHADDPD    Y1, Y0, Y5         // [a0+a1, b0+b1, a2+a3, b2+b3]
	VHADDPD    Y3, Y2, Y6         // [c0+c1, d0+d1, c2+c3, d2+d3]
	VPERM2F128 $0x20, Y6, Y5, Y7  // low halves
	VPERM2F128 $0x31, Y6, Y5, Y8  // high halves
	VADDPD     Y8, Y7, Y0

	TESTQ  R14, R14
	JZ     gtnobias
	VADDPD (R14), Y0, Y0
	ADDQ   $32, R14

gtnobias:
	VMOVUPD Y0, (DI)

	MOVQ DX, AX
	ANDQ $3, AX
	JZ   gtnext

gttail:
	VMOVSD      (CX), X4
	VMOVSD      (DI), X5
	VFMADD231SD (SI), X4, X5
	VMOVSD      X5, (DI)
	VMOVSD      8(DI), X5
	VFMADD231SD (R8), X4, X5
	VMOVSD      X5, 8(DI)
	VMOVSD      16(DI), X5
	VFMADD231SD (R9), X4, X5
	VMOVSD      X5, 16(DI)
	VMOVSD      24(DI), X5
	VFMADD231SD (R10), X4, X5
	VMOVSD      X5, 24(DI)
	ADDQ $8, CX
	ADDQ $8, SI
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	DECQ AX
	JNZ  gttail

gtnext:
	ADDQ $32, DI             // next 4 outputs
	LEAQ (R11)(R15*4), R11   // next 4 weight rows
	DECQ R13
	JNZ  gttile

gtdone:
	VZEROUPPER
	RET

// Replicated (4x8 byte) constants for the vector sigmoid kernel: sign
// mask, exp clamp bounds, Cody-Waite range-reduction constants, 1.0, the
// Taylor coefficients 1/k! for k=2..11, and the IEEE-754 exponent bias as
// four int64 lanes.
#define SIGN    0
#define CLAMPHI 32
#define CLAMPLO 64
#define LOG2E   96
#define LN2HI   128
#define LN2LO   160
#define ONE     192
#define C2      224
#define C3      256
#define C4      288
#define C5      320
#define C6      352
#define C7      384
#define C8      416
#define C9      448
#define C10     480
#define C11     512
#define BIAS    544

DATA sigconst<>+0(SB)/8, $0x8000000000000000
DATA sigconst<>+8(SB)/8, $0x8000000000000000
DATA sigconst<>+16(SB)/8, $0x8000000000000000
DATA sigconst<>+24(SB)/8, $0x8000000000000000
DATA sigconst<>+32(SB)/8, $0x4086200000000000 // 708.0
DATA sigconst<>+40(SB)/8, $0x4086200000000000
DATA sigconst<>+48(SB)/8, $0x4086200000000000
DATA sigconst<>+56(SB)/8, $0x4086200000000000
DATA sigconst<>+64(SB)/8, $0xc086200000000000 // -708.0
DATA sigconst<>+72(SB)/8, $0xc086200000000000
DATA sigconst<>+80(SB)/8, $0xc086200000000000
DATA sigconst<>+88(SB)/8, $0xc086200000000000
DATA sigconst<>+96(SB)/8, $0x3ff71547652b82fe // log2(e)
DATA sigconst<>+104(SB)/8, $0x3ff71547652b82fe
DATA sigconst<>+112(SB)/8, $0x3ff71547652b82fe
DATA sigconst<>+120(SB)/8, $0x3ff71547652b82fe
DATA sigconst<>+128(SB)/8, $0x3fe62e42fee00000 // ln2 high bits
DATA sigconst<>+136(SB)/8, $0x3fe62e42fee00000
DATA sigconst<>+144(SB)/8, $0x3fe62e42fee00000
DATA sigconst<>+152(SB)/8, $0x3fe62e42fee00000
DATA sigconst<>+160(SB)/8, $0x3dea39ef35793c76 // ln2 low bits
DATA sigconst<>+168(SB)/8, $0x3dea39ef35793c76
DATA sigconst<>+176(SB)/8, $0x3dea39ef35793c76
DATA sigconst<>+184(SB)/8, $0x3dea39ef35793c76
DATA sigconst<>+192(SB)/8, $0x3ff0000000000000 // 1.0
DATA sigconst<>+200(SB)/8, $0x3ff0000000000000
DATA sigconst<>+208(SB)/8, $0x3ff0000000000000
DATA sigconst<>+216(SB)/8, $0x3ff0000000000000
DATA sigconst<>+224(SB)/8, $0x3fe0000000000000 // 1/2!
DATA sigconst<>+232(SB)/8, $0x3fe0000000000000
DATA sigconst<>+240(SB)/8, $0x3fe0000000000000
DATA sigconst<>+248(SB)/8, $0x3fe0000000000000
DATA sigconst<>+256(SB)/8, $0x3fc5555555555555 // 1/3!
DATA sigconst<>+264(SB)/8, $0x3fc5555555555555
DATA sigconst<>+272(SB)/8, $0x3fc5555555555555
DATA sigconst<>+280(SB)/8, $0x3fc5555555555555
DATA sigconst<>+288(SB)/8, $0x3fa5555555555555 // 1/4!
DATA sigconst<>+296(SB)/8, $0x3fa5555555555555
DATA sigconst<>+304(SB)/8, $0x3fa5555555555555
DATA sigconst<>+312(SB)/8, $0x3fa5555555555555
DATA sigconst<>+320(SB)/8, $0x3f81111111111111 // 1/5!
DATA sigconst<>+328(SB)/8, $0x3f81111111111111
DATA sigconst<>+336(SB)/8, $0x3f81111111111111
DATA sigconst<>+344(SB)/8, $0x3f81111111111111
DATA sigconst<>+352(SB)/8, $0x3f56c16c16c16c17 // 1/6!
DATA sigconst<>+360(SB)/8, $0x3f56c16c16c16c17
DATA sigconst<>+368(SB)/8, $0x3f56c16c16c16c17
DATA sigconst<>+376(SB)/8, $0x3f56c16c16c16c17
DATA sigconst<>+384(SB)/8, $0x3f2a01a01a01a01a // 1/7!
DATA sigconst<>+392(SB)/8, $0x3f2a01a01a01a01a
DATA sigconst<>+400(SB)/8, $0x3f2a01a01a01a01a
DATA sigconst<>+408(SB)/8, $0x3f2a01a01a01a01a
DATA sigconst<>+416(SB)/8, $0x3efa01a01a01a01a // 1/8!
DATA sigconst<>+424(SB)/8, $0x3efa01a01a01a01a
DATA sigconst<>+432(SB)/8, $0x3efa01a01a01a01a
DATA sigconst<>+440(SB)/8, $0x3efa01a01a01a01a
DATA sigconst<>+448(SB)/8, $0x3ec71de3a556c734 // 1/9!
DATA sigconst<>+456(SB)/8, $0x3ec71de3a556c734
DATA sigconst<>+464(SB)/8, $0x3ec71de3a556c734
DATA sigconst<>+472(SB)/8, $0x3ec71de3a556c734
DATA sigconst<>+480(SB)/8, $0x3e927e4fb7789f5c // 1/10!
DATA sigconst<>+488(SB)/8, $0x3e927e4fb7789f5c
DATA sigconst<>+496(SB)/8, $0x3e927e4fb7789f5c
DATA sigconst<>+504(SB)/8, $0x3e927e4fb7789f5c
DATA sigconst<>+512(SB)/8, $0x3e5ae64567f544e4 // 1/11!
DATA sigconst<>+520(SB)/8, $0x3e5ae64567f544e4
DATA sigconst<>+528(SB)/8, $0x3e5ae64567f544e4
DATA sigconst<>+536(SB)/8, $0x3e5ae64567f544e4
DATA sigconst<>+544(SB)/8, $1023 // IEEE-754 double exponent bias
DATA sigconst<>+552(SB)/8, $1023
DATA sigconst<>+560(SB)/8, $1023
DATA sigconst<>+568(SB)/8, $1023
GLOBL sigconst<>(SB), RODATA|NOPTR, $576

// func gluAVX(dst, u, v *float64, n int)
//
// dst[i] = u[i] / (1 + exp(-v[i])) — the gated linear unit u ⊙ σ(v), with
// the gate multiply folded into the sigmoid's division — for i = 0..n-1;
// n must be a multiple of 8 (the Go wrapper peels the tail). Two
// interleaved 4-lane chains hide the FMA latency of the Horner
// polynomial.
//
// exp(t) is computed by Cody-Waite range reduction (t = k*ln2 + r,
// |r| <= ln2/2) and an 11-term Taylor polynomial in r, then scaled by 2^k
// built from integer exponent bits. t is clamped to [-708, 708] before
// reduction, so the gate saturates smoothly at 0/1 instead of
// overflowing; NaN gates also saturate (upstream feature validation
// rejects NaNs before they can reach a model forward pass). Gate relative
// error vs math.Exp is < 1e-11, far inside the 1e-9 inference-parity
// budget.
TEXT ·gluAVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ u+8(FP), BX
	MOVQ v+16(FP), SI
	MOVQ n+24(FP), DX

	SHRQ $3, DX
	JZ   sgdone

sgloop:
	// t = clamp(-x, -708, 708)
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y4
	VXORPD  sigconst<>+SIGN(SB), Y0, Y0
	VXORPD  sigconst<>+SIGN(SB), Y4, Y4
	VMINPD  sigconst<>+CLAMPHI(SB), Y0, Y0
	VMINPD  sigconst<>+CLAMPHI(SB), Y4, Y4
	VMAXPD  sigconst<>+CLAMPLO(SB), Y0, Y0
	VMAXPD  sigconst<>+CLAMPLO(SB), Y4, Y4

	// n = round(t * log2e); r = t - n*ln2hi - n*ln2lo
	VMULPD       sigconst<>+LOG2E(SB), Y0, Y2
	VMULPD       sigconst<>+LOG2E(SB), Y4, Y6
	VROUNDPD     $0, Y2, Y2
	VROUNDPD     $0, Y6, Y6
	VFNMADD231PD sigconst<>+LN2HI(SB), Y2, Y0
	VFNMADD231PD sigconst<>+LN2HI(SB), Y6, Y4
	VFNMADD231PD sigconst<>+LN2LO(SB), Y2, Y0
	VFNMADD231PD sigconst<>+LN2LO(SB), Y6, Y4

	// p = exp(r) by Horner over the Taylor coefficients. The chain stops
	// at r^9/9!: with |r| <= ln2/2 the first dropped term is below 1e-11
	// relative, still two decades inside the 1e-9 parity budget.
	VMOVUPD     sigconst<>+C9(SB), Y1
	VMOVUPD     sigconst<>+C9(SB), Y5
	VFMADD213PD sigconst<>+C8(SB), Y0, Y1
	VFMADD213PD sigconst<>+C8(SB), Y4, Y5
	VFMADD213PD sigconst<>+C7(SB), Y0, Y1
	VFMADD213PD sigconst<>+C7(SB), Y4, Y5
	VFMADD213PD sigconst<>+C6(SB), Y0, Y1
	VFMADD213PD sigconst<>+C6(SB), Y4, Y5
	VFMADD213PD sigconst<>+C5(SB), Y0, Y1
	VFMADD213PD sigconst<>+C5(SB), Y4, Y5
	VFMADD213PD sigconst<>+C4(SB), Y0, Y1
	VFMADD213PD sigconst<>+C4(SB), Y4, Y5
	VFMADD213PD sigconst<>+C3(SB), Y0, Y1
	VFMADD213PD sigconst<>+C3(SB), Y4, Y5
	VFMADD213PD sigconst<>+C2(SB), Y0, Y1
	VFMADD213PD sigconst<>+C2(SB), Y4, Y5
	VFMADD213PD sigconst<>+ONE(SB), Y0, Y1
	VFMADD213PD sigconst<>+ONE(SB), Y4, Y5
	VFMADD213PD sigconst<>+ONE(SB), Y0, Y1
	VFMADD213PD sigconst<>+ONE(SB), Y4, Y5

	// exp(t) = p * 2^n; 2^n assembled from integer exponent bits.
	VCVTPD2DQY Y2, X8
	VPMOVSXDQ  X8, Y8
	VPADDQ     sigconst<>+BIAS(SB), Y8, Y8
	VPSLLQ     $52, Y8, Y8
	VMULPD     Y8, Y1, Y1
	VCVTPD2DQY Y6, X9
	VPMOVSXDQ  X9, Y9
	VPADDQ     sigconst<>+BIAS(SB), Y9, Y9
	VPSLLQ     $52, Y9, Y9
	VMULPD     Y9, Y5, Y5

	// glu = u / (1 + exp(-v))
	VADDPD  sigconst<>+ONE(SB), Y1, Y1
	VADDPD  sigconst<>+ONE(SB), Y5, Y5
	VMOVUPD (BX), Y3
	VMOVUPD 32(BX), Y7
	VDIVPD  Y1, Y3, Y0
	VDIVPD  Y5, Y7, Y4
	VMOVUPD Y0, (DI)
	VMOVUPD Y4, 32(DI)

	ADDQ $64, SI
	ADDQ $64, BX
	ADDQ $64, DI
	DECQ DX
	JNZ  sgloop

sgdone:
	VZEROUPPER
	RET

// func scaleShiftReLUAVX(x, scale, shift *float64, n int)
//
// x[i] = max(0, x[i]*scale[i] + shift[i]) — an eval-mode batch-norm
// folded to one FMA per element, fused with the following ReLU. NaN
// propagates (max keeps the NaN operand in the value position), matching
// the scalar "if v < 0 { v = 0 }".
TEXT ·scaleShiftReLUAVX(SB), NOSPLIT, $0-32
	MOVQ   x+0(FP), DI
	MOVQ   scale+8(FP), SI
	MOVQ   shift+16(FP), CX
	MOVQ   n+24(FP), DX
	VXORPD Y0, Y0, Y0

	MOVQ DX, BX
	SHRQ $2, BX
	JZ   ssrtail

ssrloop:
	VMOVUPD     (DI), Y1
	VMOVUPD     (SI), Y2
	VFMADD213PD (CX), Y2, Y1
	VMAXPD      Y1, Y0, Y1
	VMOVUPD     Y1, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, CX
	DECQ BX
	JNZ  ssrloop

ssrtail:
	ANDQ $3, DX
	JZ   ssrdone

ssrtail1:
	VMOVSD      (DI), X1
	VMOVSD      (SI), X2
	VFMADD213SD (CX), X2, X1
	VMAXSD      X1, X0, X1
	VMOVSD      X1, (DI)
	ADDQ $8, DI
	ADDQ $8, SI
	ADDQ $8, CX
	DECQ DX
	JNZ  ssrtail1

ssrdone:
	VZEROUPPER
	RET

// func scaleShiftIntoAVX(dst, x, scale, shift *float64, n int)
//
// dst[i] = x[i]*scale[i] + shift[i] — one fused multiply-add per element
// (input standardization with a cached reciprocal-std scale).
TEXT ·scaleShiftIntoAVX(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ scale+16(FP), CX
	MOVQ shift+24(FP), R8
	MOVQ n+32(FP), DX

	MOVQ DX, BX
	SHRQ $2, BX
	JZ   ssitail

ssiloop:
	VMOVUPD     (SI), Y1
	VMOVUPD     (CX), Y2
	VFMADD213PD (R8), Y2, Y1
	VMOVUPD     Y1, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, CX
	ADDQ $32, R8
	DECQ BX
	JNZ  ssiloop

ssitail:
	ANDQ $3, DX
	JZ   ssidone

ssitail1:
	VMOVSD      (SI), X1
	VMOVSD      (CX), X2
	VFMADD213SD (R8), X2, X1
	VMOVSD      X1, (DI)
	ADDQ $8, DI
	ADDQ $8, SI
	ADDQ $8, CX
	ADDQ $8, R8
	DECQ DX
	JNZ  ssitail1

ssidone:
	VZEROUPPER
	RET

// func scaleMaxAVX(v, scale *float64, n int) float64
//
// v[i] *= scale[i] in place; returns max(v). n must be >= 4 (the Go
// wrapper handles smaller inputs). NaN handling follows MAXPD (the second
// operand wins), so callers must not feed NaNs — upstream validation
// guarantees that on the model hot path.
TEXT ·scaleMaxAVX(SB), NOSPLIT, $0-32
	MOVQ v+0(FP), DI
	MOVQ scale+8(FP), SI
	MOVQ n+16(FP), DX

	// First chunk seeds the running max.
	VMOVUPD (DI), Y1
	VMULPD  (SI), Y1, Y1
	VMOVUPD Y1, (DI)
	VMOVAPD Y1, Y0
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $4, DX

	MOVQ DX, BX
	SHRQ $2, BX
	JZ   smtail

smloop:
	VMOVUPD (DI), Y1
	VMULPD  (SI), Y1, Y1
	VMOVUPD Y1, (DI)
	VMAXPD  Y1, Y0, Y0
	ADDQ $32, DI
	ADDQ $32, SI
	DECQ BX
	JNZ  smloop

smtail:
	VEXTRACTF128 $1, Y0, X1
	VMAXPD       X1, X0, X0
	VSHUFPD      $1, X0, X0, X1
	VMAXSD       X1, X0, X0

	ANDQ $3, DX
	JZ   smdone

smtail1:
	VMOVSD (DI), X1
	VMULSD (SI), X1, X1
	VMOVSD X1, (DI)
	VMAXSD X1, X0, X0
	ADDQ $8, DI
	ADDQ $8, SI
	DECQ DX
	JNZ  smtail1

smdone:
	VZEROUPPER
	MOVSD X0, ret+24(FP)
	RET

// func maskGreaterAVX(v *float64, lim float64, n int) uint64
//
// Returns a bitmask with bit i set when v[i] > lim (ordered, quiet — NaN
// compares false, like the Go > operator), for the n &^ 3 prefix; the Go
// wrapper handles the tail lanes.
TEXT ·maskGreaterAVX(SB), NOSPLIT, $0-32
	MOVQ         v+0(FP), DI
	VBROADCASTSD lim+8(FP), Y0
	MOVQ         n+16(FP), DX

	XORQ R8, R8
	XORQ CX, CX
	MOVQ DX, BX
	SHRQ $2, BX
	JZ   mgdone

mgloop:
	VMOVUPD   (DI), Y1
	VCMPPD    $0x1e, Y0, Y1, Y2
	VMOVMSKPD Y2, AX
	SHLQ      CL, AX
	ORQ       AX, R8
	ADDQ $4, CX
	ADDQ $32, DI
	DECQ BX
	JNZ  mgloop

mgdone:
	VZEROUPPER
	MOVQ R8, ret+24(FP)
	RET

// func scaleAVX(alpha float64, x *float64, n int)
//
// x[i] *= alpha.
TEXT ·scaleAVX(SB), NOSPLIT, $0-24
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ         x+8(FP), DI
	MOVQ         n+16(FP), DX

	MOVQ DX, BX
	SHRQ $3, BX
	JZ   sl4

slloop:
	VMULPD  (DI), Y0, Y1
	VMULPD  32(DI), Y0, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ $64, DI
	DECQ BX
	JNZ  slloop

sl4:
	TESTQ $4, DX
	JZ    sltail
	VMULPD  (DI), Y0, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, DI

sltail:
	ANDQ $3, DX
	JZ   sldone

sltail1:
	VMULSD (DI), X0, X1
	VMOVSD X1, (DI)
	ADDQ $8, DI
	DECQ DX
	JNZ  sltail1

sldone:
	VZEROUPPER
	RET

// func reluAVX(x *float64, n int)
//
// x[i] = max(0, x[i]); NaN propagates like the scalar comparison.
TEXT ·reluAVX(SB), NOSPLIT, $0-16
	MOVQ   x+0(FP), DI
	MOVQ   n+8(FP), DX
	VXORPD Y0, Y0, Y0

	MOVQ DX, BX
	SHRQ $3, BX
	JZ   rlblock4

rlloop8:
	VMAXPD  (DI), Y0, Y1
	VMAXPD  32(DI), Y0, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ $64, DI
	DECQ BX
	JNZ  rlloop8

rlblock4:
	TESTQ $4, DX
	JZ    rltailsetup
	VMAXPD  (DI), Y0, Y1
	VMOVUPD Y1, (DI)
	ADDQ $32, DI

rltailsetup:
	ANDQ $3, DX
	JZ   rldone

rltail:
	VMAXSD  (DI), X0, X1
	VMOVSD  X1, (DI)
	ADDQ $8, DI
	DECQ DX
	JNZ  rltail

rldone:
	VZEROUPPER
	RET

// func dotAVX(a, b *float64, n int) float64
//
// Inner product with two 4-lane FMA accumulator chains; the <8 element
// tail accumulates scalar FMAs into the reduced sum.
TEXT ·dotAVX(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ n+16(FP), DX

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1

	MOVQ DX, BX
	SHRQ $3, BX
	JZ   dtblock4

dtloop8:
	VMOVUPD     (SI), Y2
	VMOVUPD     32(SI), Y3
	VFMADD231PD (DI), Y2, Y0
	VFMADD231PD 32(DI), Y3, Y1
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ BX
	JNZ  dtloop8

dtblock4:
	TESTQ $4, DX
	JZ    dtreduce
	VMOVUPD     (SI), Y2
	VFMADD231PD (DI), Y2, Y0
	ADDQ $32, SI
	ADDQ $32, DI

dtreduce:
	VADDPD       Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	VHADDPD      X0, X0, X0

	ANDQ $3, DX
	JZ   dtdone

dttail:
	VMOVSD      (SI), X2
	VFMADD231SD (DI), X2, X0
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ DX
	JNZ  dttail

dtdone:
	VZEROUPPER
	MOVSD X0, ret+24(FP)
	RET

// func axpyAVX(alpha float64, x, y *float64, n int)
//
// y[i] += alpha * x[i]. Per-element accumulation order matches the scalar
// loop; only the intermediate product rounding differs (fused).
TEXT ·axpyAVX(SB), NOSPLIT, $0-32
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), DI
	MOVQ         n+24(FP), DX

	MOVQ DX, BX
	SHRQ $3, BX
	JZ   axblock4

axloop8:
	VMOVUPD     (SI), Y1
	VMOVUPD     32(SI), Y2
	VFMADD213PD (DI), Y0, Y1
	VFMADD213PD 32(DI), Y0, Y2
	VMOVUPD     Y1, (DI)
	VMOVUPD     Y2, 32(DI)
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ BX
	JNZ  axloop8

axblock4:
	TESTQ $4, DX
	JZ    axtailsetup
	VMOVUPD     (SI), Y1
	VFMADD213PD (DI), Y0, Y1
	VMOVUPD     Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI

axtailsetup:
	ANDQ $3, DX
	JZ   axdone

axtail:
	VMOVSD      (SI), X1
	VMOVSD      (DI), X2
	VFMADD231SD X1, X0, X2
	VMOVSD      X2, (DI)
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ DX
	JNZ  axtail

axdone:
	VZEROUPPER
	RET

// func mulAVX(x, y *float64, n int)
//
// x[i] *= y[i]. n is a multiple of 4 (the Go wrapper finishes the tail).
TEXT ·mulAVX(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), DI
	MOVQ y+8(FP), SI
	MOVQ n+16(FP), DX

	MOVQ DX, BX
	SHRQ $3, BX
	JZ   mlblock4

mlloop8:
	VMOVUPD (DI), Y1
	VMOVUPD 32(DI), Y2
	VMULPD  (SI), Y1, Y1
	VMULPD  32(SI), Y2, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ BX
	JNZ  mlloop8

mlblock4:
	TESTQ $4, DX
	JZ    mldone
	VMOVUPD (DI), Y1
	VMULPD  (SI), Y1, Y1
	VMOVUPD Y1, (DI)

mldone:
	VZEROUPPER
	RET

// func mulAccAVX(acc, a, b *float64, n int)
//
// acc[i] += a[i]*b[i] (fused). n is a multiple of 4.
TEXT ·mulAccAVX(SB), NOSPLIT, $0-32
	MOVQ acc+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), CX
	MOVQ n+24(FP), DX

	MOVQ DX, BX
	SHRQ $3, BX
	JZ   mablock4

maloop8:
	VMOVUPD     (DI), Y1
	VMOVUPD     32(DI), Y2
	VMOVUPD     (SI), Y3
	VMOVUPD     32(SI), Y4
	VFMADD231PD (CX), Y3, Y1
	VFMADD231PD 32(CX), Y4, Y2
	VMOVUPD     Y1, (DI)
	VMOVUPD     Y2, 32(DI)
	ADDQ $64, SI
	ADDQ $64, CX
	ADDQ $64, DI
	DECQ BX
	JNZ  maloop8

mablock4:
	TESTQ $4, DX
	JZ    madone
	VMOVUPD     (DI), Y1
	VMOVUPD     (SI), Y3
	VFMADD231PD (CX), Y3, Y1
	VMOVUPD     Y1, (DI)

madone:
	VZEROUPPER
	RET

// func reluMaskAVX(x, mask *float64, n int)
//
// mask[i] = 1 if x[i] > 0 else 0; x is rectified by ANDing with the
// compare mask, so a NaN lane zeroes exactly like the scalar loop.
// n is a multiple of 4.
TEXT ·reluMaskAVX(SB), NOSPLIT, $0-24
	MOVQ   x+0(FP), DI
	MOVQ   mask+8(FP), SI
	MOVQ   n+16(FP), DX
	VXORPD Y14, Y14, Y14
	MOVQ   $0x3FF0000000000000, AX
	MOVQ   AX, X15
	VBROADCASTSD X15, Y15

	MOVQ DX, BX
	SHRQ $2, BX
	JZ   rmdone

rmloop:
	VMOVUPD (DI), Y1
	VCMPPD  $0x1e, Y14, Y1, Y2
	VANDPD  Y15, Y2, Y3
	VMOVUPD Y3, (SI)
	VANDPD  Y2, Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ BX
	JNZ  rmloop

rmdone:
	VZEROUPPER
	RET

// func sqDiffAccAVX(acc, x, mean *float64, n int)
//
// acc[i] += (x[i]-mean[i])^2 (fused square). n is a multiple of 4.
TEXT ·sqDiffAccAVX(SB), NOSPLIT, $0-32
	MOVQ acc+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ mean+16(FP), CX
	MOVQ n+24(FP), DX

	MOVQ DX, BX
	SHRQ $2, BX
	JZ   sddone

sdloop:
	VMOVUPD     (SI), Y1
	VSUBPD      (CX), Y1, Y1
	VMOVUPD     (DI), Y2
	VFMADD231PD Y1, Y1, Y2
	VMOVUPD     Y2, (DI)
	ADDQ $32, SI
	ADDQ $32, CX
	ADDQ $32, DI
	DECQ BX
	JNZ  sdloop

sddone:
	VZEROUPPER
	RET

// func bnApplyAVX(x, xhat, mean, invStd, gamma, beta *float64, n int)
//
// xhat[i] = (x[i]-mean[i])*invStd[i]; x[i] = gamma[i]*xhat[i]+beta[i]
// (the affine term fused). n is a multiple of 4.
TEXT ·bnApplyAVX(SB), NOSPLIT, $0-56
	MOVQ x+0(FP), DI
	MOVQ xhat+8(FP), SI
	MOVQ mean+16(FP), DX
	MOVQ invStd+24(FP), CX
	MOVQ gamma+32(FP), R8
	MOVQ beta+40(FP), R9
	MOVQ n+48(FP), R10

	MOVQ R10, BX
	SHRQ $2, BX
	JZ   badone

baloop:
	VMOVUPD     (DI), Y1
	VSUBPD      (DX), Y1, Y1
	VMULPD      (CX), Y1, Y1
	VMOVUPD     Y1, (SI)
	VMOVUPD     (R9), Y2
	VFMADD231PD (R8), Y1, Y2
	VMOVUPD     Y2, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, CX
	ADDQ $32, R8
	ADDQ $32, R9
	DECQ BX
	JNZ  baloop

badone:
	VZEROUPPER
	RET

// func bnBackApplyAVX(out, grad, xhat, c1, c2, c3 *float64, n int)
//
// out[i] = c1[i]*(g[i] - c2[i] - xhat[i]*c3[i]) (the xhat*c3 subtraction
// fused). n is a multiple of 4.
TEXT ·bnBackApplyAVX(SB), NOSPLIT, $0-56
	MOVQ out+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ xhat+16(FP), DX
	MOVQ c1+24(FP), CX
	MOVQ c2+32(FP), R8
	MOVQ c3+40(FP), R9
	MOVQ n+48(FP), R10

	MOVQ R10, BX
	SHRQ $2, BX
	JZ   bbdone

bbloop:
	VMOVUPD      (SI), Y1
	VSUBPD       (R8), Y1, Y1
	VMOVUPD      (DX), Y2
	VFNMADD231PD (R9), Y2, Y1
	VMULPD       (CX), Y1, Y1
	VMOVUPD      Y1, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, CX
	ADDQ $32, R8
	ADDQ $32, R9
	DECQ BX
	JNZ  bbloop

bbdone:
	VZEROUPPER
	RET

// func adamStepAVX(w, m, v, grad *float64, n int, b1, q1, b2, q2, invC1, invC2, lr, eps float64)
//
// One Adam update; q1 = 1-b1, q2 = 1-b2, invC1/invC2 the reciprocal bias
// corrections. The moment blends are fused; bias correction is
// reciprocal-multiply as in the scalar fallback. n is a multiple of 4.
TEXT ·adamStepAVX(SB), NOSPLIT, $0-104
	MOVQ w+0(FP), DI
	MOVQ m+8(FP), SI
	MOVQ v+16(FP), DX
	MOVQ grad+24(FP), CX
	MOVQ n+32(FP), R9

	VBROADCASTSD b1+40(FP), Y8
	VBROADCASTSD q1+48(FP), Y9
	VBROADCASTSD b2+56(FP), Y10
	VBROADCASTSD q2+64(FP), Y11
	VBROADCASTSD invC1+72(FP), Y12
	VBROADCASTSD invC2+80(FP), Y13
	VBROADCASTSD lr+88(FP), Y14
	VBROADCASTSD eps+96(FP), Y15

	MOVQ R9, BX
	SHRQ $2, BX
	JZ   asdone

asloop:
	VMOVUPD     (CX), Y1        // g
	VMULPD      (SI), Y8, Y2    // b1*m
	VFMADD231PD Y1, Y9, Y2      // m' = b1*m + (1-b1)*g
	VMOVUPD     Y2, (SI)
	VMULPD      (DX), Y10, Y3   // b2*v
	VMULPD      Y1, Y1, Y4      // g*g
	VFMADD231PD Y4, Y11, Y3     // v' = b2*v + (1-b2)*g*g
	VMOVUPD     Y3, (DX)
	VMULPD      Y13, Y3, Y5     // v'/c2
	VSQRTPD     Y5, Y5
	VADDPD      Y15, Y5, Y5     // sqrt(v'/c2) + eps
	VMULPD      Y12, Y2, Y6     // m'/c1
	VMULPD      Y14, Y6, Y6     // *lr
	VDIVPD      Y5, Y6, Y6
	VMOVUPD     (DI), Y7
	VSUBPD      Y6, Y7, Y7
	VMOVUPD     Y7, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, CX
	DECQ BX
	JNZ  asloop

asdone:
	VZEROUPPER
	RET

// func dropoutApplyAVX(x, mask, u *float64, keep, invKeep float64, n int)
//
// Where u[i] < keep: x[i] *= invKeep, mask[i] *= invKeep; elsewhere both
// zero (scale then AND with the compare mask). n is a multiple of 4.
TEXT ·dropoutApplyAVX(SB), NOSPLIT, $0-48
	MOVQ         x+0(FP), DI
	MOVQ         mask+8(FP), SI
	MOVQ         u+16(FP), CX
	VBROADCASTSD keep+24(FP), Y8
	VBROADCASTSD invKeep+32(FP), Y9
	MOVQ         n+40(FP), DX

	MOVQ DX, BX
	SHRQ $2, BX
	JZ   dadone

daloop:
	VMOVUPD (CX), Y1
	VCMPPD  $0x11, Y8, Y1, Y2
	VMOVUPD (SI), Y3
	VMULPD  Y9, Y3, Y3
	VANDPD  Y2, Y3, Y3
	VMOVUPD Y3, (SI)
	VMOVUPD (DI), Y4
	VMULPD  Y9, Y4, Y4
	VANDPD  Y2, Y4, Y4
	VMOVUPD Y4, (DI)
	ADDQ $32, CX
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ BX
	JNZ  daloop

dadone:
	VZEROUPPER
	RET

// func subAVX(dst, a, b *float64, n int)
//
// dst[i] = a[i] - b[i]. n is a multiple of 4 (the Go wrapper finishes the
// tail).
TEXT ·subAVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX

	MOVQ CX, BX
	SHRQ $3, BX
	JZ   sbblock4

sbloop8:
	VMOVUPD (SI), Y1
	VMOVUPD 32(SI), Y2
	VSUBPD  (DX), Y1, Y1
	VSUBPD  32(DX), Y2, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $64, DI
	DECQ BX
	JNZ  sbloop8

sbblock4:
	TESTQ $4, CX
	JZ    sbdone
	VMOVUPD (SI), Y1
	VSUBPD  (DX), Y1, Y1
	VMOVUPD Y1, (DI)

sbdone:
	VZEROUPPER
	RET
