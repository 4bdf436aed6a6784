//go:build amd64

package linalg

// cpuidex and xgetbv0 are implemented in gemv_amd64.s.
func cpuidex(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// denseZMM and denseYMM are the AVX-512 and AVX2 bodies of Dense.Forward
// (dense_amd64.s).
//
//go:noescape
func denseZMM(dst, x, wt, bias *float64, in, outPad, blocks, xStep, xPair, dstStep, dstPair int)

//go:noescape
func denseYMM(dst, x, wt, bias *float64, in, outPad, blocks, xStep, xPair, dstStep, dstPair int)

// dense32ZMM and dense32YMM are the AVX-512 and AVX2 bodies of
// Dense32.Forward (dense_amd64.s).
//
//go:noescape
func dense32ZMM(dst, x, wt, bias *float32, in, outPad, blocks, xStep, xPair, dstStep, dstPair int)

//go:noescape
func dense32YMM(dst, x, wt, bias *float32, in, outPad, blocks, xStep, xPair, dstStep, dstPair int)

// The float32 vector kernels (kernels32_amd64.s).
//
//go:noescape
func glu32RowsAVX(dst, u, v *float32, n, rows, dstStride, srcStride int)

//go:noescape
func scaleShiftInto32AVX(dst *float32, x, scale, shift *float64, n int)

//go:noescape
func scaleMaxMask32AVX(v, scale *float32, n int) (vmax float32, mask uint64)

//go:noescape
func scale32AVX(alpha float32, x *float32, n int)

//go:noescape
func relu32AVX(x *float32, n int)

//go:noescape
func axpy32AVX(alpha float32, x, y *float32, n int)

//go:noescape
func gemvTAVX(dst, w, x *float64, inDim, outDim int, bias *float64)

//go:noescape
func gluAVX(dst, u, v *float64, n int)

//go:noescape
func scaleShiftReLUAVX(x, scale, shift *float64, n int)

//go:noescape
func scaleShiftIntoAVX(dst, x, scale, shift *float64, n int)

//go:noescape
func scaleMaxAVX(v, scale *float64, n int) float64

//go:noescape
func maskGreaterAVX(v *float64, lim float64, n int) uint64

//go:noescape
func scaleAVX(alpha float64, x *float64, n int)

//go:noescape
func reluAVX(x *float64, n int)

//go:noescape
func dotAVX(a, b *float64, n int) float64

//go:noescape
func axpyAVX(alpha float64, x, y *float64, n int)

//go:noescape
func mulAVX(x, y *float64, n int)

//go:noescape
func mulAccAVX(acc, a, b *float64, n int)

//go:noescape
func subAVX(dst, a, b *float64, n int)

//go:noescape
func reluMaskAVX(x, mask *float64, n int)

//go:noescape
func sqDiffAccAVX(acc, x, mean *float64, n int)

//go:noescape
func bnApplyAVX(x, xhat, mean, invStd, gamma, beta *float64, n int)

//go:noescape
func bnBackApplyAVX(out, grad, xhat, c1, c2, c3 *float64, n int)

//go:noescape
func adamStepAVX(w, m, v, grad *float64, n int, b1, q1, b2, q2, invC1, invC2, lr, eps float64)

//go:noescape
func dropoutApplyAVX(x, mask, u *float64, keep, invKeep float64, n int)

// init installs the AVX2+FMA micro-kernels, float64 and float32, when the
// CPU and OS support them (AVX2 + FMA3 instruction sets, YMM state enabled
// via XGETBV), and on top of them the AVX-512 Dense.Forward bodies when the
// CPU has AVX512F and the OS saves the opmask and all 32 ZMM registers
// (XCR0 bits 5–7).
// Without support, the kernel pointers stay nil and the portable scalar
// paths run.
func init() {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return
	}
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
		avx2    = 1 << 5
		avx512f = 1 << 16
		// XCR0: SSE and AVX state (bits 1–2), plus opmask, ZMM_Hi256 and
		// Hi16_ZMM state (bits 5–7) for AVX-512.
		xcr0AVX    = 0x06
		xcr0AVX512 = 0xE6
	)
	_, _, c1, _ := cpuidex(1, 0)
	if c1&fma == 0 || c1&osxsave == 0 || c1&avx == 0 {
		return
	}
	xcr0, _ := xgetbv0()
	if xcr0&xcr0AVX != xcr0AVX {
		return
	}
	_, b7, _, _ := cpuidex(7, 0)
	if b7&avx2 == 0 {
		return
	}
	denseBodies = append(denseBodies, denseBody[float64]{name: "ymm", run: blocked(denseYMM)})
	dense32Bodies = append(dense32Bodies, denseBody[float32]{name: "ymm32", run: blocked(dense32YMM)})
	if b7&avx512f != 0 && xcr0&xcr0AVX512 == xcr0AVX512 {
		denseBodies = append(denseBodies, denseBody[float64]{name: "zmm", run: blocked(denseZMM)})
		dense32Bodies = append(dense32Bodies, denseBody[float32]{name: "zmm32", run: blocked(dense32ZMM)})
	}
	denseKernel = denseBodies[len(denseBodies)-1]
	dense32Kernel = dense32Bodies[len(dense32Bodies)-1]
	gemvTKernel = gemvTAVX
	gluKernel = gluAVX
	scaleShiftReLUKernel = scaleShiftReLUAVX
	scaleShiftIntoKernel = scaleShiftIntoAVX
	scaleMaxKernel = scaleMaxAVX
	maskGreaterKernel = maskGreaterAVX
	scaleKernel = scaleAVX
	reluKernel = reluAVX
	dotKernel = dotAVX
	axpyKernel = axpyAVX
	mulKernel = mulAVX
	mulAccKernel = mulAccAVX
	subKernel = subAVX
	reluMaskKernel = reluMaskAVX
	sqDiffAccKernel = sqDiffAccAVX
	bnApplyKernel = bnApplyAVX
	bnBackApplyKernel = bnBackApplyAVX
	adamStepKernel = adamStepAVX
	dropoutApplyKernel = dropoutApplyAVX
	glu32Kernel = glu32RowsAVX
	scaleShiftInto32Kernel = scaleShiftInto32AVX
	scaleMaxMask32Kernel = scaleMaxMask32AVX
	scale32Kernel = scale32AVX
	relu32Kernel = relu32AVX
	axpy32Kernel = axpy32AVX
}
