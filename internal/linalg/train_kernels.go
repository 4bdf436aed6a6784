package linalg

import (
	"fmt"
	"math"
)

// Training-loop kernels: the elementwise inner loops of the mlp/tabnet
// training hot path (ReLU masking, dropout-mask application, batch-norm
// statistics and normalization, the Adam optimizer update) as 4-lane AVX2
// kernels with portable scalar fallbacks. Each kernel covers the largest
// multiple-of-4 prefix; the Go wrapper finishes the tail, so the asm needs
// no scalar epilogue. Like the other kernels in this package, the AVX2 and
// scalar paths agree to float rounding (fused multiply-adds round once),
// not bitwise.

var (
	// mulKernel is x[i] *= y[i].
	mulKernel func(x, y *float64, n int)
	// mulAccKernel is acc[i] += a[i]*b[i].
	mulAccKernel func(acc, a, b *float64, n int)
	// subKernel is dst[i] = a[i] - b[i].
	subKernel func(dst, a, b *float64, n int)
	// reluMaskKernel is mask[i] = 1 if x[i] > 0 else 0; x[i] = max(x[i], 0).
	reluMaskKernel func(x, mask *float64, n int)
	// sqDiffAccKernel is acc[i] += (x[i]-mean[i])^2.
	sqDiffAccKernel func(acc, x, mean *float64, n int)
	// bnApplyKernel is xhat[i] = (x[i]-mean[i])*invStd[i];
	// x[i] = gamma[i]*xhat[i] + beta[i].
	bnApplyKernel func(x, xhat, mean, invStd, gamma, beta *float64, n int)
	// bnBackApplyKernel is out[i] = c1[i]*(g[i] - c2[i] - xhat[i]*c3[i]).
	bnBackApplyKernel func(out, g, xhat, c1, c2, c3 *float64, n int)
	// adamStepKernel applies the Adam update with folded constants
	// q1 = 1-b1, q2 = 1-b2 and the reciprocal bias corrections. They pass
	// by value: a pointer to a constants array would escape through the
	// kernel variable and cost one allocation per call.
	adamStepKernel func(w, m, v, g *float64, n int, b1, q1, b2, q2, invC1, invC2, lr, eps float64)
	// dropoutApplyKernel scales x and mask by invKeep where u < keep,
	// zeroing both elsewhere.
	dropoutApplyKernel func(x, mask, u *float64, keep, invKeep float64, n int)
)

// EMul computes the elementwise product x[i] *= y[i] — the fused
// ReLU x dropout backward mask application.
func EMul(x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: EMul length mismatch %d vs %d", len(x), len(y)))
	}
	i := 0
	if mulKernel != nil && len(x) >= 8 {
		i = len(x) &^ 3
		mulKernel(&x[0], &y[0], i)
	}
	for ; i < len(x); i++ {
		x[i] *= y[i]
	}
}

// ESub computes the elementwise difference dst[i] = a[i] - b[i] — the
// gbdt histogram-subtraction trick's inner loop, where dst/a/b are
// multi-hundred-KB per-node slabs and the loop is pure streaming bandwidth.
func ESub(dst, a, b []float64) {
	if len(dst) != len(a) || len(a) != len(b) {
		panic(fmt.Sprintf("linalg: ESub length mismatch %d/%d/%d", len(dst), len(a), len(b)))
	}
	i := 0
	if subKernel != nil && len(dst) >= 8 {
		i = len(dst) &^ 3
		subKernel(&dst[0], &a[0], &b[0], i)
	}
	for ; i < len(dst); i++ {
		dst[i] = a[i] - b[i]
	}
}

// MulAcc computes acc[i] += a[i]*b[i] — the Σ g·x̂ column reduction of the
// batch-norm backward pass, one row at a time.
func MulAcc(acc, a, b []float64) {
	if len(acc) != len(a) || len(a) != len(b) {
		panic(fmt.Sprintf("linalg: MulAcc length mismatch %d/%d/%d", len(acc), len(a), len(b)))
	}
	i := 0
	if mulAccKernel != nil && len(acc) >= 8 {
		i = len(acc) &^ 3
		mulAccKernel(&acc[0], &a[0], &b[0], i)
	}
	for ; i < len(acc); i++ {
		acc[i] += a[i] * b[i]
	}
}

// ReLUMask rectifies x in place while recording the keep mask: mask[i] = 1
// where x[i] > 0, else 0 with x[i] zeroed. The mask is float so dropout can
// fold its inverted scale into the same buffer and backward applies both in
// one EMul. A NaN activation gets mask 0 and x zeroed on both paths (the
// AVX2 kernel rectifies by ANDing with the compare mask).
func ReLUMask(x, mask []float64) {
	if len(x) != len(mask) {
		panic(fmt.Sprintf("linalg: ReLUMask length mismatch %d vs %d", len(x), len(mask)))
	}
	i := 0
	if reluMaskKernel != nil && len(x) >= 8 {
		i = len(x) &^ 3
		reluMaskKernel(&x[0], &mask[0], i)
	}
	for ; i < len(x); i++ {
		if x[i] > 0 {
			mask[i] = 1
		} else {
			mask[i] = 0
			x[i] = 0
		}
	}
}

// SqDiffAcc accumulates acc[i] += (x[i]-mean[i])² — the per-column variance
// reduction of the batch-norm forward pass, one row at a time.
func SqDiffAcc(acc, x, mean []float64) {
	if len(acc) != len(x) || len(x) != len(mean) {
		panic(fmt.Sprintf("linalg: SqDiffAcc length mismatch %d/%d/%d", len(acc), len(x), len(mean)))
	}
	i := 0
	if sqDiffAccKernel != nil && len(acc) >= 8 {
		i = len(acc) &^ 3
		sqDiffAccKernel(&acc[0], &x[0], &mean[0], i)
	}
	for ; i < len(acc); i++ {
		d := x[i] - mean[i]
		acc[i] += d * d
	}
}

// BNApply normalizes one row in place against the batch statistics while
// caching the normalized values: xhat[i] = (x[i]-mean[i])*invStd[i], then
// x[i] = gamma[i]*xhat[i] + beta[i].
func BNApply(x, xhat, mean, invStd, gamma, beta []float64) {
	n := len(x)
	if len(xhat) != n || len(mean) != n || len(invStd) != n || len(gamma) != n || len(beta) != n {
		panic("linalg: BNApply length mismatch")
	}
	i := 0
	if bnApplyKernel != nil && n >= 8 {
		i = n &^ 3
		bnApplyKernel(&x[0], &xhat[0], &mean[0], &invStd[0], &gamma[0], &beta[0], i)
	}
	for ; i < n; i++ {
		xh := (x[i] - mean[i]) * invStd[i]
		xhat[i] = xh
		x[i] = gamma[i]*xh + beta[i]
	}
}

// BNBackApply computes the batch-norm input gradient for one row from
// precomputed per-column coefficients: out[i] = c1[i]*(g[i] - c2[i] -
// xhat[i]*c3[i]), where c1 = γ·invStd, c2 = Σg/n, c3 = Σg·x̂/n.
func BNBackApply(out, g, xhat, c1, c2, c3 []float64) {
	n := len(out)
	if len(g) != n || len(xhat) != n || len(c1) != n || len(c2) != n || len(c3) != n {
		panic("linalg: BNBackApply length mismatch")
	}
	i := 0
	if bnBackApplyKernel != nil && n >= 8 {
		i = n &^ 3
		bnBackApplyKernel(&out[0], &g[0], &xhat[0], &c1[0], &c2[0], &c3[0], i)
	}
	for ; i < n; i++ {
		out[i] = c1[i] * (g[i] - c2[i] - xhat[i]*c3[i])
	}
}

// DropoutApply applies an inverted-scale dropout decided by the
// pre-drawn uniforms u: where u[i] < keep, x[i] and mask[i] scale by
// invKeep; elsewhere both drop to zero. Buffering the uniforms keeps the
// caller's RNG stream identical to a draw-inside-the-loop reference while
// the comparison and scaling run 4 lanes at a time.
func DropoutApply(x, mask, u []float64, keep, invKeep float64) {
	n := len(x)
	if len(mask) != n || len(u) != n {
		panic(fmt.Sprintf("linalg: DropoutApply length mismatch %d/%d/%d", n, len(mask), len(u)))
	}
	i := 0
	if dropoutApplyKernel != nil && n >= 8 {
		i = n &^ 3
		dropoutApplyKernel(&x[0], &mask[0], &u[0], keep, invKeep, i)
	}
	for ; i < n; i++ {
		if u[i] < keep {
			mask[i] *= invKeep
			x[i] *= invKeep
		} else {
			mask[i] = 0
			x[i] = 0
		}
	}
}

// AdamStep applies one Adam update over a tensor: m and v are the first and
// second moment estimates, g the gradient, c1/c2 the bias corrections
// (1-β1ᵗ, 1-β2ᵗ):
//
//	m[i] = b1*m[i] + (1-b1)*g[i]
//	v[i] = b2*v[i] + (1-b2)*g[i]²
//	w[i] -= lr * (m[i]/c1) / (sqrt(v[i]/c2) + eps)
//
// The bias corrections are applied as multiplications by precomputed
// reciprocals on every path (one rounding difference from the textbook
// divisions, far below the stochastic noise of the update itself).
func AdamStep(w, m, v, g []float64, b1, b2, c1, c2, lr, eps float64) {
	n := len(w)
	if len(m) != n || len(v) != n || len(g) != n {
		panic(fmt.Sprintf("linalg: AdamStep length mismatch %d/%d/%d/%d", n, len(m), len(v), len(g)))
	}
	q1, q2 := 1-b1, 1-b2
	invC1, invC2 := 1/c1, 1/c2
	i := 0
	if adamStepKernel != nil && n >= 8 {
		i = n &^ 3
		adamStepKernel(&w[0], &m[0], &v[0], &g[0], i, b1, q1, b2, q2, invC1, invC2, lr, eps)
	}
	for ; i < n; i++ {
		gv := g[i]
		mi := b1*m[i] + q1*gv
		vi := b2*v[i] + q2*gv*gv
		m[i] = mi
		v[i] = vi
		w[i] -= lr * (mi * invC1) / (math.Sqrt(vi*invC2) + eps)
	}
}
