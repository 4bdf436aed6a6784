package linalg

import "fmt"

// Row-pass primitives of TabNet's per-sample training: Axpy2 fuses a pair
// of rank-1 contributions into one pass over the destination row — two
// FMAs per load/store instead of one — and ColSumsAcc is the bias-gradient
// column reduction the MLP's mini-batch backward also uses. The MLP's three
// dense products run on Dense.Forward (see mlp/backprop.go).

// axpy2Kernel is the paired 4-lane FMA y += a0*x0 + a1*x1 (one pass over
// y). Installed by the amd64 init alongside the other micro-kernels.
var axpy2Kernel func(a0, a1 float64, x0, x1, y *float64, n int)

// Axpy2 computes y += a0*x0 + a1*x1 in a single pass over y. Per element
// the a0 term is added before the a1 term on every path; the AVX2 kernel
// fuses each multiply-add, so the builds agree to rounding, not bitwise.
func Axpy2(a0, a1 float64, x0, x1, y []float64) {
	if len(x0) != len(y) || len(x1) != len(y) {
		panic(fmt.Sprintf("linalg: Axpy2 length mismatch %d/%d vs %d", len(x0), len(x1), len(y)))
	}
	if axpy2Kernel != nil && len(y) >= 8 {
		axpy2Kernel(a0, a1, &x0[0], &x1[0], &y[0], len(y))
		return
	}
	for i, v := range y {
		v += a0 * x0[i]
		v += a1 * x1[i]
		y[i] = v
	}
}

// ColSumsAcc accumulates the column sums of the row-major m x n matrix a
// into dst (the bias-gradient reduction db += Σ_i G[i]).
func ColSumsAcc(dst, a []float64, m, n int) {
	if len(dst) < n || len(a) < m*n {
		panic(fmt.Sprintf("linalg: ColSumsAcc shapes dst=%d a=%d for m=%d n=%d", len(dst), len(a), m, n))
	}
	for i := 0; i < m; i++ {
		row := a[i*n : i*n+n]
		for j, v := range row {
			dst[j] += v
		}
	}
}
