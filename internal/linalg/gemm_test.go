package linalg

import (
	"math/rand"
	"testing"
)

// The row-pass training primitives against naive loops. Tolerances follow
// the kernels_test.go convention: the AVX2 build fuses multiply-adds and
// pairs rank-1 terms, so agreement is to rounding.

func TestAxpy2MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 3, 4, 7, 8, 9, 12, 15, 16, 45, 64, 100} {
		x0 := make([]float64, n)
		x1 := make([]float64, n)
		y := make([]float64, n)
		want := make([]float64, n)
		a0, a1 := rng.NormFloat64(), rng.NormFloat64()
		for i := range y {
			x0[i], x1[i], y[i] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
			want[i] = y[i] + a0*x0[i] + a1*x1[i]
		}
		Axpy2(a0, a1, x0, x1, y)
		for i := range y {
			if !relClose(y[i], want[i], 1e-12) {
				t.Fatalf("n=%d y[%d]=%v want %v", n, i, y[i], want[i])
			}
		}
	}
}

func TestColSumsAccMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, dims := range [][2]int{{1, 1}, {3, 5}, {16, 45}, {33, 7}} {
		m, n := dims[0], dims[1]
		a := make([]float64, m*n)
		dst := make([]float64, n)
		want := make([]float64, n)
		for j := range dst {
			dst[j] = rng.NormFloat64()
			want[j] = dst[j]
		}
		for i := range a {
			a[i] = rng.NormFloat64()
			want[i%n] += a[i]
		}
		ColSumsAcc(dst, a, m, n)
		for j := range dst {
			if !relClose(dst[j], want[j], 1e-12) {
				t.Fatalf("m=%d n=%d dst[%d]=%v want %v", m, n, j, dst[j], want[j])
			}
		}
	}
}
