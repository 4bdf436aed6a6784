package linalg

import (
	"math/rand"
	"testing"
)

// The bias-gradient column reduction against a naive loop.

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
