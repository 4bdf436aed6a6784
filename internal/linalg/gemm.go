package linalg

import "fmt"

// ColSumsAcc accumulates the column sums of the row-major m x n matrix a
// into dst (the bias-gradient reduction db += Σ_i G[i] of the mlp and
// tabnet mini-batch backwards, whose dense products run on Dense.Forward),
// adding each column's values in row order.
func ColSumsAcc(dst, a []float64, m, n int) {
	if len(dst) < n || len(a) < m*n {
		panic(fmt.Sprintf("linalg: ColSumsAcc shapes dst=%d a=%d for m=%d n=%d", len(dst), len(a), m, n))
	}
	dst = dst[:n]
	for i := 0; i < m; i++ {
		row := a[i*n:][:n]
		for j := range dst {
			dst[j] += row[j]
		}
	}
}
