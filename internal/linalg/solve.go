package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a system has no usable factorization.
var ErrSingular = errors.New("linalg: matrix is singular or not positive definite")

// Cholesky factors the symmetric positive-definite matrix a in place into
// its lower-triangular factor L (a = L·Lᵀ); the strict upper triangle is
// left untouched. It returns ErrSingular when a pivot degenerates.
func Cholesky(a *Matrix) error {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("linalg: Cholesky of non-square %dx%d", a.Rows, a.Cols))
	}
	n := a.Rows
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			v := a.At(j, k)
			d -= v * v
		}
		if d <= 0 || math.IsNaN(d) {
			return ErrSingular
		}
		d = math.Sqrt(d)
		a.Set(j, j, d)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= a.At(i, k) * a.At(j, k)
			}
			a.Set(i, j, s/d)
		}
	}
	return nil
}

// CholeskySolve solves a·x = b given the in-place Cholesky factor produced
// by Cholesky. b is not modified.
func CholeskySolve(l *Matrix, b []float64) []float64 {
	n := l.Rows
	if len(b) != n {
		panic(fmt.Sprintf("linalg: CholeskySolve rhs length %d, want %d", len(b), n))
	}
	x := make([]float64, n)
	copy(x, b)
	// Forward: L·y = b.
	for i := 0; i < n; i++ {
		for k := 0; k < i; k++ {
			x[i] -= l.At(i, k) * x[k]
		}
		x[i] /= l.At(i, i)
	}
	// Backward: Lᵀ·x = y.
	for i := n - 1; i >= 0; i-- {
		for k := i + 1; k < n; k++ {
			x[i] -= l.At(k, i) * x[k]
		}
		x[i] /= l.At(i, i)
	}
	return x
}

// SolveSPD solves a·x = b for symmetric positive-definite a, adding a tiny
// progressive ridge jitter when the plain factorization fails. a is consumed.
func SolveSPD(a *Matrix, b []float64) ([]float64, error) {
	jitter := 0.0
	base := a.Clone()
	for attempt := 0; attempt < 6; attempt++ {
		work := base.Clone()
		if jitter > 0 {
			for i := 0; i < work.Rows; i++ {
				work.Set(i, i, work.At(i, i)+jitter)
			}
		}
		if err := Cholesky(work); err == nil {
			return CholeskySolve(work, b), nil
		}
		if jitter == 0 {
			// Scale the first jitter with the matrix magnitude.
			maxDiag := 0.0
			for i := 0; i < base.Rows; i++ {
				if d := math.Abs(base.At(i, i)); d > maxDiag {
					maxDiag = d
				}
			}
			jitter = 1e-10 * (maxDiag + 1)
		} else {
			jitter *= 100
		}
	}
	return nil, ErrSingular
}

// WeightedRidge solves the weighted ridge least-squares problem
//
//	min_β Σ_i w_i (y_i − x_iᵀβ)² + λ‖β‖²
//
// via the normal equations (XᵀWX + λI)β = XᵀWy. X has one sample per row;
// w must be non-negative. When fitIntercept is true an implicit all-ones
// column is appended and the returned slice has the intercept last (length
// X.Cols+1); the intercept is not penalized.
func WeightedRidge(x *Matrix, y, w []float64, lambda float64, fitIntercept bool) ([]float64, error) {
	if x.Rows != len(y) || x.Rows != len(w) {
		panic(fmt.Sprintf("linalg: WeightedRidge shapes: X %dx%d, y %d, w %d",
			x.Rows, x.Cols, len(y), len(w)))
	}
	d := x.Cols
	if fitIntercept {
		d++
	}
	xtwx := NewMatrix(d, d)
	xtwy := make([]float64, d)
	row := make([]float64, d)
	for i := 0; i < x.Rows; i++ {
		wi := w[i]
		if wi == 0 {
			continue
		}
		copy(row, x.Row(i))
		if fitIntercept {
			row[d-1] = 1
		}
		for a := 0; a < d; a++ {
			va := row[a] * wi
			if va == 0 {
				continue
			}
			xtwy[a] += va * y[i]
			// XᵀWX is symmetric: accumulate the upper triangle only and
			// mirror below; each (a,b) product is computed exactly once, so
			// the mirrored matrix is identical to the full accumulation.
			Axpy(va, row[a:], xtwx.Row(a)[a:])
		}
	}
	for a := 0; a < d; a++ {
		ra := xtwx.Row(a)
		for b := a + 1; b < d; b++ {
			xtwx.Row(b)[a] = ra[b]
		}
	}
	nPen := d
	if fitIntercept {
		nPen = d - 1
	}
	for i := 0; i < nPen; i++ {
		xtwx.Set(i, i, xtwx.At(i, i)+lambda)
	}
	return SolveSPD(xtwx, xtwy)
}
