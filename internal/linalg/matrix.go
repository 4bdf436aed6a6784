// Package linalg provides the small dense linear-algebra kernel the AIIO
// models need: vectors, row-major matrices, the packed dense-layer and
// training kernels, a Cholesky solver, and (weighted) ridge least squares.
// Everything is float64 and allocation-conscious, except that the dense
// layer and the vector kernels of the two networks' inference also run in
// float32 (Dense32, and the kernels generic over Float), for Kernel SHAP's
// coalition batches.
package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices, which must all have equal length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("linalg: ragged rows: row %d has %d cols, want %d", i, len(r), m.Cols))
		}
		copy(m.Row(i), r)
	}
	return m
}

// Row returns a mutable view of row i.
func (m *Matrix) Row(i int) []float64 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone deep-copies the matrix.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*out.Cols+i] = v
		}
	}
	return out
}

// The vector micro-kernels. On amd64 with AVX2+FMA support the init in
// gemv_amd64.go installs the assembly versions; nil means the portable
// scalar paths run instead.
var (
	// gemvTKernel computes dst[o] = w_row_o · x (+bias) for outDim
	// outputs (outDim a multiple of 4) with fused multiply-adds.
	gemvTKernel func(dst, w, x *float64, inDim, outDim int, bias *float64)
	// gluKernel computes dst[i] = u[i]/(1+exp(-v[i])) for n a multiple
	// of 8, with a polynomial exp accurate to ~1e-13 relative.
	gluKernel func(dst, u, v *float64, n int)
	// scaleShiftReLUKernel computes x[i] = max(0, x[i]*scale[i]+shift[i]).
	scaleShiftReLUKernel func(x, scale, shift *float64, n int)
	// scaleShiftIntoKernel computes dst[i] = x[i]*scale[i]+shift[i].
	scaleShiftIntoKernel func(dst, x, scale, shift *float64, n int)
	// scaleMaxKernel computes v[i] *= scale[i] in place and returns max(v);
	// requires n >= 4.
	scaleMaxKernel func(v, scale *float64, n int) float64
	// maskGreaterKernel returns a bitmask of lanes with v[i] > lim for the
	// n &^ 3 prefix.
	maskGreaterKernel func(v *float64, lim float64, n int) uint64
	// scaleKernel computes x[i] *= alpha.
	scaleKernel func(alpha float64, x *float64, n int)
	// reluKernel computes x[i] = max(0, x[i]).
	reluKernel func(x *float64, n int)
	// dotKernel is a 2x4-lane FMA inner product.
	dotKernel func(a, b *float64, n int) float64
	// axpyKernel is a 4-lane FMA y += alpha*x.
	axpyKernel func(alpha float64, x, y *float64, n int)
)

// The float32 vector micro-kernels, installed like the float64 ones. Each
// takes a multiple of 8 elements (glu32Kernel: per row, over rows strided
// rows; scaleShiftInto32Kernel: a multiple of 4, reading float64 and
// writing float32; scaleMaxMask32Kernel: any 1..64) and the generic
// wrappers run the tail.
var (
	glu32Kernel            func(dst, u, v *float32, n, rows, dstStride, srcStride int)
	scaleShiftInto32Kernel func(dst *float32, x, scale, shift *float64, n int)
	scaleMaxMask32Kernel   func(v, scale *float32, n int) (float32, uint64)
	scale32Kernel          func(alpha float32, x *float32, n int)
	relu32Kernel           func(x *float32, n int)
	axpy32Kernel           func(alpha float32, x, y *float32, n int)
)

// GemvT computes out[o] = dot(w[o*in:(o+1)*in], x) (+ bias[o] when bias is
// non-nil) for o in [0, outDim) — one dense-layer forward row against
// weights stored row-major by output unit. Outputs are tiled four wide so
// each element of x is loaded once per tile and the four accumulator
// chains run independently (the single-chain Dot is latency-bound); on
// supported CPUs the tile body is the AVX2+FMA micro-kernel. The two
// paths agree to float rounding (FMA does not round the intermediate
// product), not bitwise.
func GemvT(out, w []float64, outDim, inDim int, x, bias []float64) {
	if len(x) != inDim {
		panic(fmt.Sprintf("linalg: GemvT input %d, want %d", len(x), inDim))
	}
	if len(out) < outDim || len(w) < outDim*inDim {
		panic(fmt.Sprintf("linalg: GemvT out %d / weights %d too small for %dx%d", len(out), len(w), outDim, inDim))
	}
	if bias != nil && len(bias) < outDim {
		panic(fmt.Sprintf("linalg: GemvT bias %d, want %d", len(bias), outDim))
	}
	o := 0
	if gemvTKernel != nil && inDim >= 4 && outDim >= 4 {
		o = outDim &^ 3
		var bp *float64
		if bias != nil {
			bp = &bias[0]
		}
		gemvTKernel(&out[0], &w[0], &x[0], inDim, o, bp)
		for ; o < outDim; o++ {
			out[o] = Dot(w[o*inDim:o*inDim+inDim], x)
			if bias != nil {
				out[o] += bias[o]
			}
		}
		return
	}
	for ; o+4 <= outDim; o += 4 {
		w0 := w[o*inDim : o*inDim+inDim]
		w1 := w[(o+1)*inDim : (o+1)*inDim+inDim]
		w2 := w[(o+2)*inDim : (o+2)*inDim+inDim]
		w3 := w[(o+3)*inDim : (o+3)*inDim+inDim]
		var s0, s1, s2, s3 float64
		for j, xv := range x {
			s0 += xv * w0[j]
			s1 += xv * w1[j]
			s2 += xv * w2[j]
			s3 += xv * w3[j]
		}
		out[o], out[o+1], out[o+2], out[o+3] = s0, s1, s2, s3
	}
	for ; o < outDim; o++ {
		out[o] = Dot(w[o*inDim:o*inDim+inDim], x)
	}
	if bias != nil {
		for o := 0; o < outDim; o++ {
			out[o] += bias[o]
		}
	}
}

// Dot returns the inner product of a and b. Independent accumulator
// chains hide the FP-add latency of the naive single-chain loop; the sum
// of the partials is deterministic for a given input on a given build
// (the AVX2 kernel and the scalar path associate differently and the
// fused multiply-adds round once, so the two builds agree to float
// rounding, not bitwise). float32 inputs take the portable four-chain loop
// in float32.
func Dot[T Float](a, b []T) T {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	if a64, ok := any(a).([]float64); ok && dotKernel != nil && len(a) >= 8 {
		return T(dotKernel(&a64[0], &any(b).([]float64)[0], len(a)))
	}
	var s0, s1, s2, s3 T
	n := len(a) &^ 3
	for i := 0; i < n; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	s := (s0 + s1) + (s2 + s3)
	for i := n; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// Axpy computes y += alpha*x in place. Per-element accumulation order is
// the same on every path; the AVX2 kernel fuses the multiply-add, so the
// two builds agree to float rounding, not bitwise.
func Axpy[T Float](alpha T, x, y []T) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	i := 0
	switch xv := any(x).(type) {
	case []float64:
		if axpyKernel != nil && len(x) >= 8 {
			axpyKernel(float64(alpha), &xv[0], &any(y).([]float64)[0], len(x))
			return
		}
	case []float32:
		if axpy32Kernel != nil && len(x) >= 8 {
			i = len(x) &^ 7
			axpy32Kernel(float32(alpha), &xv[0], &any(y).([]float32)[0], i)
		}
	}
	for ; i < len(x); i++ {
		y[i] += alpha * x[i]
	}
}

// GLUInto computes the gated linear unit dst[i] = u[i] * σ(v[i]) as
// u/(1+exp(-v)), folding the gate multiply into the sigmoid's division.
// The float64 AVX2 kernel's polynomial exp agrees with math.Exp to ~1e-13
// relative, the float32 one to float32 rounding; very negative gates
// saturate to 0 through a clamp rather than an Inf intermediate.
func GLUInto[T Float](dst, u, v []T) {
	if len(dst) != len(u) || len(u) != len(v) {
		panic(fmt.Sprintf("linalg: GLUInto length mismatch %d/%d/%d", len(dst), len(u), len(v)))
	}
	i := 0
	switch d := any(dst).(type) {
	case []float64:
		if gluKernel != nil && len(v) >= 8 {
			i = len(v) &^ 7
			gluKernel(&d[0], &any(u).([]float64)[0], &any(v).([]float64)[0], i)
		}
	case []float32:
		if glu32Kernel != nil && len(v) >= 8 {
			i = len(v) &^ 7
			glu32Kernel(&d[0], &any(u).([]float32)[0], &any(v).([]float32)[0], i, 1, 0, 0)
		}
	}
	for ; i < len(v); i++ {
		dst[i] = u[i] / T(1+math.Exp(-float64(v[i])))
	}
}

// GLURows applies GLUInto to rows rows of z at once: row r's h outputs
// dst[r*dstStride:][:h] are the GLU of its halves z[r*zStride:][:h] and
// z[r*zStride+h:][:h]. Each element gets GLUInto's arithmetic, so the
// result is bitwise GLUInto's row by row; the float32 kernel walks all the
// rows in one call, keeping their independent exp chains in flight
// together.
func GLURows[T Float](dst []T, dstStride int, z []T, zStride, h, rows int) {
	if rows <= 0 {
		return
	}
	if dstStride < h || zStride < 2*h || len(dst) < (rows-1)*dstStride+h || len(z) < (rows-1)*zStride+2*h {
		panic(fmt.Sprintf("linalg: GLURows %d rows of %d from %d at stride %d into %d at stride %d",
			rows, h, len(z), zStride, len(dst), dstStride))
	}
	if d, ok := any(dst).([]float32); ok && glu32Kernel != nil && h >= 8 && h%8 == 0 {
		z32 := any(z).([]float32)
		glu32Kernel(&d[0], &z32[0], &z32[h], h, rows, dstStride, zStride)
		return
	}
	for r := 0; r < rows; r++ {
		zr := z[r*zStride : r*zStride+2*h]
		GLUInto(dst[r*dstStride:r*dstStride+h], zr[:h], zr[h:])
	}
}

// ScaleShiftReLU computes x[i] = max(0, x[i]*scale[i]+shift[i]) in place —
// an eval-mode batch-norm folded to one multiply-add per element, fused
// with the following ReLU. NaN propagates on every path.
func ScaleShiftReLU[T Float](x, scale, shift []T) {
	if len(x) != len(scale) || len(x) != len(shift) {
		panic(fmt.Sprintf("linalg: ScaleShiftReLU length mismatch %d/%d/%d", len(x), len(scale), len(shift)))
	}
	if xv, ok := any(x).([]float64); ok && scaleShiftReLUKernel != nil && len(x) >= 4 {
		scaleShiftReLUKernel(&xv[0], &any(scale).([]float64)[0], &any(shift).([]float64)[0], len(x))
		return
	}
	for i, v := range x {
		v = v*scale[i] + shift[i]
		if v < 0 {
			v = 0
		}
		x[i] = v
	}
}

// ScaleShiftInto computes dst[i] = x[i]*scale[i] + shift[i] in float64 and
// stores it as T — an affine per-element transform, e.g. input
// standardization with scale = 1/std and shift = -mean/std, which writes
// the float32 input block of the coalition path straight from the float64
// coalition rows. For float64, dst may alias x. The vector paths fuse the
// multiply and add (FMA) and round the float32 result once, so they agree
// with the scalar path to rounding, not bitwise.
func ScaleShiftInto[T Float](dst []T, x, scale, shift []float64) {
	if len(dst) != len(x) || len(x) != len(scale) || len(x) != len(shift) {
		panic(fmt.Sprintf("linalg: ScaleShiftInto length mismatch %d/%d/%d/%d", len(dst), len(x), len(scale), len(shift)))
	}
	i := 0
	switch d := any(dst).(type) {
	case []float64:
		if scaleShiftIntoKernel != nil && len(x) >= 4 {
			scaleShiftIntoKernel(&d[0], &x[0], &scale[0], &shift[0], len(x))
			return
		}
	case []float32:
		if scaleShiftInto32Kernel != nil && len(x) >= 4 {
			i = len(x) &^ 3
			scaleShiftInto32Kernel(&d[0], &x[0], &scale[0], &shift[0], i)
		}
	}
	for ; i < len(x); i++ {
		dst[i] = T(x[i]*scale[i] + shift[i])
	}
}

// ScaleMax computes v[i] *= scale[i] in place and returns the maximum of
// the scaled values (-Inf for empty input). NaN handling is unspecified;
// hot-path callers validate inputs upstream.
func ScaleMax[T Float](v, scale []T) T {
	if len(v) != len(scale) {
		panic(fmt.Sprintf("linalg: ScaleMax length mismatch %d/%d", len(v), len(scale)))
	}
	if vv, ok := any(v).([]float64); ok && scaleMaxKernel != nil && len(v) >= 4 {
		return T(scaleMaxKernel(&vv[0], &any(scale).([]float64)[0], len(v)))
	}
	vmax := T(math.Inf(-1))
	for i := range v {
		v[i] *= scale[i]
		if v[i] > vmax {
			vmax = v[i]
		}
	}
	return vmax
}

// MaskGreater returns a bitmask with bit i set when v[i] > lim (NaN
// compares false, like the > operator). len(v) must be at most 64.
func MaskGreater[T Float](v []T, lim T) uint64 {
	if len(v) > 64 {
		panic(fmt.Sprintf("linalg: MaskGreater input %d exceeds 64 lanes", len(v)))
	}
	var m uint64
	i := 0
	if vv, ok := any(v).([]float64); ok && maskGreaterKernel != nil && len(v) >= 4 {
		i = len(v) &^ 3
		m = maskGreaterKernel(&vv[0], float64(lim), i)
	}
	for ; i < len(v); i++ {
		if v[i] > lim {
			m |= 1 << uint(i)
		}
	}
	return m
}

// ScaleMaxMask is ScaleMax followed by MaskGreater(v, max-1): it scales v
// by scale in place and returns the maximum of the scaled values and the
// mask of those greater than that maximum minus one — sparsemax's
// candidate set. len(v) must be between 1 and 64. The float32 kernel does
// both in one call; its bits are those of the two calls.
func ScaleMaxMask[T Float](v, scale []T) (vmax T, mask uint64) {
	if len(v) == 0 || len(v) > 64 || len(v) != len(scale) {
		panic(fmt.Sprintf("linalg: ScaleMaxMask lengths %d/%d, want equal and 1..64", len(v), len(scale)))
	}
	switch vv := any(v).(type) {
	case []float32:
		if scaleMaxMask32Kernel != nil {
			m, mask := scaleMaxMask32Kernel(&vv[0], &any(scale).([]float32)[0], len(v))
			return T(m), mask
		}
	case []float64:
		if scaleMaxKernel != nil && len(v) >= 4 {
			m := scaleMaxKernel(&vv[0], &any(scale).([]float64)[0], len(v))
			return T(m), MaskGreater(vv, m-1)
		}
	}
	vmax = ScaleMax(v, scale)
	return vmax, MaskGreater(v, vmax-1)
}

// ReLU computes x[i] = max(0, x[i]) in place; NaN propagates.
func ReLU[T Float](x []T) {
	i := 0
	switch xv := any(x).(type) {
	case []float64:
		if reluKernel != nil && len(x) >= 4 {
			reluKernel(&xv[0], len(x))
			return
		}
	case []float32:
		if relu32Kernel != nil && len(x) >= 8 {
			i = len(x) &^ 7
			relu32Kernel(&xv[0], i)
		}
	}
	for ; i < len(x); i++ {
		if x[i] < 0 {
			x[i] = 0
		}
	}
}

// Scale multiplies x by alpha in place.
func Scale[T Float](alpha T, x []T) {
	i := 0
	switch xv := any(x).(type) {
	case []float64:
		if scaleKernel != nil && len(x) >= 4 {
			scaleKernel(float64(alpha), &xv[0], len(x))
			return
		}
	case []float32:
		if scale32Kernel != nil && len(x) >= 8 {
			i = len(x) &^ 7
			scale32Kernel(float32(alpha), &xv[0], i)
		}
	}
	for ; i < len(x); i++ {
		x[i] *= alpha
	}
}

// RMSE is the paper's Eq. 3: the root-mean-square difference of parallel
// prediction and target slices (0 for empty input). It is the one RMSE of
// the repository: the boosting and network fits score their eval sets with
// it, so a fit's best eval score is the RMSE of the model it returns.
func RMSE(pred, y []float64) float64 {
	if len(pred) != len(y) {
		panic(fmt.Sprintf("linalg: RMSE length mismatch %d vs %d", len(pred), len(y)))
	}
	if len(y) == 0 {
		return 0
	}
	s := 0.0
	for i := range y {
		d := pred[i] - y[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(y)))
}

// Mean returns the arithmetic mean of x (0 for empty input).
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}
