// Package linalg provides the small dense linear-algebra kernel the AIIO
// models need: vectors, row-major matrices, the packed dense-layer and
// training kernels, a Cholesky solver, and (weighted) ridge least squares.
// Everything is float64 and allocation-conscious.
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
	// gemvT2Kernel is the two-input-row variant sharing the weight stream.
	gemvT2Kernel func(dst0, dst1, w, x0, x1 *float64, inDim, outDim int, bias *float64)
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

// GemvT2 runs GemvT for two input rows against the same weight matrix.
// On supported CPUs the paired micro-kernel streams each weight row once
// per pair (two FMAs per ymm weight load instead of one), which is the
// main win when the weight matrix does not fit in L1; each output is
// computed in the same operation order as the single-row kernel, so the
// results are bitwise identical to two GemvT calls. Its one caller is the
// mlp training forward (mlp/backprop.go), which keeps this arithmetic so
// trained weights do not move; inference runs on Dense.Forward.
func GemvT2(out0, out1, w []float64, outDim, inDim int, x0, x1, bias []float64) {
	if gemvT2Kernel == nil || inDim < 4 || outDim < 4 {
		GemvT(out0, w, outDim, inDim, x0, bias)
		GemvT(out1, w, outDim, inDim, x1, bias)
		return
	}
	if len(x0) != inDim || len(x1) != inDim {
		panic(fmt.Sprintf("linalg: GemvT2 inputs %d/%d, want %d", len(x0), len(x1), inDim))
	}
	if len(out0) < outDim || len(out1) < outDim || len(w) < outDim*inDim {
		panic(fmt.Sprintf("linalg: GemvT2 out %d/%d / weights %d too small for %dx%d",
			len(out0), len(out1), len(w), outDim, inDim))
	}
	if bias != nil && len(bias) < outDim {
		panic(fmt.Sprintf("linalg: GemvT2 bias %d, want %d", len(bias), outDim))
	}
	o := outDim &^ 3
	var bp *float64
	if bias != nil {
		bp = &bias[0]
	}
	gemvT2Kernel(&out0[0], &out1[0], &w[0], &x0[0], &x1[0], inDim, o, bp)
	for ; o < outDim; o++ {
		row := w[o*inDim : o*inDim+inDim]
		out0[o] = Dot(row, x0)
		out1[o] = Dot(row, x1)
		if bias != nil {
			out0[o] += bias[o]
			out1[o] += bias[o]
		}
	}
}

// Dot returns the inner product of a and b. Independent accumulator
// chains hide the FP-add latency of the naive single-chain loop; the sum
// of the partials is deterministic for a given input on a given build
// (the AVX2 kernel and the scalar path associate differently and the
// fused multiply-adds round once, so the two builds agree to float
// rounding, not bitwise).
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	if dotKernel != nil && len(a) >= 8 {
		return dotKernel(&a[0], &b[0], len(a))
	}
	var s0, s1, s2, s3 float64
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
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	if axpyKernel != nil && len(x) >= 8 {
		axpyKernel(alpha, &x[0], &y[0], len(x))
		return
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// GLUInto computes the gated linear unit dst[i] = u[i] * σ(v[i]) as
// u/(1+exp(-v)), folding the gate multiply into the sigmoid's division.
// The AVX2 kernel's polynomial exp agrees with math.Exp to ~1e-13
// relative; very negative gates saturate to 0 through a clamp at exp(708)
// rather than an Inf intermediate.
func GLUInto(dst, u, v []float64) {
	if len(dst) != len(u) || len(u) != len(v) {
		panic(fmt.Sprintf("linalg: GLUInto length mismatch %d/%d/%d", len(dst), len(u), len(v)))
	}
	i := 0
	if gluKernel != nil && len(v) >= 8 {
		i = len(v) &^ 7
		gluKernel(&dst[0], &u[0], &v[0], i)
	}
	for ; i < len(v); i++ {
		dst[i] = u[i] / (1 + math.Exp(-v[i]))
	}
}

// ScaleShiftReLU computes x[i] = max(0, x[i]*scale[i]+shift[i]) in place —
// an eval-mode batch-norm folded to one multiply-add per element, fused
// with the following ReLU. NaN propagates on every path.
func ScaleShiftReLU(x, scale, shift []float64) {
	if len(x) != len(scale) || len(x) != len(shift) {
		panic(fmt.Sprintf("linalg: ScaleShiftReLU length mismatch %d/%d/%d", len(x), len(scale), len(shift)))
	}
	if scaleShiftReLUKernel != nil && len(x) >= 4 {
		scaleShiftReLUKernel(&x[0], &scale[0], &shift[0], len(x))
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

// ScaleShiftInto computes dst[i] = x[i]*scale[i] + shift[i] — an affine
// per-element transform, e.g. input standardization with scale = 1/std and
// shift = -mean/std. dst may alias x. The vector path fuses the multiply
// and add (FMA), so it agrees with the scalar path to rounding, not
// bitwise.
func ScaleShiftInto(dst, x, scale, shift []float64) {
	if len(dst) != len(x) || len(x) != len(scale) || len(x) != len(shift) {
		panic(fmt.Sprintf("linalg: ScaleShiftInto length mismatch %d/%d/%d/%d", len(dst), len(x), len(scale), len(shift)))
	}
	if scaleShiftIntoKernel != nil && len(x) >= 4 {
		scaleShiftIntoKernel(&dst[0], &x[0], &scale[0], &shift[0], len(x))
		return
	}
	for i, v := range x {
		dst[i] = v*scale[i] + shift[i]
	}
}

// ScaleMax computes v[i] *= scale[i] in place and returns the maximum of
// the scaled values (-Inf for empty input). NaN handling is unspecified;
// hot-path callers validate inputs upstream.
func ScaleMax(v, scale []float64) float64 {
	if len(v) != len(scale) {
		panic(fmt.Sprintf("linalg: ScaleMax length mismatch %d/%d", len(v), len(scale)))
	}
	if scaleMaxKernel != nil && len(v) >= 4 {
		return scaleMaxKernel(&v[0], &scale[0], len(v))
	}
	vmax := math.Inf(-1)
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
func MaskGreater(v []float64, lim float64) uint64 {
	if len(v) > 64 {
		panic(fmt.Sprintf("linalg: MaskGreater input %d exceeds 64 lanes", len(v)))
	}
	var m uint64
	i := 0
	if maskGreaterKernel != nil && len(v) >= 4 {
		i = len(v) &^ 3
		m = maskGreaterKernel(&v[0], lim, i)
	}
	for ; i < len(v); i++ {
		if v[i] > lim {
			m |= 1 << uint(i)
		}
	}
	return m
}

// ReLU computes x[i] = max(0, x[i]) in place; NaN propagates.
func ReLU(x []float64) {
	if reluKernel != nil && len(x) >= 4 {
		reluKernel(&x[0], len(x))
		return
	}
	for i, v := range x {
		if v < 0 {
			x[i] = 0
		}
	}
}

// Scale multiplies x by alpha in place.
func Scale(alpha float64, x []float64) {
	if scaleKernel != nil && len(x) >= 4 {
		scaleKernel(alpha, &x[0], len(x))
		return
	}
	for i := range x {
		x[i] *= alpha
	}
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
