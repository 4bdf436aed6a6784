package linalg

import (
	"fmt"
	"math"
	"unsafe"
)

// Float is the element type of the inference kernels: float64, which every
// served prediction and all training use, or float32, which Kernel SHAP's
// coalition batches run in (DESIGN.md §8).
type Float interface{ float32 | float64 }

// DenseOf is one dense layer y = W·x + b packed for batched inference in
// element type T: the weights transposed to In rows of OutPad columns,
// OutPad being Out rounded up to a whole 64-byte cache line of T (8
// float64s or 16 float32s), so row i holds input i's weight to every output
// and a whole row is a run of full vectors. Every padding entry, bias
// included, is zero. WT starts on a 64-byte boundary, so every cache-line
// block of every row is one aligned line.
type DenseOf[T Float] struct {
	In, Out, OutPad int
	WT              []T // In*OutPad; WT[i*OutPad+o] is W[o][i]
	Bias            []T // OutPad
}

// Dense is the float64 layer: the one training and served predictions use.
type Dense = DenseOf[float64]

// Dense32 is the float32 layer of the coalition-batch inference path.
type Dense32 = DenseOf[float32]

// NewDense allocates a zero in → out float64 layer in the packed layout.
func NewDense(in, out int) *Dense { return NewDenseOf[float64](in, out) }

// NewDenseOf allocates a zero in → out layer of element type T in the
// packed layout.
func NewDenseOf[T Float](in, out int) *DenseOf[T] {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("linalg: NewDense dimensions %dx%d", in, out))
	}
	var zero T
	line := 64 / int(unsafe.Sizeof(zero)) // elements per cache line
	pad := (out + line - 1) / line * line
	// Over-allocate one cache line and start WT on its 64-byte boundary.
	buf := make([]T, in*pad+line)
	off := int(uintptr(unsafe.Pointer(&buf[0]))&63) / int(unsafe.Sizeof(zero))
	start := (line - off) % line
	return &DenseOf[T]{
		In: in, Out: out, OutPad: pad,
		WT:   buf[start : start+in*pad : start+in*pad],
		Bias: make([]T, pad),
	}
}

// Pack fills d from float64 weights stored row-major by output unit
// (w[o*in+i], the layout mlp and tabnet keep) and a bias of length Out,
// rounding each to T, reusing d's storage. Padding stays zero.
func (d *DenseOf[T]) Pack(w, bias []float64) {
	if len(w) != d.In*d.Out || len(bias) != d.Out {
		panic(fmt.Sprintf("linalg: Dense.Pack weights %d / bias %d, want %dx%d", len(w), len(bias), d.Out, d.In))
	}
	for o := 0; o < d.Out; o++ {
		row := w[o*d.In : (o+1)*d.In]
		for i, v := range row {
			d.WT[i*d.OutPad+o] = T(v)
		}
	}
	for o, v := range bias {
		d.Bias[o] = T(v)
	}
}

// SetRows fills WT from w, whose rows hold Out values each in WT's own
// order without the padding, stride apart (row i is w[i*stride:], and its
// o-th value is input i's weight to output o), and makes in the layer's
// input count. in may be anything from 1 to the In the layer was allocated
// with, so one allocation serves every mini-batch size. Padding stays zero;
// Bias is left as it is.
func (d *DenseOf[T]) SetRows(w []T, stride, in int) {
	if in <= 0 || in*d.OutPad > cap(d.WT) || stride < d.Out || len(w) < (in-1)*stride+d.Out {
		panic(fmt.Sprintf("linalg: Dense.SetRows %d rows at stride %d from %d values into a %dx%d layer of capacity %d",
			in, stride, len(w), d.In, d.Out, cap(d.WT)/d.OutPad))
	}
	d.In = in
	d.WT = d.WT[:in*d.OutPad]
	for i := 0; i < in; i++ {
		copy(d.WT[i*d.OutPad:i*d.OutPad+d.Out], w[i*stride:i*stride+d.Out])
	}
}

// Row returns input i's weights to the Out real outputs (a view into WT).
func (d *DenseOf[T]) Row(i int) []T {
	return d.WT[i*d.OutPad : i*d.OutPad+d.Out]
}

// Forward computes, for every row r < rows and every column o < OutPad,
//
//	dst[r*dstStride+o] = Bias[o] + Σ_i x[r*xStride+i]·WT[i*OutPad+o]
//
// Columns Out..OutPad-1 of each dst row receive the padding's outputs
// (zero for finite inputs); callers read the first Out. Each output starts
// at its bias and adds its terms in increasing i, one fused multiply-add
// each, rounded once in T, on every kernel body of T — AVX-512, AVX2 or the
// portable loop — so a result is bitwise independent of the body, of how
// many rows are in the call, and of where its row sits among them. dst
// must not overlap x.
func (d *DenseOf[T]) Forward(dst []T, dstStride int, x []T, xStride int, rows int) {
	if rows <= 0 {
		return
	}
	if xStride < d.In || dstStride < d.OutPad {
		panic(fmt.Sprintf("linalg: Dense.Forward strides x %d / dst %d, want >= %d / %d", xStride, dstStride, d.In, d.OutPad))
	}
	if len(x) < (rows-1)*xStride+d.In || len(dst) < (rows-1)*dstStride+d.OutPad {
		panic(fmt.Sprintf("linalg: Dense.Forward x %d / dst %d too small for %d rows of %dx%d",
			len(x), len(dst), rows, d.In, d.OutPad))
	}
	kernelOf[T]().run(d, dst, dstStride, x, xStride, rows)
}

// denseBody is one implementation of Forward's arithmetic in element type
// T, after the wrapper's shape checks.
type denseBody[T Float] struct {
	name string
	run  func(d *DenseOf[T], dst []T, dstStride int, x []T, xStride, rows int)
}

// denseBodies and dense32Bodies list the bodies this CPU can run, slowest
// first; the amd64 init appends the vector bodies the CPU supports and
// installs the last entry of each as the body Forward runs. Filled once at
// start-up, read-only afterwards.
var (
	denseBodies   = []denseBody[float64]{{name: "go-fma", run: denseGo}}
	dense32Bodies = []denseBody[float32]{{name: "go-fma32", run: dense32Go}}
)

// denseKernel and dense32Kernel are the bodies Forward runs.
var (
	denseKernel   = denseBodies[0]
	dense32Kernel = dense32Bodies[0]
)

// kernelOf returns the installed body of element type T.
func kernelOf[T Float]() *denseBody[T] {
	if k, ok := any(&denseKernel).(*denseBody[T]); ok {
		return k
	}
	return any(&dense32Kernel).(*denseBody[T])
}

// denseGo is the portable float64 body: the same per-output FMA chain as
// the vector bodies, one row and eight outputs (eight register
// accumulators) at a time.
func denseGo(d *Dense, dst []float64, dstStride int, x []float64, xStride, rows int) {
	pad := d.OutPad
	for r := 0; r < rows; r++ {
		xr := x[r*xStride : r*xStride+d.In]
		dr := dst[r*dstStride : r*dstStride+pad]
		for o := 0; o < pad; o += 8 {
			b := d.Bias[o : o+8]
			a0, a1, a2, a3, a4, a5, a6, a7 := b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]
			for i, xv := range xr {
				w := d.WT[i*pad+o : i*pad+o+8]
				a0 = math.FMA(xv, w[0], a0)
				a1 = math.FMA(xv, w[1], a1)
				a2 = math.FMA(xv, w[2], a2)
				a3 = math.FMA(xv, w[3], a3)
				a4 = math.FMA(xv, w[4], a4)
				a5 = math.FMA(xv, w[5], a5)
				a6 = math.FMA(xv, w[6], a6)
				a7 = math.FMA(xv, w[7], a7)
			}
			out := dr[o : o+8]
			out[0], out[1], out[2], out[3], out[4], out[5], out[6], out[7] = a0, a1, a2, a3, a4, a5, a6, a7
		}
	}
}

// dense32Go is the portable float32 body: denseGo's loop with fma32, the
// correctly rounded float32 fused multiply-add the vector bodies' VFMADD
// instructions compute.
func dense32Go(d *Dense32, dst []float32, dstStride int, x []float32, xStride, rows int) {
	pad := d.OutPad
	for r := 0; r < rows; r++ {
		xr := x[r*xStride : r*xStride+d.In]
		dr := dst[r*dstStride : r*dstStride+pad]
		for o := 0; o < pad; o += 8 {
			b := d.Bias[o : o+8]
			a0, a1, a2, a3, a4, a5, a6, a7 := b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]
			for i, xv := range xr {
				w := d.WT[i*pad+o : i*pad+o+8]
				a0 = fma32(xv, w[0], a0)
				a1 = fma32(xv, w[1], a1)
				a2 = fma32(xv, w[2], a2)
				a3 = fma32(xv, w[3], a3)
				a4 = fma32(xv, w[4], a4)
				a5 = fma32(xv, w[5], a5)
				a6 = fma32(xv, w[6], a6)
				a7 = fma32(xv, w[7], a7)
			}
			out := dr[o : o+8]
			out[0], out[1], out[2], out[3], out[4], out[5], out[6], out[7] = a0, a1, a2, a3, a4, a5, a6, a7
		}
	}
}

// fma32 returns x*y+z computed exactly and rounded once to float32 — what a
// float32 fused multiply-add instruction computes. float32(math.FMA(...))
// would round twice (to float64, then to float32) and can land one ulp off
// when the first rounding stops exactly halfway between two float32s. Here
// the product is exact in float64 (24+24 bits), the sum's float64 rounding
// error is recovered exactly (TwoSum), and the sum is rounded to odd — its
// last bit set whenever it is inexact — before the final rounding. With 53
// ≥ 24+2 bits, a round-to-odd intermediate rounds to float32 exactly as
// the exact value does.
func fma32(x, y, z float32) float32 {
	p := float64(x) * float64(y)
	c := float64(z)
	s := p + c
	if math.IsInf(s, 0) || math.IsNaN(s) {
		return float32(s)
	}
	// TwoSum: e is the exact rounding error, p + c = s + e.
	bb := s - p
	e := (p - (s - bb)) + (c - bb)
	if b := math.Float64bits(s); e != 0 && b&1 == 0 {
		// Step one float64 ulp towards the exact value: bits count
		// magnitude, so away from zero when e has s's sign.
		if (e > 0) == (s > 0) {
			b++
		} else {
			b--
		}
		s = math.Float64frombits(b)
	}
	return float32(s)
}

// blockKernel is the assembly shape of a vector body: blocks of four rows
// addressed as two pairs — rows x, x+xStep, x+xPair, x+xPair+xStep (and
// likewise dst) — with the next block at x + 2·xPair. Offsets are in
// elements and may be zero or negative.
type blockKernel[T Float] func(dst, x, wt, bias *T, in, outPad, blocks, xStep, xPair, dstStep, dstPair int)

// blocked adapts a four-row assembly kernel to a denseBody. Full blocks run
// in one call; a 1–3 row tail runs as one more block whose four row slots
// repeat tail rows (rows 0,0,0,0 / 0,1,0,1 / 1,0,2,1), so the kernel never
// reads or writes outside the tail and a repeated row is written twice
// with the same bits.
func blocked[T Float](k blockKernel[T]) func(d *DenseOf[T], dst []T, dstStride int, x []T, xStride, rows int) {
	return func(d *DenseOf[T], dst []T, ds int, x []T, xs, rows int) {
		wt, bias := &d.WT[0], &d.Bias[0]
		if full := rows / 4; full > 0 {
			k(&dst[0], &x[0], wt, bias, d.In, d.OutPad, full, xs, 2*xs, ds, 2*ds)
		}
		r := rows &^ 3
		switch rows - r {
		case 1:
			k(&dst[r*ds], &x[r*xs], wt, bias, d.In, d.OutPad, 1, 0, 0, 0, 0)
		case 2:
			k(&dst[r*ds], &x[r*xs], wt, bias, d.In, d.OutPad, 1, xs, 0, ds, 0)
		case 3:
			k(&dst[(r+1)*ds], &x[(r+1)*xs], wt, bias, d.In, d.OutPad, 1, -xs, xs, -ds, ds)
		}
	}
}
