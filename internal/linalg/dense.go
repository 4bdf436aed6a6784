package linalg

import (
	"fmt"
	"math"
	"unsafe"
)

// Dense is one dense layer y = W·x + b packed for batched inference: the
// weights transposed to In rows of OutPad columns, OutPad being Out rounded
// up to a multiple of 8, so row i holds input i's weight to every output
// and a whole row is a run of full vectors. Every padding entry, bias
// included, is zero. WT starts on a 64-byte boundary, so with OutPad a
// multiple of 8 every 8-column block of every row is one aligned cache
// line.
type Dense struct {
	In, Out, OutPad int
	WT              []float64 // In*OutPad; WT[i*OutPad+o] is W[o][i]
	Bias            []float64 // OutPad
}

// NewDense allocates a zero in → out layer in the packed layout.
func NewDense(in, out int) *Dense {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("linalg: NewDense dimensions %dx%d", in, out))
	}
	pad := (out + 7) &^ 7
	// Over-allocate one cache line and start WT on its 64-byte boundary.
	buf := make([]float64, in*pad+8)
	off := int(uintptr(unsafe.Pointer(&buf[0]))&63) / 8
	start := (8 - off) & 7
	return &Dense{
		In: in, Out: out, OutPad: pad,
		WT:   buf[start : start+in*pad : start+in*pad],
		Bias: make([]float64, pad),
	}
}

// Pack fills d from weights stored row-major by output unit (w[o*in+i],
// the layout mlp and tabnet keep) and a bias of length Out, reusing d's
// storage. Padding stays zero.
func (d *Dense) Pack(w, bias []float64) {
	if len(w) != d.In*d.Out || len(bias) != d.Out {
		panic(fmt.Sprintf("linalg: Dense.Pack weights %d / bias %d, want %dx%d", len(w), len(bias), d.Out, d.In))
	}
	for o := 0; o < d.Out; o++ {
		row := w[o*d.In : (o+1)*d.In]
		for i, v := range row {
			d.WT[i*d.OutPad+o] = v
		}
	}
	copy(d.Bias, bias)
}

// SetRows fills WT from w, whose rows hold Out values each in WT's own
// order without the padding, stride apart (row i is w[i*stride:], and its
// o-th value is input i's weight to output o), and makes in the layer's
// input count. in may be anything from 1 to the In the layer was allocated
// with, so one allocation serves every mini-batch size. Padding stays zero;
// Bias is left as it is.
func (d *Dense) SetRows(w []float64, stride, in int) {
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
func (d *Dense) Row(i int) []float64 {
	return d.WT[i*d.OutPad : i*d.OutPad+d.Out]
}

// Forward computes, for every row r < rows and every column o < OutPad,
//
//	dst[r*dstStride+o] = Bias[o] + Σ_i x[r*xStride+i]·WT[i*OutPad+o]
//
// Columns Out..OutPad-1 of each dst row receive the padding's outputs
// (zero for finite inputs); callers read the first Out. Each output starts
// at its bias and adds its terms in increasing i, one fused multiply-add
// each, on every kernel body — AVX-512, AVX2 or the portable math.FMA loop
// — so a result is bitwise independent of the body, of how many rows are
// in the call, and of where its row sits among them. dst must not overlap
// x.
func (d *Dense) Forward(dst []float64, dstStride int, x []float64, xStride int, rows int) {
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
	denseKernel.run(d, dst, dstStride, x, xStride, rows)
}

// denseBody is one implementation of Dense.Forward's arithmetic, after the
// wrapper's shape checks.
type denseBody struct {
	name string
	run  func(d *Dense, dst []float64, dstStride int, x []float64, xStride, rows int)
}

// denseBodies lists the bodies this CPU can run, slowest first; the amd64
// init appends the vector bodies the CPU supports and installs the last
// entry as denseKernel. Filled once at start-up, read-only afterwards.
var denseBodies = []denseBody{{name: "go-fma", run: denseGo}}

// denseKernel is the body Dense.Forward runs.
var denseKernel = denseBodies[0]

// denseGo is the portable body: the same per-output FMA chain as the vector
// bodies, one row and eight outputs (eight register accumulators) at a
// time.
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

// blockKernel is the assembly shape of a vector body: blocks of four rows
// addressed as two pairs — rows x, x+xStep, x+xPair, x+xPair+xStep (and
// likewise dst) — with the next block at x + 2·xPair. Offsets are in
// elements and may be zero or negative.
type blockKernel func(dst, x, wt, bias *float64, in, outPad, blocks, xStep, xPair, dstStep, dstPair int)

// blocked adapts a four-row assembly kernel to a denseBody. Full blocks run
// in one call; a 1–3 row tail runs as one more block whose four row slots
// repeat tail rows (rows 0,0,0,0 / 0,1,0,1 / 1,0,2,1), so the kernel never
// reads or writes outside the tail and a repeated row is written twice
// with the same bits.
func blocked(k blockKernel) func(d *Dense, dst []float64, dstStride int, x []float64, xStride, rows int) {
	return func(d *Dense, dst []float64, ds int, x []float64, xs, rows int) {
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
