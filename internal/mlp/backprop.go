package mlp

import (
	"math"
	"math/rand"

	"github.com/hpc-repro/aiio/internal/linalg"
	"github.com/hpc-repro/aiio/internal/nn"
)

// The blocked training path. One trainScratch carries every mini-batch of
// every epoch: activations, BN caches, fused backward masks, two ping-pong
// gradient blocks, and the packed layers and padded slabs of the dense
// products, all sized to the configured batch once and reshaped per batch —
// steady-state training allocates nothing per mini-batch.
//
// All three dense products of a layer run on the packed linalg.Dense
// kernel, over the whole mini-batch:
//
//   - forward, Y = X·Wᵀ + b: the layer packed as for inference;
//   - input gradient, dX = G·W: a Dense whose rows are W's rows padded to
//     InPad (In rounded up to 8), zero bias, run on the batch rows of G;
//   - weight gradient, dW = Gᵀ·X: a Dense whose rows are the batch's input
//     rows X padded to InPad, zero bias, run on the Out rows of Gᵀ.
//
// The forward and dX layers are re-packed at the start of every mini-batch
// (In×Out copies against rows×In×Out multiply-adds per product); the dW
// layer is filled from X each mini-batch. Dense.Forward starts every output
// at its bias and adds its terms in increasing order, one fused
// multiply-add each.
// For the two backward products that is, bit for bit, the chain of the
// paired-Axpy kernels they replaced on FMA hardware (from a zero start, a
// skipped zero term and a fused zero term give the same bits);
// backprop_test.go keeps those kernels, written with math.FMA, as the
// oracles of TestDenseBackwardMatchesGemmOracles.
// The db column sums stay on ColSumsAcc.
//
// Equivalence with the scalar reference path (referenceStep in
// reference_test.go, run through the fit seam): the same gradients up to
// FP reassociation — the kernels fuse multiply-adds, so per-element sums
// associate differently. RNG consumption is identical
// by construction: the dropout loop below draws one rng.Float64 per
// activation element in the same order as the reference loop, keeping the
// epoch shuffles of the two paths aligned so parity tests see FP drift
// only. train_parity_test.go pins the divergence after several epochs.

// trainScratch is the reusable per-Train state of the fast path.
type trainScratch struct {
	xb       linalg.Matrix   // standardized batch input
	yb       []float64       // batch targets
	act      []linalg.Matrix // post-block activation per hidden layer
	mask     []linalg.Matrix // fused ReLU x dropout backward masks
	xhat     []linalg.Matrix // BN normalized caches
	out      linalg.Matrix   // final linear output (batch x 1)
	gA       linalg.Matrix   // ping-pong gradient blocks
	gB       linalg.Matrix
	bnMean   [][]float64
	bnInvStd [][]float64
	sumG     []float64 // BN backward column reductions
	sumGX    []float64
	bnCoef   []float64 // BN backward per-column gamma*invStd
	dropU    []float64 // pre-drawn dropout uniforms, one per activation

	fwd []*linalg.Dense // forward layers, also the epoch-end evaluation's
	dx  []*linalg.Dense // per layer: W's rows padded (nil for layer 0)
	dw  []*linalg.Dense // per layer: the batch's input rows padded
	gT  []float64       // Gᵀ of the layer being differentiated
	pad []float64       // padded Dense.Forward output, copied out per product
}

// newTrainScratch sizes the scratch for mini-batches of up to batch rows,
// with fwd (the caller's layers) as the forward layers.
func newTrainScratch(m *Model, batch, inCols int, fwd []*linalg.Dense) *trainScratch {
	nHidden := len(m.Config.Hidden)
	ts := &trainScratch{
		yb:       make([]float64, batch),
		act:      make([]linalg.Matrix, nHidden),
		mask:     make([]linalg.Matrix, nHidden),
		xhat:     make([]linalg.Matrix, len(m.BN)),
		bnMean:   make([][]float64, len(m.BN)),
		bnInvStd: make([][]float64, len(m.BN)),
		fwd:      fwd,
		dx:       make([]*linalg.Dense, len(m.Dense)),
		dw:       make([]*linalg.Dense, len(m.Dense)),
	}
	nn.Reshape(&ts.xb, batch, inCols)
	maxDim := 1
	for l, dim := range m.Config.Hidden {
		if dim > maxDim {
			maxDim = dim
		}
		nn.Reshape(&ts.act[l], batch, dim)
		nn.Reshape(&ts.mask[l], batch, dim)
	}
	for i := range m.BN {
		dim := m.BN[i].Dim
		nn.Reshape(&ts.xhat[i], batch, dim)
		ts.bnMean[i] = make([]float64, dim)
		ts.bnInvStd[i] = make([]float64, dim)
	}
	padLen := 0
	for l, d := range m.Dense {
		if l > 0 {
			ts.dx[l] = linalg.NewDense(d.Out, d.In)
		}
		ts.dw[l] = linalg.NewDense(batch, d.In)
		inPad := ts.dw[l].OutPad
		padLen = max(padLen, batch*fwd[l].OutPad, batch*inPad, d.Out*inPad)
	}
	ts.sumG = make([]float64, maxDim)
	ts.sumGX = make([]float64, maxDim)
	ts.bnCoef = make([]float64, maxDim)
	ts.dropU = make([]float64, batch*maxDim)
	ts.gT = make([]float64, batch*maxDim)
	ts.pad = make([]float64, padLen)
	nn.Reshape(&ts.out, batch, 1)
	nn.Reshape(&ts.gA, batch, maxDim)
	nn.Reshape(&ts.gB, batch, maxDim)
	return ts
}

// pack refreshes the forward and dX layers from m's weights.
// trainStepFast calls it first, so each mini-batch runs on the current
// weights.
func (ts *trainScratch) pack(m *Model) {
	packLayers(ts.fwd, m.Dense)
	for l := 1; l < len(m.Dense); l++ {
		ts.dx[l].SetRows(m.Dense[l].W, m.Dense[l].In, m.Dense[l].Out)
	}
}

// unpad copies rows rows of the first n values of src, whose rows are
// stride apart, into the row-major rows x n dst.
func unpad(dst []float64, n int, src []float64, stride, rows int) {
	for r := 0; r < rows; r++ {
		copy(dst[r*n:(r+1)*n], src[r*stride:r*stride+n])
	}
}

// denseForward computes dst = x·Wᵀ + b for dense layer l: one Dense.Forward
// over the block into the padded slab, then each row's Out real columns.
func (ts *trainScratch) denseForward(l int, x, dst *linalg.Matrix) {
	fd := ts.fwd[l]
	out := ts.pad[:x.Rows*fd.OutPad]
	fd.Forward(out, fd.OutPad, x.Data, x.Cols, x.Rows)
	unpad(dst.Data, fd.Out, out, fd.OutPad, x.Rows)
}

// denseBackward accumulates db += Σ G into gb, writes dW = Gᵀ·X into gw
// (overwriting it), and writes dX = G·W into gin when gin is non-nil (the
// first layer's input gradient is never consumed, so callers pass nil and
// skip that product).
func (ts *trainScratch) denseBackward(l int, d *DenseState, x, g *linalg.Matrix, gw, gb []float64, gin *linalg.Matrix) {
	rows := g.Rows
	linalg.ColSumsAcc(gb, g.Data, rows, d.Out)

	gt := ts.gT[:d.Out*rows]
	for i := 0; i < rows; i++ {
		for o, v := range g.Row(i) {
			gt[o*rows+i] = v
		}
	}
	dw := ts.dw[l]
	dw.SetRows(x.Data, x.Cols, rows)
	out := ts.pad[:d.Out*dw.OutPad]
	dw.Forward(out, dw.OutPad, gt, rows, d.Out)
	unpad(gw, d.In, out, dw.OutPad, d.Out)

	if gin != nil {
		dx := ts.dx[l]
		out := ts.pad[:rows*dx.OutPad]
		dx.Forward(out, dx.OutPad, g.Data, d.Out, rows)
		unpad(gin.Data, d.In, out, dx.OutPad, rows)
	}
}

// bnForwardTrainInto is bnForwardTrain on scratch: x is normalized in place
// (the pre-BN values are not needed by backward), xhat/mean/invStd are
// written into the reusable slabs, and running stats update as usual.
func bnForwardTrainInto(bn *BNState, x, xhat *linalg.Matrix, mean, invStd []float64) {
	n := float64(x.Rows)
	for j := range mean {
		mean[j] = 0
	}
	for i := 0; i < x.Rows; i++ {
		linalg.Axpy(1, x.Row(i), mean)
	}
	for j := range mean {
		mean[j] /= n
	}
	// invStd doubles as the variance accumulator until the sqrt below.
	for j := range invStd {
		invStd[j] = 0
	}
	for i := 0; i < x.Rows; i++ {
		linalg.SqDiffAcc(invStd, x.Row(i), mean)
	}
	const momentum = 0.9
	for j := range invStd {
		variance := invStd[j] / n
		invStd[j] = 1 / math.Sqrt(variance+1e-5)
		bn.Mean[j] = momentum*bn.Mean[j] + (1-momentum)*mean[j]
		bn.Var[j] = momentum*bn.Var[j] + (1-momentum)*variance
	}
	for i := 0; i < x.Rows; i++ {
		linalg.BNApply(x.Row(i), xhat.Row(i), mean, invStd, bn.Gamma, bn.Beta)
	}
}

// bnBackwardInto is bnBackward on scratch, writing dL/dx into gin. The
// column reductions Σg and Σg·x̂ are computed once and serve double duty:
// added into gBeta/gGamma (the parameter gradients are exactly those sums)
// and rescaled by 1/n in place as the c2/c3 coefficients of the input
// gradient, with c1 = γ·invStd staged in coef.
func bnBackwardInto(bn *BNState, xhat, g *linalg.Matrix, invStd []float64,
	gGamma, gBeta []float64, gin *linalg.Matrix, sumG, sumGX, coef []float64) {

	n := float64(g.Rows)
	sumG = sumG[:bn.Dim]
	sumGX = sumGX[:bn.Dim]
	coef = coef[:bn.Dim]
	for j := range sumG {
		sumG[j] = 0
		sumGX[j] = 0
	}
	for i := 0; i < g.Rows; i++ {
		grow := g.Row(i)
		linalg.Axpy(1, grow, sumG)
		linalg.MulAcc(sumGX, grow, xhat.Row(i))
	}
	linalg.Axpy(1, sumGX, gGamma)
	linalg.Axpy(1, sumG, gBeta)
	for j := range coef {
		coef[j] = bn.Gamma[j] * invStd[j]
		sumG[j] /= n
		sumGX[j] /= n
	}
	for i := 0; i < g.Rows; i++ {
		linalg.BNBackApply(gin.Row(i), g.Row(i), xhat.Row(i), coef, sumG, sumGX)
	}
}

// trainStepFast is the blocked forward/backward pass: the same math as the
// reference trainStep (reference_test.go) over the batch rows batch
// (indices into xs/ys), with gradients accumulated into the same-shaped
// layers of grads.
func (m *Model) trainStepFast(ts *trainScratch, batch []int, xs *linalg.Matrix, ys []float64, grads *Model, rng *rand.Rand) {
	ts.pack(m)
	rows := len(batch)
	nHidden := len(m.Config.Hidden)
	xb := nn.Reshape(&ts.xb, rows, xs.Cols)
	yb := ts.yb[:rows]
	for bi, i := range batch {
		copy(xb.Row(bi), xs.Row(i))
		yb[bi] = ys[i]
	}

	// input returns what dense layer l consumed on the way up.
	input := func(l int) *linalg.Matrix {
		if l == 0 {
			return xb
		}
		return &ts.act[l-1]
	}

	h := xb
	for l := 0; l < nHidden; l++ {
		d := &m.Dense[l]
		dst := nn.Reshape(&ts.act[l], rows, d.Out)
		ts.denseForward(l, h, dst)
		if l > 0 {
			bn := &m.BN[l-1]
			bnForwardTrainInto(bn, dst, nn.Reshape(&ts.xhat[l-1], rows, bn.Dim),
				ts.bnMean[l-1], ts.bnInvStd[l-1])
		}
		// ReLU, recording the keep mask; dropout then folds its inverted
		// scale into the same mask so backward applies both in one pass.
		mk := nn.Reshape(&ts.mask[l], rows, d.Out)
		linalg.ReLUMask(dst.Data, mk.Data)
		if l > 0 && m.Config.Dropout > 0 {
			keep := 1 - m.Config.Dropout
			invKeep := 1 / keep
			// One rng draw per element in data order — the exact stream the
			// reference path consumes, keeping the two paths' shuffles
			// aligned — buffered so the keep/zero decisions apply vectorized.
			u := ts.dropU[:len(dst.Data)]
			for i := range u {
				u[i] = rng.Float64()
			}
			linalg.DropoutApply(dst.Data, mk.Data, u, keep, invKeep)
		}
		h = dst
	}
	out := nn.Reshape(&ts.out, rows, 1)
	ts.denseForward(nHidden, h, out)

	// MSE gradient on the single output, then walk the layers back down
	// ping-ponging between the two gradient blocks.
	bufs := [2]*linalg.Matrix{&ts.gA, &ts.gB}
	cur := nn.Reshape(bufs[0], rows, 1)
	curIdx := 0
	inv := 1 / float64(rows)
	for i := 0; i < rows; i++ {
		cur.Data[i] = (out.Data[i] - yb[i]) * inv
	}
	next := nn.Reshape(bufs[1], rows, m.Dense[nHidden].In)
	ts.denseBackward(nHidden, &m.Dense[nHidden], input(nHidden), cur,
		grads.Dense[nHidden].W, grads.Dense[nHidden].B, next)
	cur, curIdx = next, 1

	for l := nHidden - 1; l >= 0; l-- {
		linalg.EMul(cur.Data, ts.mask[l].Data)
		if l > 0 {
			bn := &m.BN[l-1]
			nxt := nn.Reshape(bufs[1-curIdx], rows, bn.Dim)
			bnBackwardInto(bn, &ts.xhat[l-1], cur, ts.bnInvStd[l-1],
				grads.BN[l-1].Gamma, grads.BN[l-1].Beta, nxt, ts.sumG, ts.sumGX, ts.bnCoef)
			cur, curIdx = nxt, 1-curIdx
		}
		d := &m.Dense[l]
		var gin *linalg.Matrix
		if l > 0 {
			gin = nn.Reshape(bufs[1-curIdx], rows, d.In)
		}
		ts.denseBackward(l, d, input(l), cur, grads.Dense[l].W, grads.Dense[l].B, gin)
		if l > 0 {
			cur, curIdx = gin, 1-curIdx
		}
	}
}
