package tabnet

import (
	"github.com/hpc-repro/aiio/internal/linalg"
)

// The kernelized training path. A mini-batch step runs in two phases over
// one trainScratch, which serves every mini-batch of the fit, so steady-state
// training allocates nothing per mini-batch.
//
// Forward, per sample: each sample's sparsemax support is data dependent,
// so forwardTrain walks one sample at a time through the step loop, its
// dense products on GemvT, and records the sample's backward state in its
// row of the scratch's batch-major slabs. The forward reads only the
// weights, which Adam changes after the batch, so running every sample's
// forward before any backward gives the values an interleaved per-sample
// loop gives.
//
// Backward, one layer at a time over the whole mini-batch: the GLU,
// ReLU-gate, sparsemax and prior products elementwise per row, and every
// dense product on the packed linalg.Dense kernel, as in mlp/backprop.go:
//
//   - weight gradient, dW = Gᵀ·X: a Dense whose rows are the batch's input
//     rows, zero bias, run on the Out rows of Gᵀ;
//   - input gradient, dX = G·W: a Dense whose rows are W's rows, zero bias,
//     run on the batch rows of G;
//   - bias gradient, db += Σ G, on ColSumsAcc.
//
// The shared layer runs Steps+1 times per sample. Its output gradients are
// stacked sample-major and, within a sample, decision steps Steps-1 … 0 and
// then the unmasked pass: the order a per-sample backward accumulates them
// in. Its dW and db are then one product and one column sum over the stack.
//
// Dense.Forward starts every output at its bias and adds its terms in
// increasing order, one fused multiply-add each. From a zero start that is,
// bit for bit, the chain a per-sample backward builds with one fused
// multiply-add per nonzero gradient term (a zero term adds nothing).
// backprop_test.go keeps such a backward, written with math.FMA, as the
// bitwise oracle of TestBatchStepMatchesOracle and TestTrainMatchesOracle.
//
// Equivalence with the reference path (Config.ReferenceKernels,
// forwardSample/backwardSample): identical math up to FP reassociation and
// the fused-GLU polynomial exp (~1e-13 relative); train_parity_test.go pins
// the drift after several epochs. Training draws no RNG inside the batch
// loop, so the two paths see identical shuffles for a given seed.

// trainPass is one pass through the shared layer — the unmasked pass or a
// decision step — recorded for every row of the mini-batch, row-major.
type trainPass struct {
	prior   []float64 // rows × nf: the prior before this step's decay
	sup     []int32   // rows × nf: row r's sparsemax support from sup[r*nf]
	nsup    []int32   // rows: the support's size (its indices ascend)
	sharedZ []float64 // rows × 2H: shared-layer pre-activation
	sharedH []float64 // rows × H: shared GLU output
	stepZ   []float64 // rows × 2H: step-transformer pre-activation
	// h is the pass's output, rows × H: the step GLU output [d | attention]
	// whose first d entries are the pre-ReLU decision half. The unmasked
	// pass has no step transformer; its h is its sharedH, whose attention
	// half feeds step 0.
	h []float64
}

// trainScratch is the reusable per-Train state of the fast path, sized for
// mini-batches of up to batch rows.
type trainScratch struct {
	rows int         // rows in the current mini-batch
	pass []trainPass // pass[0]: the unmasked pass; pass[s+1]: decision step s
	// shIn stacks the shared layer's inputs, Steps+1 rows of nf per sample
	// in the backward's order: the masked inputs of steps Steps-1 … 0, then
	// the sample itself. shG stacks the shared layer's output gradients
	// (2H wide) the same way.
	shIn, shG []float64
	agg       []float64 // rows × d: aggregated decisions
	gOut      []float64 // rows: dL/dprediction
	// per-sample forward temporaries
	prior   []float64
	scaled  []float64 // prior-scaled logits (sparsemax input)
	cand    []float64
	candIdx []int32
	// backward slabs, rows × width; a product's output is OutPad wide
	gz2  []float64 // rows × 2H: step-transformer output gradients
	ghS  []float64 // rows × prod[H].OutPad: shared GLU output gradients
	gxm  []float64 // rows × prod[nf].OutPad: masked-input gradients
	gRaw []float64 // rows × nf: raw attention-logit gradients
	gA   []float64 // rows × prod[N_a].OutPad: attention-feature gradients
	gh   []float64 // H: one row's step output gradient

	// prod holds one Dense per product output width, refilled before each
	// product: a dX = G·W with W's rows, or a dW = Gᵀ·X with the batch's
	// input rows. Each has room for the stacked shared-layer rows.
	prod map[int]*linalg.Dense
	gT   []float64 // Gᵀ of the layer being differentiated
	pad  []float64 // padded dW output, copied out per product
}

func (m *Model) newTrainScratch(batch int) *trainScratch {
	steps, d, na := m.Config.Steps, m.Config.DecisionDim, m.Config.AttentionDim
	h := d + na
	nf := m.NumFeatures
	stacked := batch * (steps + 1)
	ts := &trainScratch{
		pass:    make([]trainPass, steps+1),
		candIdx: make([]int32, 0, nf),
		prod:    make(map[int]*linalg.Dense),
	}
	for _, w := range []int{nf, h, na, d} {
		if ts.prod[w] == nil {
			ts.prod[w] = linalg.NewDense(max(stacked, 2*h, nf), w)
		}
	}
	sup, nsup := make([]int32, steps*batch*nf), make([]int32, steps*batch)
	for s := 1; s <= steps; s++ {
		ts.pass[s].sup = sup[(s-1)*batch*nf : s*batch*nf]
		ts.pass[s].nsup = nsup[(s-1)*batch : s*batch]
	}
	// Every float64 slab is carved from one allocation: the first layout
	// only counts.
	n := 0
	m.layoutScratch(ts, batch, func(k int) []float64 { n += k; return nil })
	buf := make([]float64, n)
	m.layoutScratch(ts, batch, func(k int) []float64 {
		v := buf[:k:k]
		buf = buf[k:]
		return v
	})
	return ts
}

// layoutScratch points ts's float64 slabs, for mini-batches of up to batch
// rows, at the pieces take hands out.
func (m *Model) layoutScratch(ts *trainScratch, batch int, take func(n int) []float64) {
	steps, d, na := m.Config.Steps, m.Config.DecisionDim, m.Config.AttentionDim
	h := d + na
	h2 := 2 * h
	nf := m.NumFeatures
	stacked := batch * (steps + 1)
	ts.shIn, ts.shG = take(stacked*nf), take(stacked*h2)
	ts.agg, ts.gOut = take(batch*d), take(batch)
	ts.prior, ts.scaled, ts.cand = take(nf), take(nf), take(nf)[:0]
	ts.gz2, ts.gRaw, ts.gh = take(batch*h2), take(batch*nf), take(h)
	ts.ghS = take(batch * ts.prod[h].OutPad)
	ts.gxm = take(batch * ts.prod[nf].OutPad)
	ts.gA = take(batch * ts.prod[na].OutPad)
	ts.gT = take(max(h2*(stacked+8), nf*(batch+8)))
	padLen := 0
	for _, l := range []*dense{&m.Shared, &m.Out, &m.StepFC[0], &m.AttFC[0]} {
		padLen = max(padLen, l.Out*ts.prod[l.In].OutPad)
	}
	ts.pad = take(padLen)
	for s := range ts.pass {
		p := &ts.pass[s]
		p.sharedZ, p.sharedH = take(batch*h2), take(batch*h)
		p.h = p.sharedH
		if s > 0 {
			p.prior, p.stepZ, p.h = take(batch*nf), take(batch*h2), take(batch*h)
		}
	}
}

// batchStep returns the fast path's mini-batch step for a fit of m on the
// standardized rows xs and targets ys: every sample's forward, then the
// mini-batch backward, accumulating into g.
func (m *Model) batchStep(g *Model, xs *linalg.Matrix, ys []float64) func(batch []int) {
	ts := m.newTrainScratch(min(m.Config.BatchSize, xs.Rows))
	return func(batch []int) {
		inv := 1 / float64(len(batch))
		ts.rows = len(batch)
		for b, i := range batch {
			ts.gOut[b] = (m.forwardTrain(xs.Row(i), ts, b) - ys[i]) * inv
		}
		m.backwardBatch(ts, g)
	}
}

// gluBackwardInto is gluBackward writing into the preallocated gz. A zero
// output gradient skips its gate's sigmoid: for a gate that is not NaN, σ
// lies in [0, 1], so the two products are that zero and g·u whatever σ is.
func gluBackwardInto(gz, z, gout []float64) {
	h := len(z) / 2
	u, v := z[:h], z[h:2*h]
	gu, gv := gz[:h], gz[h:2*h]
	for i, g := range gout[:h] {
		if g == 0 {
			gu[i], gv[i] = g, g*u[i]
			continue
		}
		s := sigmoid(v[i])
		gu[i] = g * s
		gv[i] = g * u[i] * s * (1 - s)
	}
}

// maskBackward maps one row's masked-input gradient gxm to the raw
// attention logits: through xm = mask ⊙ x to the mask, back through the
// sparsemax projection (each entry of the support sup minus the support's
// mean, zero off it), then through the product with the prior, which is a
// constant. Off the support that product is 0·prior, and the prior is
// positive (each step multiplies it by Gamma - mask > 0), so it is +0.
func maskBackward(raw, gxm, x []float64, sup []int32, prior []float64) {
	clear(raw)
	if len(sup) == 0 {
		return
	}
	sum := 0.0
	for _, i := range sup {
		sum += gxm[i] * x[i]
	}
	mean := sum / float64(len(sup))
	for _, i := range sup {
		raw[i] = (gxm[i]*x[i] - mean) * prior[i]
	}
}

// forwardTrain is forwardSample on the trainScratch: same step math, zero
// allocations, kernel dense products, with the backward state recorded in
// row b of the scratch's slabs. It returns the prediction.
func (m *Model) forwardTrain(x []float64, ts *trainScratch, b int) float64 {
	steps := m.Config.Steps
	d := m.Config.DecisionDim
	h := d + m.Config.AttentionDim
	h2 := 2 * h
	nf := m.NumFeatures
	gamma := m.Config.Gamma

	in := ts.shIn[b*(steps+1)*nf : (b+1)*(steps+1)*nf]
	copy(in[steps*nf:], x)
	c0 := &ts.pass[0]
	z0, h0 := c0.sharedZ[b*h2:(b+1)*h2], c0.sharedH[b*h:(b+1)*h]
	linalg.GemvT(z0, m.Shared.W, h2, nf, x, m.Shared.B)
	gluInto(h0, z0)
	a := h0[d:h]

	agg := ts.agg[b*d : (b+1)*d]
	for i := range agg {
		agg[i] = 0
	}
	prior := ts.prior
	for i := range prior {
		prior[i] = 1
	}

	for s := 0; s < steps; s++ {
		c := &ts.pass[s+1]
		cPrior, sup := c.prior[b*nf:(b+1)*nf], c.sup[b*nf:(b+1)*nf]
		xm := in[(steps-1-s)*nf : (steps-s)*nf]
		sharedZ, sharedH := c.sharedZ[b*h2:(b+1)*h2], c.sharedH[b*h:(b+1)*h]
		stepZ, hs := c.stepZ[b*h2:(b+1)*h2], c.h[b*h:(b+1)*h]
		att := &m.AttFC[s]
		// Raw attention logits, then the prior product fused into the
		// sparsemax max-scan (scaled aliases neither).
		linalg.GemvT(ts.scaled, att.W, nf, att.In, a, att.B)
		copy(cPrior, prior)
		var tau float64
		tau, ts.cand, ts.candIdx = sparsemaxTauScaled(ts.scaled, prior, ts.cand, ts.candIdx)
		// Mask, masked input, and prior decay in one pass; the mask itself
		// is never materialized (mv = scaled-tau on the support, 0 off it).
		n := 0
		for i := 0; i < nf; i++ {
			mv := 0.0
			if ts.scaled[i] > tau {
				mv = ts.scaled[i] - tau
				sup[n] = int32(i)
				n++
			}
			xm[i] = mv * x[i]
			prior[i] *= gamma - mv
		}
		c.nsup[b] = int32(n)
		linalg.GemvT(sharedZ, m.Shared.W, h2, nf, xm, m.Shared.B)
		gluInto(sharedH, sharedZ)
		fc := &m.StepFC[s]
		linalg.GemvT(stepZ, fc.W, h2, fc.In, sharedH, fc.B)
		gluInto(hs, stepZ)
		for i := 0; i < d; i++ {
			if hs[i] > 0 {
				agg[i] += hs[i]
			}
		}
		a = hs[d:h]
	}
	return linalg.Dot(m.Out.W, agg) + m.Out.B[0]
}

// backwardBatch backpropagates the mini-batch whose forward state and
// output gradients ts holds, accumulating into the same-shaped layers of g,
// which the training loop zeroes before each mini-batch.
func (m *Model) backwardBatch(ts *trainScratch, g *Model) {
	rows, steps := ts.rows, m.Config.Steps
	d, na := m.Config.DecisionDim, m.Config.AttentionDim
	h := d + na
	h2 := 2 * h
	nf := m.NumFeatures
	stack := (steps + 1) * h2 // one sample's stacked shared-layer gradients
	hsPad, xmPad, aPad := ts.prod[h].OutPad, ts.prod[nf].OutPad, ts.prod[na].OutPad

	// Output layer: db = Σ gOut and dW = gOutᵀ·agg; the aggregate's
	// gradient gOut·W is formed per row below.
	linalg.ColSumsAcc(g.Out.B, ts.gOut, rows, 1)
	ts.weightGrad(&g.Out, ts.agg, d, ts.gOut, rows)
	gA := ts.gA[:rows*aPad]
	clear(gA)
	gh := ts.gh

	for s := steps - 1; s >= 0; s-- {
		c := &ts.pass[s+1]
		// The step output's gradient: the aggregate's through the ReLU on
		// the decision half, the next step's attention gradient on the rest.
		for r, gOut := range ts.gOut[:rows] {
			hr := c.h[r*h : (r+1)*h]
			for i, w := range m.Out.W {
				if hr[i] > 0 {
					gh[i] = gOut * w
				} else {
					gh[i] = 0
				}
			}
			copy(gh[d:], gA[r*aPad:r*aPad+na])
			gluBackwardInto(ts.gz2[r*h2:(r+1)*h2], c.stepZ[r*h2:(r+1)*h2], gh)
		}
		ts.layerBackward(&m.StepFC[s], &g.StepFC[s], c.sharedH, h, ts.gz2, rows, ts.ghS)

		k := steps - 1 - s // this step's slot in each sample's stack
		for r := 0; r < rows; r++ {
			gz := ts.shG[r*stack+k*h2 : r*stack+(k+1)*h2]
			gluBackwardInto(gz, c.sharedZ[r*h2:(r+1)*h2], ts.ghS[r*hsPad:r*hsPad+h])
		}
		ts.inputGrad(&m.Shared, ts.shG[k*h2:], stack, rows, ts.gxm)
		for r := 0; r < rows; r++ {
			x := ts.shIn[(r*(steps+1)+steps)*nf:][:nf]
			maskBackward(ts.gRaw[r*nf:(r+1)*nf], ts.gxm[r*xmPad:r*xmPad+nf], x,
				c.sup[r*nf:r*nf+int(c.nsup[r])], c.prior[r*nf:(r+1)*nf])
		}
		// The attention features came from the previous pass's output.
		ts.layerBackward(&m.AttFC[s], &g.AttFC[s], ts.pass[s].h[d:], h, ts.gRaw, rows, gA)
	}

	// The unmasked pass: only its attention half feeds a later step.
	c0 := &ts.pass[0]
	clear(gh[:d])
	for r := 0; r < rows; r++ {
		copy(gh[d:], gA[r*aPad:r*aPad+na])
		gluBackwardInto(ts.shG[r*stack+steps*h2:(r+1)*stack], c0.sharedZ[r*h2:(r+1)*h2], gh)
	}
	n := rows * (steps + 1)
	linalg.ColSumsAcc(g.Shared.B, ts.shG, n, h2)
	ts.weightGrad(&g.Shared, ts.shIn, nf, ts.shG, n)
}

// layerBackward differentiates layer l over rows rows: its output gradients
// G (row-major, l.Out wide) and inputs X (rows xStride apart) give the bias
// and weight gradients in gl and the input gradients dX = G·W in gin, rows
// prod[l.In].OutPad apart.
func (ts *trainScratch) layerBackward(l, gl *dense, x []float64, xStride int, gm []float64, rows int, gin []float64) {
	linalg.ColSumsAcc(gl.B, gm, rows, l.Out)
	ts.weightGrad(gl, x, xStride, gm, rows)
	ts.inputGrad(l, gm, l.Out, rows, gin)
}

// weightGrad writes dW = Gᵀ·X into gl.W, overwriting it: G is rows × gl.Out
// row-major, X rows of gl.In values xStride apart.
func (ts *trainScratch) weightGrad(gl *dense, x []float64, xStride int, gm []float64, rows int) {
	// Gᵀ's rows sit one cache line more than rows apart: at a power-of-two
	// byte distance, the transpose's column writes would all map to the
	// same L1 set. It takes four rows of G at a time, so each row of Gᵀ is
	// written four contiguous values at a time.
	out, gs := gl.Out, rows+8
	gt := ts.gT[:out*gs]
	r := 0
	for ; r+4 <= rows; r += 4 {
		g0, g1 := gm[r*out:(r+1)*out], gm[(r+1)*out:(r+2)*out]
		g2, g3 := gm[(r+2)*out:(r+3)*out], gm[(r+3)*out:(r+4)*out]
		for o := range g0 {
			t := gt[o*gs+r : o*gs+r+4]
			t[0], t[1], t[2], t[3] = g0[o], g1[o], g2[o], g3[o]
		}
	}
	for ; r < rows; r++ {
		for o, v := range gm[r*out : (r+1)*out] {
			gt[o*gs+r] = v
		}
	}
	dw := ts.prod[gl.In]
	dw.SetRows(x, xStride, rows)
	dst := ts.pad[:out*dw.OutPad]
	dw.Forward(dst, dw.OutPad, gt, gs, out)
	for o := 0; o < out; o++ {
		copy(gl.W[o*gl.In:(o+1)*gl.In], dst[o*dw.OutPad:])
	}
}

// inputGrad writes dX = G·W for layer l into dst, rows prod[l.In].OutPad
// apart: G has rows rows of l.Out values gStride apart.
func (ts *trainScratch) inputGrad(l *dense, gm []float64, gStride, rows int, dst []float64) {
	dx := ts.prod[l.In]
	dx.SetRows(l.W, l.In, l.Out)
	dx.Forward(dst, dx.OutPad, gm, gStride, rows)
}
