package tabnet

import (
	"github.com/hpc-repro/aiio/internal/linalg"
)

// The kernelized training path. TabNet's step loop is inherently per-sample
// (each sample's sparsemax support is data dependent), so the fast path
// keeps the sample walk but removes every per-sample allocation — one
// trainScratch owns the per-step caches and all backward temporaries for
// the whole Train call — and routes every dense product through the
// linalg kernels: GemvT for forwards, Axpy for weight-gradient rank-1 rows,
// Axpy2 for input gradients (pairs of output units share one pass over the
// destination).
//
// Equivalence with the reference path (Config.ReferenceKernels,
// forwardSample/backwardSample): identical math up to FP reassociation and
// the fused-GLU polynomial exp (~1e-13 relative); train_parity_test.go pins
// the drift after several epochs. Training draws no RNG inside the batch
// loop, so the two paths see identical shuffles for a given seed.

// trainCache is the fast path's per-step forward state (cf. stepCache).
// caches[0] holds the unmasked step-0 pass; caches[s+1] holds decision step
// s. h is the full GLU output [decision | attention]: its first d entries
// are the pre-ReLU decision half and its tail is the attention handoff, so
// neither needs a separate copy.
type trainCache struct {
	prior   []float64 // prior before this step's decay
	support []bool    // sparsemax support
	xm      []float64 // masked input
	sharedZ []float64 // shared-layer pre-activation
	sharedH []float64 // shared GLU output
	stepZ   []float64 // step-transformer pre-activation
	h       []float64 // step GLU output [d | attention]
}

// trainScratch is the reusable per-Train state of the fast path.
type trainScratch struct {
	caches  []trainCache
	agg     []float64
	prior   []float64
	scaled  []float64 // prior-scaled logits (sparsemax input)
	cand    []float64
	candIdx []int32
	// backward temporaries
	gAgg    []float64
	gA      []float64
	gh      []float64
	gz2     []float64
	ghS     []float64
	gz      []float64
	gxm     []float64
	gMask   []float64
	gLogits []float64
	gRaw    []float64
}

func (m *Model) newTrainScratch() *trainScratch {
	d := m.Config.DecisionDim
	h := d + m.Config.AttentionDim
	h2 := 2 * h
	nf := m.NumFeatures
	ts := &trainScratch{
		caches:  make([]trainCache, m.Config.Steps+1),
		agg:     make([]float64, d),
		prior:   make([]float64, nf),
		scaled:  make([]float64, nf),
		cand:    make([]float64, 0, nf),
		candIdx: make([]int32, 0, nf),
		gAgg:    make([]float64, d),
		gA:      make([]float64, m.Config.AttentionDim),
		gh:      make([]float64, h),
		gz2:     make([]float64, h2),
		ghS:     make([]float64, h),
		gz:      make([]float64, h2),
		gxm:     make([]float64, nf),
		gMask:   make([]float64, nf),
		gLogits: make([]float64, nf),
		gRaw:    make([]float64, nf),
	}
	for s := range ts.caches {
		c := &ts.caches[s]
		c.sharedZ = make([]float64, h2)
		c.sharedH = make([]float64, h)
		if s > 0 {
			c.prior = make([]float64, nf)
			c.support = make([]bool, nf)
			c.xm = make([]float64, nf)
			c.stepZ = make([]float64, h2)
			c.h = make([]float64, h)
		}
	}
	return ts
}

// denseBackwardVec is dense.backward on kernels: gb/gw accumulate the bias
// and rank-1 weight gradients (Axpy per output row, zero-gradient rows
// skipped), and when gin is non-nil the input gradient is accumulated over
// output-unit pairs via Axpy2 (one pass over gin per pair).
func denseBackwardVec(d *dense, x, gout, gw, gb, gin []float64) {
	if gin != nil {
		for i := range gin {
			gin[i] = 0
		}
	}
	o := 0
	for ; o+1 < d.Out; o += 2 {
		g0, g1 := gout[o], gout[o+1]
		if g0 != 0 {
			gb[o] += g0
			linalg.Axpy(g0, x, gw[o*d.In:(o+1)*d.In])
		}
		if g1 != 0 {
			gb[o+1] += g1
			linalg.Axpy(g1, x, gw[(o+1)*d.In:(o+2)*d.In])
		}
		if gin != nil {
			w0 := d.W[o*d.In : (o+1)*d.In]
			w1 := d.W[(o+1)*d.In : (o+2)*d.In]
			switch {
			case g0 != 0 && g1 != 0:
				linalg.Axpy2(g0, g1, w0, w1, gin)
			case g0 != 0:
				linalg.Axpy(g0, w0, gin)
			case g1 != 0:
				linalg.Axpy(g1, w1, gin)
			}
		}
	}
	if o < d.Out {
		if g := gout[o]; g != 0 {
			gb[o] += g
			linalg.Axpy(g, x, gw[o*d.In:(o+1)*d.In])
			if gin != nil {
				linalg.Axpy(g, d.W[o*d.In:(o+1)*d.In], gin)
			}
		}
	}
}

// gluBackwardInto is gluBackward writing into the preallocated gz.
func gluBackwardInto(gz, z, gout []float64) {
	h := len(z) / 2
	for i := 0; i < h; i++ {
		s := sigmoid(z[h+i])
		gz[i] = gout[i] * s
		gz[h+i] = gout[i] * z[i] * s * (1 - s)
	}
}

// sparsemaxBackwardInto is sparsemaxBackward writing into out.
func sparsemaxBackwardInto(out, g []float64, support []bool) {
	sum, cnt := 0.0, 0
	for i, s := range support {
		if s {
			sum += g[i]
			cnt++
		}
	}
	for i := range out {
		out[i] = 0
	}
	if cnt == 0 {
		return
	}
	mean := sum / float64(cnt)
	for i, s := range support {
		if s {
			out[i] = g[i] - mean
		}
	}
}

// forwardTrain is forwardSample on the trainScratch: same step math, zero
// allocations, kernel dense products, with the backward state recorded in
// ts.caches.
func (m *Model) forwardTrain(x []float64, ts *trainScratch) float64 {
	d := m.Config.DecisionDim
	h := d + m.Config.AttentionDim
	h2 := 2 * h
	nf := m.NumFeatures
	gamma := m.Config.Gamma

	c0 := &ts.caches[0]
	linalg.GemvT(c0.sharedZ, m.Shared.W, h2, nf, x, m.Shared.B)
	gluInto(c0.sharedH, c0.sharedZ)
	a := c0.sharedH[d:h]

	agg := ts.agg
	for i := range agg {
		agg[i] = 0
	}
	prior := ts.prior
	for i := range prior {
		prior[i] = 1
	}

	for s := 0; s < m.Config.Steps; s++ {
		c := &ts.caches[s+1]
		att := &m.AttFC[s]
		// Raw attention logits, then the prior product fused into the
		// sparsemax max-scan (scaled aliases neither).
		linalg.GemvT(ts.scaled, att.W, nf, att.In, a, att.B)
		copy(c.prior, prior)
		var tau float64
		tau, ts.cand, ts.candIdx = sparsemaxTauScaled(ts.scaled, prior, ts.cand, ts.candIdx)
		// Mask, masked input, and prior decay in one pass; the mask itself
		// is never materialized (mv = scaled-tau on the support, 0 off it).
		for i := 0; i < nf; i++ {
			mv := 0.0
			if ts.scaled[i] > tau {
				mv = ts.scaled[i] - tau
				c.support[i] = true
			} else {
				c.support[i] = false
			}
			c.xm[i] = mv * x[i]
			prior[i] *= gamma - mv
		}
		linalg.GemvT(c.sharedZ, m.Shared.W, h2, nf, c.xm, m.Shared.B)
		gluInto(c.sharedH, c.sharedZ)
		fc := &m.StepFC[s]
		linalg.GemvT(c.stepZ, fc.W, h2, fc.In, c.sharedH, fc.B)
		gluInto(c.h, c.stepZ)
		for i := 0; i < d; i++ {
			if c.h[i] > 0 {
				agg[i] += c.h[i]
			}
		}
		a = c.h[d:h]
	}
	return linalg.Dot(m.Out.W, agg) + m.Out.B[0]
}

// backwardTrain is backwardSample on the trainScratch: dL/dout for the
// sample whose forward state is in ts (forwardTrain must have just run).
func (m *Model) backwardTrain(x []float64, ts *trainScratch, gOut float64, g *Model) {
	d := m.Config.DecisionDim
	h := d + m.Config.AttentionDim

	// Output layer: gw += gOut·agg, gb += gOut, gAgg = gOut·W.
	if gOut != 0 {
		g.Out.B[0] += gOut
		linalg.Axpy(gOut, ts.agg, g.Out.W)
	}
	gAgg := ts.gAgg
	for i := range gAgg {
		gAgg[i] = gOut * m.Out.W[i]
	}
	gA := ts.gA
	for i := range gA {
		gA[i] = 0
	}

	for s := m.Config.Steps - 1; s >= 0; s-- {
		c := &ts.caches[s+1]
		gh := ts.gh
		for i := 0; i < d; i++ {
			if c.h[i] > 0 {
				gh[i] = gAgg[i]
			} else {
				gh[i] = 0
			}
		}
		copy(gh[d:], gA)

		gluBackwardInto(ts.gz2, c.stepZ, gh)
		denseBackwardVec(&m.StepFC[s], c.sharedH, ts.gz2, g.StepFC[s].W, g.StepFC[s].B, ts.ghS)
		gluBackwardInto(ts.gz, c.sharedZ, ts.ghS)
		denseBackwardVec(&m.Shared, c.xm, ts.gz, g.Shared.W, g.Shared.B, ts.gxm)

		// xm = mask ⊙ x → gradient to the mask, back through sparsemax,
		// then the constant-prior product to the raw logits.
		for i := range ts.gMask {
			ts.gMask[i] = ts.gxm[i] * x[i]
		}
		sparsemaxBackwardInto(ts.gLogits, ts.gMask, c.support)
		for i := range ts.gRaw {
			ts.gRaw[i] = ts.gLogits[i] * c.prior[i]
		}
		var prevA []float64
		if s == 0 {
			prevA = ts.caches[0].sharedH[d:h]
		} else {
			prevA = ts.caches[s].h[d:h]
		}
		denseBackwardVec(&m.AttFC[s], prevA, ts.gRaw, g.AttFC[s].W, g.AttFC[s].B, gA)
	}

	// Step 0 attention features came from the unmasked shared pass.
	c0 := &ts.caches[0]
	gh := ts.gh
	for i := 0; i < d; i++ {
		gh[i] = 0
	}
	copy(gh[d:], gA)
	gluBackwardInto(ts.gz, c0.sharedZ, gh)
	denseBackwardVec(&m.Shared, x, ts.gz, g.Shared.W, g.Shared.B, nil)
}
