package tabnet

import "github.com/hpc-repro/aiio/internal/linalg"

// The allocating per-sample reference path: the forward and backward the
// kernelized training path of backprop.go and the inference path of
// forwardRows replaced, kept as their equivalence oracle. A fit runs it
// through the fit seam with (*Model).referenceStep in place of
// (*Model).batchStep.

func (d *dense) forward(x []float64) []float64 {
	out := make([]float64, d.Out)
	for o := 0; o < d.Out; o++ {
		out[o] = linalg.Dot(d.W[o*d.In:(o+1)*d.In], x) + d.B[o]
	}
	return out
}

// backward accumulates gradients into gw/gb and returns dL/dx.
func (d *dense) backward(x, gout, gw, gb []float64) []float64 {
	gin := make([]float64, d.In)
	for o := 0; o < d.Out; o++ {
		g := gout[o]
		if g == 0 {
			continue
		}
		gb[o] += g
		w := d.W[o*d.In : (o+1)*d.In]
		gwRow := gw[o*d.In : (o+1)*d.In]
		for j := range gin {
			gwRow[j] += g * x[j]
			gin[j] += g * w[j]
		}
	}
	return gin
}

// sparsemaxTau is sparsemaxTauScaled without the pre-scale.
func sparsemaxTau(v, cand []float64) (float64, []float64) {
	tau, cand, _ := sparsemaxTauScaled(v, nil, cand, nil)
	return tau, cand
}

// sparsemax projects v onto the probability simplex. It returns the
// projection and the support mask.
func sparsemax(v []float64) (out []float64, support []bool) {
	tau, _ := sparsemaxTau(v, make([]float64, 0, len(v)))
	out = make([]float64, len(v))
	support = make([]bool, len(v))
	for i, x := range v {
		if x > tau {
			out[i] = x - tau
			support[i] = true
		}
	}
	return out, support
}

// sparsemaxBackward maps the output gradient through the projection.
func sparsemaxBackward(g []float64, support []bool) []float64 {
	sum, cnt := 0.0, 0
	for i, s := range support {
		if s {
			sum += g[i]
			cnt++
		}
	}
	out := make([]float64, len(g))
	if cnt == 0 {
		return out
	}
	mean := sum / float64(cnt)
	for i, s := range support {
		if s {
			out[i] = g[i] - mean
		}
	}
	return out
}

// glu splits z into halves (u, v) and returns u ⊙ σ(v).
func glu(z []float64) []float64 {
	h := len(z) / 2
	out := make([]float64, h)
	for i := 0; i < h; i++ {
		out[i] = z[i] * sigmoid(z[h+i])
	}
	return out
}

// gluBackward maps the output gradient back to z's gradient.
func gluBackward(z, gout []float64) []float64 {
	h := len(z) / 2
	gz := make([]float64, len(z))
	for i := 0; i < h; i++ {
		s := sigmoid(z[h+i])
		gz[i] = gout[i] * s
		gz[h+i] = gout[i] * z[i] * s * (1 - s)
	}
	return gz
}

// stepCache holds per-step forward state for backprop.
type stepCache struct {
	prior    []float64
	support  []bool
	xm       []float64
	sharedZ  []float64
	sharedH  []float64
	stepZ    []float64
	h        []float64
	dPreRelu []float64
	a        []float64
}

// forwardSample runs the network on one standardized sample. When caches is
// non-nil, intermediate state is recorded for backprop.
func (m *Model) forwardSample(x []float64, caches *[]stepCache) float64 {
	d := m.Config.DecisionDim
	h := d + m.Config.AttentionDim

	// Step 0: unmasked pass provides the initial attention features.
	z0 := m.Shared.forward(x)
	h0 := glu(z0)
	a := h0[d:h]
	agg := make([]float64, d)

	prior := make([]float64, m.NumFeatures)
	for i := range prior {
		prior[i] = 1
	}
	if caches != nil {
		*caches = append(*caches, stepCache{sharedZ: z0, sharedH: h0, a: a, xm: x})
	}

	for s := 0; s < m.Config.Steps; s++ {
		logitsRaw := m.AttFC[s].forward(a)
		logits := make([]float64, m.NumFeatures)
		for i := range logits {
			logits[i] = logitsRaw[i] * prior[i]
		}
		mask, support := sparsemax(logits)
		xm := make([]float64, m.NumFeatures)
		for i := range xm {
			xm[i] = mask[i] * x[i]
		}
		z := m.Shared.forward(xm)
		hShared := glu(z)
		z2 := m.StepFC[s].forward(hShared)
		hs := glu(z2)
		dPre := hs[:d]
		if caches != nil {
			*caches = append(*caches, stepCache{
				prior:   append([]float64(nil), prior...),
				support: support,
				xm:      xm, sharedZ: z, sharedH: hShared,
				stepZ: z2, h: hs, dPreRelu: append([]float64(nil), dPre...),
				a: hs[d:h],
			})
		}
		for i := 0; i < d; i++ {
			if dPre[i] > 0 {
				agg[i] += dPre[i]
			}
		}
		a = hs[d:h]
		for i := range prior {
			prior[i] *= m.Config.Gamma - mask[i]
		}
	}
	out := m.Out.forward(agg)
	if caches != nil {
		(*caches)[0].dPreRelu = agg // stash aggregate in the step-0 cache
	}
	return out[0]
}

// backwardSample backpropagates dL/dout for one sample through the cached
// forward state, accumulating into the same-shaped layers of g.
func (m *Model) backwardSample(x []float64, caches []stepCache, gOut float64, g *Model) {
	d := m.Config.DecisionDim
	agg := caches[0].dPreRelu // aggregate stashed by forwardSample

	// Output layer.
	gAgg := m.Out.backward(agg, []float64{gOut}, g.Out.W, g.Out.B)

	// gA accumulates the gradient flowing into the attention features of
	// each earlier step (used by the next step's attentive transformer).
	gANext := make([]float64, m.Config.AttentionDim)

	for s := m.Config.Steps - 1; s >= 0; s-- {
		c := caches[s+1]
		// Gradient into this step's transformer output hs = [d | a].
		gh := make([]float64, d+m.Config.AttentionDim)
		for i := 0; i < d; i++ {
			if c.dPreRelu[i] > 0 {
				gh[i] = gAgg[i]
			}
		}
		copy(gh[d:], gANext)

		gz2 := gluBackward(c.stepZ, gh)
		ghShared := m.StepFC[s].backward(c.sharedH, gz2, g.StepFC[s].W, g.StepFC[s].B)
		gz := gluBackward(c.sharedZ, ghShared)
		gxm := m.Shared.backward(c.xm, gz, g.Shared.W, g.Shared.B)

		// xm = mask ⊙ x → gradient to the mask.
		gMask := make([]float64, m.NumFeatures)
		for i := range gMask {
			gMask[i] = gxm[i] * x[i]
		}
		gLogits := sparsemaxBackward(gMask, c.support)
		// logits = raw * prior (prior treated as constant).
		gRaw := make([]float64, m.NumFeatures)
		for i := range gRaw {
			gRaw[i] = gLogits[i] * c.prior[i]
		}
		prevA := caches[s].a
		gANext = m.AttFC[s].backward(prevA, gRaw, g.AttFC[s].W, g.AttFC[s].B)
	}

	// Step 0 attention features came from the unmasked shared pass.
	c0 := caches[0]
	gh0 := make([]float64, d+m.Config.AttentionDim)
	copy(gh0[d:], gANext)
	gz0 := gluBackward(c0.sharedZ, gh0)
	m.Shared.backward(x, gz0, g.Shared.W, g.Shared.B)
}

// referenceStep is the stepper of the reference path: the allocating
// per-sample forwardSample/backwardSample.
func (m *Model) referenceStep(g *Model, xs *linalg.Matrix, ys []float64) func(batch []int) {
	return func(batch []int) {
		inv := 1 / float64(len(batch))
		for _, i := range batch {
			var caches []stepCache
			pred := m.forwardSample(xs.Row(i), &caches)
			m.backwardSample(xs.Row(i), caches, (pred-ys[i])*inv, g)
		}
	}
}
