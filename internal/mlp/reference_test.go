package mlp

import (
	"math"
	"math/rand"

	"github.com/hpc-repro/aiio/internal/linalg"
)

// The scalar reference training path: the per-row loops the blocked step of
// backprop.go replaced, kept as its equivalence oracle. A fit runs it
// through the fit seam with referenceStep in place of (*Model).batchStep.

// referenceStep is the stepper of the reference path.
func referenceStep(m, g *Model, xs *linalg.Matrix, ys []float64, rng *rand.Rand, _ []*linalg.Dense) func(batch []int) {
	return func(batch []int) { m.trainStep(batch, xs, ys, g, rng) }
}

// denseForward computes y = x·Wᵀ + b.
func denseForward(d *DenseState, x *linalg.Matrix) *linalg.Matrix {
	out := linalg.NewMatrix(x.Rows, d.Out)
	for i := 0; i < x.Rows; i++ {
		xrow := x.Row(i)
		orow := out.Row(i)
		for o := 0; o < d.Out; o++ {
			w := d.W[o*d.In : (o+1)*d.In]
			orow[o] = linalg.Dot(w, xrow) + d.B[o]
		}
	}
	return out
}

// denseBackward accumulates parameter gradients and returns dL/dx.
func denseBackward(d *DenseState, x, gradOut *linalg.Matrix, gw, gb []float64) *linalg.Matrix {
	gradIn := linalg.NewMatrix(x.Rows, d.In)
	for i := 0; i < x.Rows; i++ {
		xrow := x.Row(i)
		grow := gradOut.Row(i)
		girow := gradIn.Row(i)
		for o := 0; o < d.Out; o++ {
			g := grow[o]
			if g == 0 {
				continue
			}
			gb[o] += g
			w := d.W[o*d.In : (o+1)*d.In]
			gwRow := gw[o*d.In : (o+1)*d.In]
			for j, xv := range xrow {
				gwRow[j] += g * xv
				girow[j] += g * w[j]
			}
		}
	}
	return gradIn
}

// bnForwardTrain normalizes per batch and updates running statistics.
// It returns the output plus the caches needed for backward.
func bnForwardTrain(bn *BNState, x *linalg.Matrix) (out *linalg.Matrix, xhat *linalg.Matrix, mean, invStd []float64) {
	n := float64(x.Rows)
	mean = make([]float64, bn.Dim)
	variance := make([]float64, bn.Dim)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		for j, v := range row {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= n
	}
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		for j, v := range row {
			d := v - mean[j]
			variance[j] += d * d
		}
	}
	invStd = make([]float64, bn.Dim)
	const momentum = 0.9
	for j := range variance {
		variance[j] /= n
		invStd[j] = 1 / math.Sqrt(variance[j]+1e-5)
		bn.Mean[j] = momentum*bn.Mean[j] + (1-momentum)*mean[j]
		bn.Var[j] = momentum*bn.Var[j] + (1-momentum)*variance[j]
	}
	xhat = linalg.NewMatrix(x.Rows, bn.Dim)
	out = linalg.NewMatrix(x.Rows, bn.Dim)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		xrow := xhat.Row(i)
		orow := out.Row(i)
		for j, v := range row {
			xrow[j] = (v - mean[j]) * invStd[j]
			orow[j] = bn.Gamma[j]*xrow[j] + bn.Beta[j]
		}
	}
	return out, xhat, mean, invStd
}

// bnBackward computes dL/dx and accumulates gamma/beta gradients.
func bnBackward(bn *BNState, xhat, gradOut *linalg.Matrix, invStd []float64, gGamma, gBeta []float64) *linalg.Matrix {
	n := float64(gradOut.Rows)
	sumG := make([]float64, bn.Dim)
	sumGX := make([]float64, bn.Dim)
	for i := 0; i < gradOut.Rows; i++ {
		grow := gradOut.Row(i)
		xrow := xhat.Row(i)
		for j, g := range grow {
			gGamma[j] += g * xrow[j]
			gBeta[j] += g
			sumG[j] += g
			sumGX[j] += g * xrow[j]
		}
	}
	gradIn := linalg.NewMatrix(gradOut.Rows, bn.Dim)
	for i := 0; i < gradOut.Rows; i++ {
		grow := gradOut.Row(i)
		xrow := xhat.Row(i)
		orow := gradIn.Row(i)
		for j, g := range grow {
			orow[j] = bn.Gamma[j] * invStd[j] * (g - sumG[j]/n - xrow[j]*sumGX[j]/n)
		}
	}
	return gradIn
}

// trainStep runs one forward/backward pass on the batch rows batch
// (indices into the standardized xs/ys), accumulating gradients into the
// same-shaped layers of grads: per-row scalar loops with per-batch
// allocations, the equivalence baseline for the blocked trainStepFast in
// backprop.go.
func (m *Model) trainStep(batch []int, xs *linalg.Matrix, ys []float64, grads *Model, rng *rand.Rand) {
	xb := linalg.NewMatrix(len(batch), xs.Cols)
	yb := make([]float64, len(batch))
	for bi, i := range batch {
		copy(xb.Row(bi), xs.Row(i))
		yb[bi] = ys[i]
	}
	nHidden := len(m.Config.Hidden)
	acts := make([]*linalg.Matrix, 0, 2*nHidden+2) // inputs to each dense layer
	reluMask := make([]*linalg.Matrix, nHidden)    // post-ReLU masks
	dropMask := make([]*linalg.Matrix, nHidden)    // dropout masks
	bnXhat := make([]*linalg.Matrix, len(m.BN))    // BN caches
	bnInvStd := make([][]float64, len(m.BN))

	h := xb
	for l := 0; l < nHidden; l++ {
		acts = append(acts, h)
		h = denseForward(&m.Dense[l], h)
		if l > 0 {
			var xhat *linalg.Matrix
			var invStd []float64
			h, xhat, _, invStd = bnForwardTrain(&m.BN[l-1], h)
			bnXhat[l-1] = xhat
			bnInvStd[l-1] = invStd
		}
		// ReLU.
		mask := linalg.NewMatrix(h.Rows, h.Cols)
		for i := range h.Data {
			if h.Data[i] > 0 {
				mask.Data[i] = 1
			} else {
				h.Data[i] = 0
			}
		}
		reluMask[l] = mask
		// Dropout (inverted) on normalized hidden blocks.
		if l > 0 && m.Config.Dropout > 0 {
			dm := linalg.NewMatrix(h.Rows, h.Cols)
			keep := 1 - m.Config.Dropout
			for i := range h.Data {
				if rng.Float64() < keep {
					dm.Data[i] = 1 / keep
					h.Data[i] *= dm.Data[i]
				} else {
					h.Data[i] = 0
				}
			}
			dropMask[l] = dm
		}
	}
	acts = append(acts, h)
	out := denseForward(&m.Dense[nHidden], h)

	// MSE gradient on the single output.
	grad := linalg.NewMatrix(out.Rows, 1)
	inv := 1 / float64(out.Rows)
	for i := 0; i < out.Rows; i++ {
		grad.Set(i, 0, (out.At(i, 0)-yb[i])*inv)
	}

	g := denseBackward(&m.Dense[nHidden], acts[nHidden], grad,
		grads.Dense[nHidden].W, grads.Dense[nHidden].B)
	for l := nHidden - 1; l >= 0; l-- {
		if dropMask[l] != nil {
			for i := range g.Data {
				g.Data[i] *= dropMask[l].Data[i]
			}
		}
		for i := range g.Data {
			g.Data[i] *= reluMask[l].Data[i]
		}
		if l > 0 {
			g = bnBackward(&m.BN[l-1], bnXhat[l-1], g, bnInvStd[l-1],
				grads.BN[l-1].Gamma, grads.BN[l-1].Beta)
		}
		g = denseBackward(&m.Dense[l], acts[l], g, grads.Dense[l].W, grads.Dense[l].B)
	}
}
