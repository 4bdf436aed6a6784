// Package tabnet implements a compact TabNet-style regressor — the paper's
// fifth performance function. It keeps TabNet's defining mechanism:
// sequential decision steps, each selecting features with a learned
// sparsemax attention mask relaxed by a prior, feeding GLU feature
// transformers whose decision outputs are aggregated into the prediction.
//
// Simplifications relative to the reference implementation (pytorch-tabnet),
// documented per the reproduction's substitution rule: ghost batch
// normalization is replaced by input standardization, the sparsity
// regularizer is omitted, and the attention prior is treated as a constant
// during backpropagation. As the paper notes (Section 3.2), TabNet's
// software only accepts dense input, so this model also trains dense; the
// sparsity handling happens in the diagnosis function.
package tabnet

import (
	"io"
	"math"
	"math/bits"
	"math/rand"
	"sync"

	"github.com/hpc-repro/aiio/internal/linalg"
	"github.com/hpc-repro/aiio/internal/nn"
	"github.com/hpc-repro/aiio/internal/parallel"
)

// Config holds the architecture and optimizer settings.
type Config struct {
	// Steps is the number of sequential decision steps.
	Steps int
	// DecisionDim (N_d) and AttentionDim (N_a) size the split transformer
	// output.
	DecisionDim  int
	AttentionDim int
	// Gamma is the prior relaxation: a feature used at one step has its
	// attention prior multiplied by (Gamma - mask).
	Gamma float64
	// LearningRate is the Adam step size.
	LearningRate float64
	Epochs       int
	BatchSize    int
	// EarlyStoppingRounds stops training when the eval RMSE stalls.
	EarlyStoppingRounds int
	Seed                int64
	// ReferenceKernels routes training through the original allocating
	// per-sample forward/backward (forwardSample/backwardSample) instead of
	// the scratch-slab kernel path. The two paths compute the same gradients
	// up to FP reassociation; the flag exists for equivalence tests, in the
	// spirit of gbdt's DisableHistSubtraction.
	ReferenceKernels bool
}

// DefaultConfig mirrors pytorch-tabnet's defaults at a small scale.
func DefaultConfig() Config {
	return Config{
		Steps:               3,
		DecisionDim:         8,
		AttentionDim:        8,
		Gamma:               1.3,
		LearningRate:        2e-2,
		Epochs:              150,
		BatchSize:           256,
		EarlyStoppingRounds: 10,
		Seed:                1,
	}
}

// dense is a serializable fully-connected layer y = W·x + b.
type dense struct {
	In, Out int
	W, B    []float64
}

func newDense(in, out int) dense {
	return dense{In: in, Out: out, W: make([]float64, in*out), B: make([]float64, out)}
}

// heInit draws d's weights with He initialization.
func (d *dense) heInit(rng *rand.Rand) {
	scale := math.Sqrt(2 / float64(d.In))
	for i := range d.W {
		d.W[i] = rng.NormFloat64() * scale
	}
}

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

// Model is a trained TabNet regressor.
type Model struct {
	Config Config
	// Standardization.
	Mean, Std []float64
	// ConstantCols lists input columns whose training variance was zero;
	// their Std is clamped to 1 so standardization is a no-op for them
	// instead of a divide-by-zero NaN.
	ConstantCols []int
	YMean, YStd  float64
	NumFeatures  int
	// Shared feature transformer: D -> 2H (GLU halves to H = Nd+Na).
	Shared dense
	// StepFC are per-step transformers H -> 2H.
	StepFC []dense
	// AttFC are per-step attentive transformers N_a -> D.
	AttFC []dense
	// Out maps aggregated decisions N_d -> 1.
	Out dense
	// EvalLoss records the eval RMSE after each epoch; BestEpoch is the
	// epoch whose weights the model holds (-1: a warm fit's seed).
	EvalLoss  []float64
	BestEpoch int

	// scale standardizes inputs against Mean and Std.
	scale nn.Scaler
	// packed holds the dense layers in the linalg.Dense inference layout,
	// built once on first use (see layers).
	packOnce sync.Once
	packed   *packed
	// scratch pools per-worker inference buffers (see infScratch).
	scratch sync.Pool
}

// sparsemaxTau returns the threshold tau of the sparsemax projection of v
// (Martins & Astudillo), using cand as candidate scratch (grown as needed;
// the grown slice is returned). Only entries greater than max(v)-1 can be
// in the support: a position passing the cumulative guard satisfies
// z > (cum-1)/(i+1) >= max(v)-1, and every earlier position in descending
// order holds a larger value still, so scanning just the filtered,
// descending candidates visits the same prefix sums — and produces the
// same tau — as scanning the full sorted input. The candidate set is
// typically a handful of entries, so a branchy insertion sort beats the
// former interface-dispatched sort.Sort by a wide margin; sparsemax was
// the hottest single call in the batch-diagnosis profile.
func sparsemaxTau(v, cand []float64) (float64, []float64) {
	tau, cand, _ := sparsemaxTauScaled(v, nil, cand, nil)
	return tau, cand
}

// sparsemaxTauScaled is sparsemaxTau with an optional fused elementwise
// pre-scale: when scale is non-nil it first sets v[i] *= scale[i] (the
// attention-prior product of the TabNet step) during the max scan, saving
// a separate pass over the logits in the hot loop. It also records the
// candidate indices in idx (ascending scan order, unlike the descending
// value-sorted cand), so the caller can restrict its support walk to the
// candidate superset instead of rescanning all features.
func sparsemaxTauScaled(v, scale, cand []float64, idx []int32) (float64, []float64, []int32) {
	var vmax float64
	if scale != nil {
		vmax = linalg.ScaleMax(v, scale)
	} else {
		vmax = v[0]
		for _, x := range v[1:] {
			if x > vmax {
				vmax = x
			}
		}
	}
	lim := vmax - 1
	cand = cand[:0]
	idx = idx[:0]
	if len(v) <= 64 {
		// One vector compare yields the candidate set as a bitmask; only
		// the (few) set bits are visited, in ascending index order.
		for m := linalg.MaskGreater(v, lim); m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			x := v[i]
			idx = append(idx, int32(i))
			j := len(cand)
			cand = append(cand, x)
			for j > 0 && cand[j-1] < x {
				cand[j] = cand[j-1]
				j--
			}
			cand[j] = x
		}
	} else {
		for i, x := range v {
			if x > lim {
				idx = append(idx, int32(i))
				j := len(cand)
				cand = append(cand, x)
				for j > 0 && cand[j-1] < x {
					cand[j] = cand[j-1]
					j--
				}
				cand[j] = x
			}
		}
	}
	cum := 0.0
	var tau float64
	for i, x := range cand {
		cum += x
		t := (cum - 1) / float64(i+1)
		if x > t {
			tau = t
		}
	}
	return tau, cand, idx
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

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

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

// packed holds a model's dense layers in the linalg.Dense inference layout.
// The shared layer's WT is also the In × OutPad transpose of Shared.W that
// the masked shared pass walks one selected feature at a time (Row(i)), so
// the shared weights exist once in the inference layout.
type packed struct {
	shared    *linalg.Dense
	att, step []*linalg.Dense
}

// pack packs the current weights into pk's layers, allocating them when pk
// is nil, and returns pk.
func (m *Model) pack(pk *packed) *packed {
	if pk == nil {
		pk = &packed{shared: linalg.NewDense(m.Shared.In, m.Shared.Out)}
		for s := range m.StepFC {
			pk.att = append(pk.att, linalg.NewDense(m.AttFC[s].In, m.AttFC[s].Out))
			pk.step = append(pk.step, linalg.NewDense(m.StepFC[s].In, m.StepFC[s].Out))
		}
	}
	pk.shared.Pack(m.Shared.W, m.Shared.B)
	for s := range pk.att {
		pk.att[s].Pack(m.AttFC[s].W, m.AttFC[s].B)
		pk.step[s].Pack(m.StepFC[s].W, m.StepFC[s].B)
	}
	return pk
}

// layers returns the model's packed inference layers, building them on the
// first call: a trained model's weights never change. Training never reads
// them — its evaluations re-pack the current weights into their own layers
// (see TrainSeeded).
func (m *Model) layers() *packed {
	m.packOnce.Do(func() { m.packed = m.pack(nil) })
	return m.packed
}

// rowState is one row's step-loop state. logits, a, hb and z2 are views of
// the row's slot in its scratch's four-row blocks, which the packed
// per-step layers read and write for every row of a block in one call; the
// rest is the row's own.
type rowState struct {
	logits   []float64 // attention logits (AttFC output), NumFeatures
	a        []float64 // attention features (AttFC input)
	hb       []float64 // H shared GLU output (StepFC input)
	z2       []float64 // 2H step pre-activation (StepFC output)
	z        []float64 // 2H masked shared-pass pre-activation
	hs       []float64 // H step GLU output
	agg      []float64 // aggregated decisions
	prior    []float64
	cand     []float64 // sparsemax candidate buffer (descending values)
	candIdx  []int32   // sparsemax candidate indices, ascending
	sup      []int32   // sparsemax support indices, ascending
	supPrior []float64 // decayed prior values for the support indices
}

// infScratch is one worker's reusable inference state: the standardized
// input block (Predict and PredictBatch), the initial shared-pass outputs of
// a shard, the four-row blocks behind the rows' layer inputs and outputs,
// and the four rows' own state.
type infScratch struct {
	xs                linalg.Matrix
	z0                []float64 // rows × shared.OutPad
	logits, a, hb, z2 []float64 // four rows each, strided per layer
	rows              [4]rowState
}

func (m *Model) getScratch() *infScratch {
	if s, ok := m.scratch.Get().(*infScratch); ok {
		return s
	}
	return &infScratch{}
}

func (m *Model) putScratch(s *infScratch) { m.scratch.Put(s) }

// resize returns *p with length n, reusing its backing array when large
// enough. Contents are unspecified after the call.
func resize(p *[]float64, n int) []float64 {
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	*p = (*p)[:n]
	return *p
}

// bind sizes sc for the packed layers pk and points each row slot's views
// into the four-row blocks: row k of a block sits at k times the stride of
// the layer that reads (a, hb) or writes (logits, z2) it.
func (m *Model) bind(sc *infScratch, pk *packed) {
	nf, d, na := m.NumFeatures, m.Config.DecisionDim, m.Config.AttentionDim
	h := d + na
	var ls, zs int
	if len(pk.att) > 0 {
		ls, zs = pk.att[0].OutPad, pk.step[0].OutPad
	}
	logits := resize(&sc.logits, 4*ls)
	a := resize(&sc.a, 4*na)
	hb := resize(&sc.hb, 4*h)
	z2 := resize(&sc.z2, 4*zs)
	for k := range sc.rows {
		rs := &sc.rows[k]
		rs.logits = logits[k*ls : k*ls+nf]
		rs.a = a[k*na : (k+1)*na]
		rs.hb = hb[k*h : (k+1)*h]
		rs.z2 = z2[k*zs : k*zs+2*h]
		resize(&rs.z, 2*h)
		resize(&rs.hs, h)
		resize(&rs.agg, d)
		resize(&rs.prior, nf)
	}
}

// gluInto writes the GLU of z (halves u, v -> u ⊙ σ(v)) into out through
// the fused linalg.GLUInto kernel.
func gluInto(out, z []float64) {
	h := len(z) / 2
	linalg.GLUInto(out, z[:h], z[h:])
}

// forwardRows is the cache-free forward pass over rows lo..hi of the
// standardized block xs, the hot path of batch diagnosis, writing
// target-scale predictions into out (len hi-lo). It differs from
// forwardSample in three ways: all intermediates live in the worker's
// scratch (zero steady-state allocations); dense layers run on the packed
// linalg.Dense kernel — the initial shared pass as one call over the whole
// range, then the step loop walking four rows in lockstep so each per-step
// layer is one call per four rows; and the masked shared pass exploits
// sparsemax sparsity — the mask typically keeps a handful of the features,
// so x·Wᵀ collapses to a few contiguous axpys over rows of the packed
// shared weights. Outputs agree with forwardSample to float rounding (see
// the parity tests), not bitwise: summation orders differ. Each prediction
// is bitwise independent of lo, hi and where its row falls in a block.
func (m *Model) forwardRows(xs *linalg.Matrix, lo, hi int, out []float64, pk *packed, sc *infScratch) {
	n, cols := hi-lo, xs.Cols
	m.bind(sc, pk)
	zs := pk.shared.OutPad
	z0 := resize(&sc.z0, n*zs)
	x := xs.Data[lo*cols : hi*cols]
	pk.shared.Forward(z0, zs, x, cols, n)
	for b := 0; b < n; b += 4 {
		k := min(4, n-b)
		m.forwardBlock(x[b*cols:], cols, z0[b*zs:], zs, out[b:b+k], pk, sc)
	}
}

// forwardBlock walks len(out) ≤ 4 rows (x and their shared-pass outputs z0,
// at strides cols and zs) through the step loop in lockstep. The attention
// and step layers run once per step for the whole block; the sparsemax
// projection and the sparse masked shared pass stay per row, because what
// they touch depends on each row's support.
func (m *Model) forwardBlock(x []float64, cols int, z0 []float64, zs int, out []float64, pk *packed, sc *infScratch) {
	k := len(out)
	nf, na := m.NumFeatures, m.Config.AttentionDim
	h := m.Config.DecisionDim + na
	for r := 0; r < k; r++ {
		m.stepStart(z0[r*zs:r*zs+2*h], &sc.rows[r])
	}
	for s := 0; s < m.Config.Steps; s++ {
		att := pk.att[s]
		att.Forward(sc.logits, att.OutPad, sc.a, na, k)
		for r := 0; r < k; r++ {
			m.stepMask(x[r*cols:r*cols+nf], pk.shared, &sc.rows[r])
		}
		fc := pk.step[s]
		fc.Forward(sc.z2, fc.OutPad, sc.hb, h, k)
		for r := 0; r < k; r++ {
			m.stepFinish(&sc.rows[r])
		}
	}
	for r := 0; r < k; r++ {
		y := linalg.Dot(m.Out.W, sc.rows[r].agg) + m.Out.B[0]
		out[r] = y*m.YStd + m.YMean
	}
}

// stepStart initializes a row's forward state from its shared-pass output.
func (m *Model) stepStart(z0 []float64, rs *rowState) {
	d := m.Config.DecisionDim
	h := d + m.Config.AttentionDim
	gluInto(rs.hb, z0)
	copy(rs.a, rs.hb[d:h])
	for i := range rs.agg {
		rs.agg[i] = 0
	}
	for i := range rs.prior {
		rs.prior[i] = 1
	}
}

// stepMask runs one row's attentive-transformer half step: sparsemax over
// the scaled logits, the sparse masked shared pass, and the prior decay.
// Only the sparsemax candidates can exceed tau (tau >= max-1 by
// construction), so the walk visits the handful of candidate indices, not
// every feature; mask[i] is lg-tau on the support and 0 off it — no mask
// vector exists. Off-support priors decay by the full gamma (one vector
// scale), then the support entries are overwritten with their (gamma - mv)
// product taken from the pre-decay value, so every prior matches the
// per-index scalar update bitwise.
func (m *Model) stepMask(x []float64, shared *linalg.Dense, rs *rowState) {
	gamma := m.Config.Gamma
	var tau float64
	tau, rs.cand, rs.candIdx = sparsemaxTauScaled(rs.logits, rs.prior, rs.cand, rs.candIdx)
	copy(rs.z, m.Shared.B)
	sup := rs.sup[:0]
	supPrior := rs.supPrior[:0]
	for _, ii := range rs.candIdx {
		if lg := rs.logits[ii]; lg > tau {
			mv := lg - tau
			i := int(ii)
			linalg.Axpy(mv*x[i], shared.Row(i), rs.z)
			supPrior = append(supPrior, rs.prior[i]*(gamma-mv))
			sup = append(sup, ii)
		}
	}
	rs.sup, rs.supPrior = sup, supPrior
	linalg.Scale(gamma, rs.prior)
	for k, ii := range sup {
		rs.prior[ii] = supPrior[k]
	}
	gluInto(rs.hb, rs.z)
}

// stepFinish consumes one row's feature-transformer output: GLU, the ReLU
// aggregation of the decision half, and the attention handoff.
func (m *Model) stepFinish(rs *rowState) {
	d := m.Config.DecisionDim
	h := d + m.Config.AttentionDim
	gluInto(rs.hs, rs.z2)
	for i := 0; i < d; i++ {
		if rs.hs[i] > 0 {
			rs.agg[i] += rs.hs[i]
		}
	}
	copy(rs.a, rs.hs[d:h])
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

// TrainSeeded fits the model with Adam and eval-based early stopping (evalX
// may be nil to train the full epoch budget). A nil prev trains cold; a
// non-nil prev, which must have passed CanWarmStart for cfg on x/y, is
// continued — network, standardizer and target scaling — so incremental
// retraining can run on a reduced epoch budget. The seed is the
// early-stopping baseline (see nn.Loop), so BestEpoch is -1 when no epoch
// beats it.
func TrainSeeded(cfg Config, x *linalg.Matrix, y []float64, evalX *linalg.Matrix, evalY []float64, prev *Model) (*Model, error) {
	newStep := (*Model).batchStep
	if cfg.ReferenceKernels {
		newStep = (*Model).referenceStep
	}
	return fit(cfg, x, y, evalX, evalY, prev, newStep)
}

// stepper returns the mini-batch step of a fit of m on the standardized rows
// xs and targets ys: it accumulates the batch's gradients into g, a network
// of m's shape.
type stepper func(m, g *Model, xs *linalg.Matrix, ys []float64) func(batch []int)

// referenceStep is the ReferenceKernels step: the allocating per-sample
// forwardSample/backwardSample.
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

// fit is TrainSeeded with the mini-batch step newStep builds.
func fit(cfg Config, x *linalg.Matrix, y []float64, evalX *linalg.Matrix, evalY []float64, prev *Model, newStep stepper) (*Model, error) {
	if err := nn.CheckTrainingSet("tabnet", x, y); err != nil {
		return nil, err
	}
	if cfg.Steps <= 0 {
		cfg.Steps = 3
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 256
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	if cfg.Gamma <= 1 {
		cfg.Gamma = 1.3
	}
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = 2e-2
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	m := newNet(cfg, x.Cols)
	var sd nn.Standardizer
	if prev != nil {
		// The standardizer travels with the weights: every layer was
		// learned against prev's input scaling, so it must not be refit.
		sd = prev.standardizer().Clone()
		nn.Copy(m.params(), prev.params())
	} else {
		sd = nn.FitStandardizer(x, y)
		m.Shared.heInit(rng)
		for s := range m.StepFC {
			m.StepFC[s].heInit(rng)
			m.AttFC[s].heInit(rng)
		}
		m.Out.heInit(rng)
	}
	m.Mean, m.Std, m.ConstantCols, m.YMean, m.YStd = sd.Mean, sd.Std, sd.ConstantCols, sd.YMean, sd.YStd
	xs := m.scale.Into(new(linalg.Matrix), x, m.Mean, m.Std)
	ys := sd.Targets(y)

	// The gradients live in a network of m's shape, so params lists them
	// index-aligned with m's.
	g := newNet(cfg, x.Cols)
	loop := nn.Loop{
		Epochs: cfg.Epochs, BatchSize: cfg.BatchSize, EarlyStoppingRounds: cfg.EarlyStoppingRounds,
		LearningRate: cfg.LearningRate, ScalarAdam: cfg.ReferenceKernels, Rng: rng,
		Params: m.params(), Grads: g.params(), State: m.params(), Step: newStep(m, g, xs, ys),
	}
	if evalX != nil && evalX.Rows > 0 {
		// Evaluations run on the packed inference kernel over the weights
		// as they are at that moment, re-packed into one set of
		// training-owned layers before every use; m's own lazily built pack
		// stays unbuilt until the finished model is first asked for a
		// prediction.
		evalXS := m.scale.Into(new(linalg.Matrix), evalX, m.Mean, m.Std)
		var pk *packed
		loop.Eval = func() []float64 {
			pk = m.pack(pk)
			return m.predictStandardized(evalXS, pk)
		}
	}
	m.EvalLoss, m.BestEpoch = loop.Run(x.Rows, evalY, prev != nil)
	return m, nil
}

// newNet allocates cfg's network on nf input features with every weight
// and bias zero.
func newNet(cfg Config, nf int) *Model {
	h := cfg.DecisionDim + cfg.AttentionDim
	m := &Model{Config: cfg, NumFeatures: nf, Shared: newDense(nf, 2*h), Out: newDense(cfg.DecisionDim, 1)}
	for s := 0; s < cfg.Steps; s++ {
		m.StepFC = append(m.StepFC, newDense(h, 2*h))
		m.AttFC = append(m.AttFC, newDense(cfg.AttentionDim, nf))
	}
	return m
}

// params lists the model's tensors, every one trained by Adam, in one fixed
// order: Shared, Out, then each step's transformer and attention layer,
// weights before biases.
func (m *Model) params() [][]float64 {
	ts := [][]float64{m.Shared.W, m.Shared.B, m.Out.W, m.Out.B}
	for s := range m.StepFC {
		ts = append(ts, m.StepFC[s].W, m.StepFC[s].B, m.AttFC[s].W, m.AttFC[s].B)
	}
	return ts
}

// standardizer returns the model's input and target scaling.
func (m *Model) standardizer() nn.Standardizer {
	return nn.Standardizer{Mean: m.Mean, Std: m.Std, ConstantCols: m.ConstantCols, YMean: m.YMean, YStd: m.YStd}
}

// predictParallelMinRows is the batch size below which the per-row forward
// passes are too few to amortize worker startup.
const predictParallelMinRows = 8

// predictStandardized runs the forward pass with the packed layers pk on
// the bounded worker pool for large batches (SHAP coalition matrices). pk is
// read-only, each worker pulls its own scratch from the pool and owns a
// disjoint row range, and every prediction is independent of the range it
// falls in, so the sharded result is bitwise identical to a sequential pass.
func (m *Model) predictStandardized(xs *linalg.Matrix, pk *packed) []float64 {
	out := make([]float64, xs.Rows)
	workers := 0
	if xs.Rows < predictParallelMinRows {
		workers = 1
	}
	parallel.For(xs.Rows, workers, func(lo, hi int) {
		sc := m.getScratch()
		m.forwardRows(xs, lo, hi, out[lo:hi], pk, sc)
		m.putScratch(sc)
	})
	return out
}

// Predict returns the prediction for one raw feature vector: the
// PredictBatch path on a one-row block, so it matches PredictBatch's row
// for the same input bitwise.
func (m *Model) Predict(x []float64) float64 {
	sc := m.getScratch()
	xs := nn.Reshape(&sc.xs, 1, len(x))
	m.scale.Row(xs.Data, x, m.Mean, m.Std)
	var out [1]float64
	m.forwardRows(xs, 0, 1, out[:], m.layers(), sc)
	m.putScratch(sc)
	return out[0]
}

// PredictBatch predicts every row of x. The standardized block lives in
// pooled scratch so repeated SHAP coalition batches stop allocating a
// fresh matrix per call.
func (m *Model) PredictBatch(x *linalg.Matrix) []float64 {
	sc := m.getScratch()
	xs := m.scale.Into(&sc.xs, x, m.Mean, m.Std)
	out := m.predictStandardized(xs, m.layers())
	m.putScratch(sc)
	return out
}

// Save gob-encodes the model.
func (m *Model) Save(w io.Writer) error { return nn.Save(w, "tabnet", m) }

// Load decodes a model written by Save.
func Load(r io.Reader) (*Model, error) { return nn.Load[Model](r, "tabnet") }
