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
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"math/rand"
	"sync"

	"github.com/hpc-repro/aiio/internal/linalg"
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
	// WarmDriftTol is the input-drift score above which CanWarmStart
	// rejects seeding from a previous model (0 means DefaultWarmDriftTol).
	WarmDriftTol float64
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

func newDense(in, out int, rng *rand.Rand) dense {
	d := dense{In: in, Out: out, W: make([]float64, in*out), B: make([]float64, out)}
	scale := math.Sqrt(2 / float64(in))
	for i := range d.W {
		d.W[i] = rng.NormFloat64() * scale
	}
	return d
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
	// Loss curves.
	TrainLoss []float64
	EvalLoss  []float64
	BestEpoch int

	// invStd caches 1/Std with a unit-scale guard for zero or non-finite
	// entries (legacy serialized models predate the fit-time clamp). Both
	// fields are unexported, so gob ignores them and the zero value works
	// for decoded models.
	invOnce  sync.Once
	invStd   []float64
	stdShift []float64
	// packed holds the dense layers in the linalg.Dense inference layout,
	// built once on first use (see layers).
	packOnce sync.Once
	packed   *packed
	// scratch pools per-worker inference buffers (see infScratch).
	scratch sync.Pool
}

// inputInvStd returns the cached per-column reciprocal of Std. Entries that
// are zero, negative, or non-finite fall back to 1 so standardization can
// never manufacture a NaN at inference time.
func (m *Model) inputInvStd() []float64 {
	m.invOnce.Do(func() {
		inv := make([]float64, len(m.Std))
		for j, s := range m.Std {
			if s > 0 && !math.IsInf(s, 1) {
				inv[j] = 1 / s
			} else {
				inv[j] = 1
			}
		}
		m.invStd = inv
		shift := make([]float64, len(m.Std))
		for j := range shift {
			shift[j] = -m.Mean[j] * inv[j]
		}
		m.stdShift = shift
	})
	return m.invStd
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
	logits   []float64
	mask     []float64
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
				prior:  append([]float64(nil), prior...),
				logits: logitsRaw, mask: mask, support: support,
				xm: xm, sharedZ: z, sharedH: hShared,
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
// (see train).
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

// reshapeMat resizes m to rows x cols, reusing its backing array when
// large enough. Contents are unspecified after the call.
func reshapeMat(m *linalg.Matrix, rows, cols int) *linalg.Matrix {
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]float64, n)
	}
	m.Data = m.Data[:n]
	m.Rows, m.Cols = rows, cols
	return m
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

// grads bundles the gradient buffers, index-aligned with params().
type grads struct {
	sharedW, sharedB []float64
	stepW, stepB     [][]float64
	attW, attB       [][]float64
	outW, outB       []float64
}

func (m *Model) newGrads() *grads {
	g := &grads{
		sharedW: make([]float64, len(m.Shared.W)),
		sharedB: make([]float64, len(m.Shared.B)),
		outW:    make([]float64, len(m.Out.W)),
		outB:    make([]float64, len(m.Out.B)),
	}
	for s := 0; s < m.Config.Steps; s++ {
		g.stepW = append(g.stepW, make([]float64, len(m.StepFC[s].W)))
		g.stepB = append(g.stepB, make([]float64, len(m.StepFC[s].B)))
		g.attW = append(g.attW, make([]float64, len(m.AttFC[s].W)))
		g.attB = append(g.attB, make([]float64, len(m.AttFC[s].B)))
	}
	return g
}

func (g *grads) zero() {
	zero := func(v []float64) {
		for i := range v {
			v[i] = 0
		}
	}
	zero(g.sharedW)
	zero(g.sharedB)
	zero(g.outW)
	zero(g.outB)
	for s := range g.stepW {
		zero(g.stepW[s])
		zero(g.stepB[s])
		zero(g.attW[s])
		zero(g.attB[s])
	}
}

// backwardSample backpropagates dL/dout for one sample through the cached
// forward state.
func (m *Model) backwardSample(x []float64, caches []stepCache, gOut float64, g *grads) {
	d := m.Config.DecisionDim
	agg := caches[0].dPreRelu // aggregate stashed by forwardSample

	// Output layer.
	gAgg := m.Out.backward(agg, []float64{gOut}, g.outW, g.outB)

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
		ghShared := m.StepFC[s].backward(c.sharedH, gz2, g.stepW[s], g.stepB[s])
		gz := gluBackward(c.sharedZ, ghShared)
		gxm := m.Shared.backward(c.xm, gz, g.sharedW, g.sharedB)

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
		gANext = m.AttFC[s].backward(prevA, gRaw, g.attW[s], g.attB[s])
	}

	// Step 0 attention features came from the unmasked shared pass.
	c0 := caches[0]
	gh0 := make([]float64, d+m.Config.AttentionDim)
	copy(gh0[d:], gANext)
	gz0 := gluBackward(c0.sharedZ, gh0)
	m.Shared.backward(x, gz0, g.sharedW, g.sharedB)
}

// Train fits the model with Adam and early stopping.
func Train(cfg Config, x *linalg.Matrix, y []float64, evalX *linalg.Matrix, evalY []float64) (*Model, error) {
	return train(cfg, x, y, evalX, evalY, nil)
}

// TrainWarm fits like Train but seeds the network, standardizer, and target
// scaling from prev so incremental retraining can run on a reduced epoch
// budget. When CanWarmStart rejects prev it falls back to a cold start. The
// seed weights are scored on the eval set before the first epoch as the
// early-stopping baseline, so a diverging warm run restores them
// (BestEpoch is -1 when the seed weights win).
func TrainWarm(cfg Config, x *linalg.Matrix, y []float64, evalX *linalg.Matrix, evalY []float64, prev *Model) (*Model, error) {
	if ok, _ := CanWarmStart(prev, cfg, x, y); !ok {
		prev = nil
	}
	return train(cfg, x, y, evalX, evalY, prev)
}

func train(cfg Config, x *linalg.Matrix, y []float64, evalX *linalg.Matrix, evalY []float64, prev *Model) (*Model, error) {
	if x.Rows == 0 {
		return nil, errors.New("tabnet: empty training set")
	}
	if x.Rows != len(y) {
		panic(fmt.Sprintf("tabnet: %d rows vs %d targets", x.Rows, len(y)))
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
	h := cfg.DecisionDim + cfg.AttentionDim

	m := &Model{Config: cfg, NumFeatures: x.Cols}
	if prev != nil {
		// Warm start: continue training prev's network. The standardizer
		// travels with the weights — every layer was learned against prev's
		// input scaling, so it must not be refit here.
		m.adoptPrevious(prev)
	} else {
		m.fitStandardizer(x, y)
		m.Shared = newDense(x.Cols, 2*h, rng)
		for s := 0; s < cfg.Steps; s++ {
			m.StepFC = append(m.StepFC, newDense(h, 2*h, rng))
			m.AttFC = append(m.AttFC, newDense(cfg.AttentionDim, x.Cols, rng))
		}
		m.Out = newDense(cfg.DecisionDim, 1, rng)
	}

	g := m.newGrads()
	opt := newAdamSet(g)

	xs := m.standardizeMatrix(x)
	ys := make([]float64, len(y))
	for i, v := range y {
		ys[i] = (v - m.YMean) / m.YStd
	}
	var evalXS *linalg.Matrix
	if evalX != nil && evalX.Rows > 0 {
		evalXS = m.standardizeMatrix(evalX)
	}

	order := make([]int, x.Rows)
	for i := range order {
		order[i] = i
	}
	// Evaluations run on the packed inference kernel over the weights as
	// they are at that moment: evalLayers re-packs them into one set of
	// training-owned layers before every use, so no evaluation reads an
	// earlier epoch's weights, and m's own lazily built pack stays unbuilt
	// until the finished model is first asked for a prediction.
	var evalPack *packed
	evalLayers := func() *packed {
		evalPack = m.pack(evalPack)
		return evalPack
	}
	best := math.Inf(1)
	sinceBest := 0
	var snapshot *Model
	if prev != nil && evalXS != nil {
		// The warm seed is already a working model: score it before the
		// first epoch so early stopping restores it if no epoch improves.
		best = rmseSlices(m.predictStandardized(evalXS, evalLayers()), evalY)
		m.BestEpoch = -1
		snapshot = m.cloneWeights()
	}

	// The fast path reuses one trainScratch (per-step caches, every backward
	// temporary) for all samples of all epochs; only the reference path
	// allocates per sample.
	var ts *trainScratch
	if !cfg.ReferenceKernels {
		ts = m.newTrainScratch()
	}

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for lo := 0; lo < len(order); lo += cfg.BatchSize {
			hi := lo + cfg.BatchSize
			if hi > len(order) {
				hi = len(order)
			}
			g.zero()
			inv := 1 / float64(hi-lo)
			if ts != nil {
				for _, i := range order[lo:hi] {
					pred := m.forwardTrain(xs.Row(i), ts)
					m.backwardTrain(xs.Row(i), ts, (pred-ys[i])*inv, g)
				}
			} else {
				for _, i := range order[lo:hi] {
					var caches []stepCache
					pred := m.forwardSample(xs.Row(i), &caches)
					m.backwardSample(xs.Row(i), caches, (pred-ys[i])*inv, g)
				}
			}
			opt.step(m, g, cfg.LearningRate, cfg.ReferenceKernels)
		}
		layers := evalLayers()
		m.TrainLoss = append(m.TrainLoss, m.rmseStandardized(xs, ys, layers))
		if evalXS != nil {
			e := rmseSlices(m.predictStandardized(evalXS, layers), evalY)
			m.EvalLoss = append(m.EvalLoss, e)
			if e < best-1e-12 {
				best = e
				m.BestEpoch = epoch
				sinceBest = 0
				snapshot = m.cloneWeights()
			} else {
				sinceBest++
				if cfg.EarlyStoppingRounds > 0 && sinceBest >= cfg.EarlyStoppingRounds {
					break
				}
			}
		} else {
			m.BestEpoch = epoch
		}
	}
	if snapshot != nil {
		m.restoreWeights(snapshot)
	}
	return m, nil
}

// adamSet carries Adam state for every tensor.
type adamSet struct {
	ms, vs [][]float64
	t      int
}

func tensorsOf(m *Model, g *grads) (weights, gradList [][]float64) {
	weights = [][]float64{m.Shared.W, m.Shared.B, m.Out.W, m.Out.B}
	gradList = [][]float64{g.sharedW, g.sharedB, g.outW, g.outB}
	for s := range m.StepFC {
		weights = append(weights, m.StepFC[s].W, m.StepFC[s].B, m.AttFC[s].W, m.AttFC[s].B)
		gradList = append(gradList, g.stepW[s], g.stepB[s], g.attW[s], g.attB[s])
	}
	return weights, gradList
}

func newAdamSet(g *grads) *adamSet {
	a := &adamSet{}
	add := func(v []float64) {
		a.ms = append(a.ms, make([]float64, len(v)))
		a.vs = append(a.vs, make([]float64, len(v)))
	}
	add(g.sharedW)
	add(g.sharedB)
	add(g.outW)
	add(g.outB)
	for s := range g.stepW {
		add(g.stepW[s])
		add(g.stepB[s])
		add(g.attW[s])
		add(g.attB[s])
	}
	return a
}

// step applies one Adam update across every tensor. The fast path runs the
// vectorized linalg.AdamStep; reference keeps the original scalar loop
// (with the textbook bias-correction divisions) as the equivalence-mode
// baseline.
func (a *adamSet) step(m *Model, g *grads, lr float64, reference bool) {
	a.t++
	b1, b2, eps := 0.9, 0.999, 1e-8
	c1 := 1 - math.Pow(b1, float64(a.t))
	c2 := 1 - math.Pow(b2, float64(a.t))
	weights, gradList := tensorsOf(m, g)
	for ti := range weights {
		w, gr := weights[ti], gradList[ti]
		mm, vv := a.ms[ti], a.vs[ti]
		if !reference {
			linalg.AdamStep(w, mm, vv, gr, b1, b2, c1, c2, lr, eps)
			continue
		}
		for i := range w {
			mm[i] = b1*mm[i] + (1-b1)*gr[i]
			vv[i] = b2*vv[i] + (1-b2)*gr[i]*gr[i]
			w[i] -= lr * (mm[i] / c1) / (math.Sqrt(vv[i]/c2) + eps)
		}
	}
}

func (m *Model) fitStandardizer(x *linalg.Matrix, y []float64) {
	m.Mean = make([]float64, x.Cols)
	m.Std = make([]float64, x.Cols)
	n := float64(x.Rows)
	for i := 0; i < x.Rows; i++ {
		for j, v := range x.Row(i) {
			m.Mean[j] += v
		}
	}
	for j := range m.Mean {
		m.Mean[j] /= n
	}
	for i := 0; i < x.Rows; i++ {
		for j, v := range x.Row(i) {
			d := v - m.Mean[j]
			m.Std[j] += d * d
		}
	}
	for j := range m.Std {
		m.Std[j] = math.Sqrt(m.Std[j] / n)
		if m.Std[j] < 1e-12 {
			m.Std[j] = 1
			m.ConstantCols = append(m.ConstantCols, j)
		}
	}
	m.YMean = linalg.Mean(y)
	s := 0.0
	for _, v := range y {
		d := v - m.YMean
		s += d * d
	}
	m.YStd = math.Sqrt(s / n)
	if m.YStd < 1e-12 {
		m.YStd = 1
	}
}

func (m *Model) standardizeMatrix(x *linalg.Matrix) *linalg.Matrix {
	return m.standardizeInto(linalg.NewMatrix(x.Rows, x.Cols), x)
}

// standardizeInto writes the standardized rows of x into dst (resized as
// needed) using the guarded reciprocal stddev.
func (m *Model) standardizeInto(dst, x *linalg.Matrix) *linalg.Matrix {
	inv := m.inputInvStd()
	out := reshapeMat(dst, x.Rows, x.Cols)
	for i := 0; i < x.Rows; i++ {
		// (v-mean)/std computed as v*inv - mean*inv with a cached shift
		// vector — one fused multiply-add per element.
		linalg.ScaleShiftInto(out.Row(i), x.Row(i), inv, m.stdShift)
	}
	return out
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

// rmseStandardized scores the per-epoch training loss through the pooled
// vectorized inference path (forwardSample and forwardRows agree to float
// rounding; this is measurement, not training math).
func (m *Model) rmseStandardized(xs *linalg.Matrix, ys []float64, pk *packed) float64 {
	pred := m.predictStandardized(xs, pk)
	s := 0.0
	for i := range ys {
		d := (pred[i]-m.YMean)/m.YStd - ys[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(ys)))
}

func rmseSlices(pred, y []float64) float64 {
	s := 0.0
	for i := range y {
		d := pred[i] - y[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(y)))
}

// Predict returns the prediction for one raw feature vector: the
// PredictBatch path on a one-row block, so it matches PredictBatch's row
// for the same input bitwise.
func (m *Model) Predict(x []float64) float64 {
	sc := m.getScratch()
	xs := reshapeMat(&sc.xs, 1, len(x))
	linalg.ScaleShiftInto(xs.Data, x, m.inputInvStd(), m.stdShift)
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
	xs := m.standardizeInto(&sc.xs, x)
	out := m.predictStandardized(xs, m.layers())
	m.putScratch(sc)
	return out
}

// ExplainMask returns the average sparsemax attention mask across steps for
// one raw input — TabNet's built-in notion of feature importance.
func (m *Model) ExplainMask(x []float64) []float64 {
	xs := make([]float64, len(x))
	for j, v := range x {
		xs[j] = (v - m.Mean[j]) / m.Std[j]
	}
	var caches []stepCache
	m.forwardSample(xs, &caches)
	out := make([]float64, m.NumFeatures)
	for _, c := range caches[1:] {
		for i, v := range c.mask {
			out[i] += v / float64(m.Config.Steps)
		}
	}
	return out
}

func (m *Model) cloneWeights() *Model {
	cp := &Model{}
	cd := func(d dense) dense {
		return dense{In: d.In, Out: d.Out,
			W: append([]float64(nil), d.W...), B: append([]float64(nil), d.B...)}
	}
	cp.Shared = cd(m.Shared)
	cp.Out = cd(m.Out)
	for s := range m.StepFC {
		cp.StepFC = append(cp.StepFC, cd(m.StepFC[s]))
		cp.AttFC = append(cp.AttFC, cd(m.AttFC[s]))
	}
	return cp
}

// adoptPrevious deep-copies prev's standardizer, target scaling, and
// learned tensors into m as the warm-start seed. prev is never aliased: the
// previous generation may still be serving predictions concurrently.
func (m *Model) adoptPrevious(prev *Model) {
	m.Mean = append([]float64(nil), prev.Mean...)
	m.Std = append([]float64(nil), prev.Std...)
	m.ConstantCols = append([]int(nil), prev.ConstantCols...)
	m.YMean, m.YStd = prev.YMean, prev.YStd
	cd := func(d dense) dense {
		return dense{In: d.In, Out: d.Out,
			W: append([]float64(nil), d.W...), B: append([]float64(nil), d.B...)}
	}
	m.Shared = cd(prev.Shared)
	m.Out = cd(prev.Out)
	m.StepFC = make([]dense, len(prev.StepFC))
	m.AttFC = make([]dense, len(prev.AttFC))
	for s := range prev.StepFC {
		m.StepFC[s] = cd(prev.StepFC[s])
		m.AttFC[s] = cd(prev.AttFC[s])
	}
}

func (m *Model) restoreWeights(snap *Model) {
	copy(m.Shared.W, snap.Shared.W)
	copy(m.Shared.B, snap.Shared.B)
	copy(m.Out.W, snap.Out.W)
	copy(m.Out.B, snap.Out.B)
	for s := range m.StepFC {
		copy(m.StepFC[s].W, snap.StepFC[s].W)
		copy(m.StepFC[s].B, snap.StepFC[s].B)
		copy(m.AttFC[s].W, snap.AttFC[s].W)
		copy(m.AttFC[s].B, snap.AttFC[s].B)
	}
}

// Save gob-encodes the model.
func (m *Model) Save(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(m); err != nil {
		return fmt.Errorf("tabnet: encode model: %w", err)
	}
	return nil
}

// Load decodes a model written by Save.
func Load(r io.Reader) (*Model, error) {
	var m Model
	if err := gob.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("tabnet: decode model: %w", err)
	}
	return &m, nil
}
