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
	// epoch whose weights the model holds (-1: a warm fit's seed), and
	// BestEval their eval RMSE, the score early stopping chose them by:
	// linalg.RMSE of PredictBatch on the eval set, bit for bit (0 without
	// an eval set).
	EvalLoss  []float64
	BestEpoch int
	BestEval  float64

	// scale standardizes inputs against Mean and Std.
	scale nn.Scaler
	// f64 and f32 are the float64 and float32 inference paths (see
	// inference).
	f64 inference[float64]
	f32 inference[float32]
}

// sparsemaxTauScaled returns the threshold tau of the sparsemax projection
// of v (Martins & Astudillo), using cand as candidate scratch (grown as
// needed; the grown slice is returned). Only entries greater than
// max(v)-1 can be in the support: a position passing the cumulative guard
// satisfies z > (cum-1)/(i+1) >= max(v)-1, and every earlier position in
// descending order holds a larger value still, so scanning just the
// filtered, descending candidates visits the same prefix sums — and
// produces the same tau — as scanning the full sorted input. The candidate
// set is typically a handful of entries, so a branchy insertion sort beats
// the former interface-dispatched sort.Sort by a wide margin; sparsemax was
// the hottest single call in the batch-diagnosis profile.
//
// When scale is non-nil it first sets v[i] *= scale[i] (the attention-prior
// product of the TabNet step) during the max scan, saving a separate pass
// over the logits in the hot loop. It also records the candidate indices
// in idx (ascending scan order, unlike the descending value-sorted cand),
// so the caller can restrict its support walk to the candidate superset
// instead of rescanning all features.
func sparsemaxTauScaled[T linalg.Float](v, scale, cand []T, idx []int32) (T, []T, []int32) {
	var vmax T
	var mask uint64
	fused := scale != nil && len(v) <= 64
	switch {
	case fused:
		vmax, mask = linalg.ScaleMaxMask(v, scale)
	case scale != nil:
		vmax = linalg.ScaleMax(v, scale)
	default:
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
		if !fused {
			mask = linalg.MaskGreater(v, lim)
		}
		// One vector compare yields the candidate set as a bitmask; only
		// the (few) set bits are visited, in ascending index order.
		for m := mask; m != 0; m &= m - 1 {
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
	var cum, tau T
	for i, x := range cand {
		cum += x
		t := (cum - 1) / T(i+1)
		if x > t {
			tau = t
		}
	}
	return tau, cand, idx
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// packed holds a model's inference weights in element type T: its dense
// layers in the linalg.Dense layout and the output layer's weights. The
// shared layer's WT is also the In × OutPad transpose of Shared.W that the
// masked shared pass walks one selected feature at a time (Row(i)), and its
// Bias the pass's starting value, so the shared weights exist once in the
// inference layout.
type packed[T linalg.Float] struct {
	shared    *linalg.DenseOf[T]
	att, step []*linalg.DenseOf[T]
	outW      []T
	outB      T
	ones      []T // NumFeatures ones: every row's starting attention prior
}

// pack packs m's current weights into pk's layers, allocating them when pk
// is nil, and returns pk.
func pack[T linalg.Float](m *Model, pk *packed[T]) *packed[T] {
	if pk == nil {
		pk = &packed[T]{shared: linalg.NewDenseOf[T](m.Shared.In, m.Shared.Out), outW: make([]T, len(m.Out.W)),
			ones: make([]T, m.NumFeatures)}
		for i := range pk.ones {
			pk.ones[i] = 1
		}
		for s := range m.StepFC {
			pk.att = append(pk.att, linalg.NewDenseOf[T](m.AttFC[s].In, m.AttFC[s].Out))
			pk.step = append(pk.step, linalg.NewDenseOf[T](m.StepFC[s].In, m.StepFC[s].Out))
		}
	}
	pk.shared.Pack(m.Shared.W, m.Shared.B)
	for s := range pk.att {
		pk.att[s].Pack(m.AttFC[s].W, m.AttFC[s].B)
		pk.step[s].Pack(m.StepFC[s].W, m.StepFC[s].B)
	}
	for i, w := range m.Out.W {
		pk.outW[i] = T(w)
	}
	pk.outB = T(m.Out.B[0])
	return pk
}

// inference is one precision's packed weights, built once on first use (a
// trained model's weights never change), and its pool of per-worker
// inference buffers (see infScratch). Training never reads it — its
// evaluations re-pack the current weights into their own layers (see
// TrainSeeded).
type inference[T linalg.Float] struct {
	once    sync.Once
	packed  *packed[T]
	scratch sync.Pool
}

// ready returns in's packed weights, building them from m on the first
// call.
func ready[T linalg.Float](m *Model, in *inference[T]) *packed[T] {
	in.once.Do(func() { in.packed = pack(m, in.packed) })
	return in.packed
}

// rowState is one row's step-loop state. logits, a, z, hb, z2 and hs are
// views of the row's slot in its scratch's four-row blocks, which the packed
// per-step layers read and write for every row of a block in one call; the
// rest is the row's own.
type rowState[T linalg.Float] struct {
	logits   []T // attention logits (AttFC output), NumFeatures
	a        []T // attention features (AttFC input)
	z        []T // 2H masked shared-pass pre-activation
	hb       []T // H shared GLU output (StepFC input)
	z2       []T // 2H step pre-activation (StepFC output)
	hs       []T // H step GLU output
	agg      []T // aggregated decisions
	prior    []T
	cand     []T     // sparsemax candidate buffer (descending values)
	candIdx  []int32 // sparsemax candidate indices, ascending
	sup      []int32 // sparsemax support indices, ascending
	supPrior []T     // decayed prior values for the support indices
}

// infScratch is one worker's reusable inference state: the standardized
// input block (Predict and PredictBatch), the initial shared-pass outputs of
// a shard, the four-row blocks behind the rows' layer inputs and outputs,
// and the four rows' own state.
type infScratch[T linalg.Float] struct {
	xs                       []T
	z0                       []T // rows × shared.OutPad
	logits, a, z, hb, z2, hs []T // four rows each, strided per layer
	rows                     [4]rowState[T]
}

func getScratch[T linalg.Float](in *inference[T]) *infScratch[T] {
	if s, ok := in.scratch.Get().(*infScratch[T]); ok {
		return s
	}
	return &infScratch[T]{}
}

// resize returns *p with length n, reusing its backing array when large
// enough. Contents are unspecified after the call.
func resize[T any](p *[]T, n int) []T {
	if cap(*p) < n {
		*p = make([]T, n)
	}
	*p = (*p)[:n]
	return *p
}

// bind sizes sc for the packed layers pk and points each row slot's views
// into the four-row blocks: row k of a block sits at k times the stride of
// the layer that reads (a, hb) or writes (logits, z, z2) it, or h for the
// step GLU output hs.
func bind[T linalg.Float](m *Model, sc *infScratch[T], pk *packed[T]) {
	nf, d, na := m.NumFeatures, m.Config.DecisionDim, m.Config.AttentionDim
	h := d + na
	var ls, zs int
	if len(pk.att) > 0 {
		ls, zs = pk.att[0].OutPad, pk.step[0].OutPad
	}
	ss := pk.shared.OutPad
	logits := resize(&sc.logits, 4*ls)
	a := resize(&sc.a, 4*na)
	z := resize(&sc.z, 4*ss)
	hb := resize(&sc.hb, 4*h)
	z2 := resize(&sc.z2, 4*zs)
	hs := resize(&sc.hs, 4*h)
	for k := range sc.rows {
		rs := &sc.rows[k]
		rs.logits = logits[k*ls : k*ls+nf]
		rs.a = a[k*na : (k+1)*na]
		rs.z = z[k*ss : k*ss+2*h]
		rs.hb = hb[k*h : (k+1)*h]
		rs.z2 = z2[k*zs : k*zs+2*h]
		rs.hs = hs[k*h : (k+1)*h]
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

// forwardRows is the cache-free forward pass in element type T over rows
// lo..hi of the standardized row-major block xs (cols wide), the hot path
// of batch diagnosis, writing target-scale predictions into out (len
// hi-lo). It differs from the reference forwardSample (reference_test.go)
// in three ways: all intermediates live in the worker's scratch (zero
// steady-state allocations); dense layers run on the packed linalg.Dense
// kernel — the initial shared pass as one call over the whole range, then
// the step loop walking four rows in lockstep so each per-step layer, and
// the GLU after it, is one call per four rows; and the masked shared pass
// exploits sparsemax sparsity — the mask typically keeps a handful of the
// features, so x·Wᵀ collapses to a few contiguous axpys over rows of the
// packed shared weights. Outputs agree with forwardSample to float
// rounding (see the parity tests), not bitwise: summation orders differ.
// Each prediction is bitwise independent of lo, hi and where its row falls
// in a block.
func forwardRows[T linalg.Float](m *Model, xs []T, cols, lo, hi int, out []float64, pk *packed[T], sc *infScratch[T]) {
	n := hi - lo
	bind(m, sc, pk)
	zs := pk.shared.OutPad
	z0 := resize(&sc.z0, n*zs)
	x := xs[lo*cols : hi*cols]
	pk.shared.Forward(z0, zs, x, cols, n)
	for b := 0; b < n; b += 4 {
		k := min(4, n-b)
		forwardBlock(m, x[b*cols:], cols, z0[b*zs:], zs, out[b:b+k], pk, sc)
	}
}

// forwardBlock walks len(out) ≤ 4 rows (x and their shared-pass outputs z0,
// at strides cols and zs) through the step loop in lockstep. The attention
// and step layers and the GLUs run once per step for the whole block; the
// sparsemax projection and the sparse masked shared pass stay per row,
// because what they touch depends on each row's support.
func forwardBlock[T linalg.Float](m *Model, x []T, cols int, z0 []T, zs int, out []float64, pk *packed[T], sc *infScratch[T]) {
	k := len(out)
	nf, na := m.NumFeatures, m.Config.AttentionDim
	h := m.Config.DecisionDim + na
	linalg.GLURows(sc.hb, h, z0, zs, h, k)
	for r := 0; r < k; r++ {
		stepStart(m, pk, &sc.rows[r])
	}
	for s := 0; s < m.Config.Steps; s++ {
		att := pk.att[s]
		att.Forward(sc.logits, att.OutPad, sc.a, na, k)
		for r := 0; r < k; r++ {
			stepMask(m, x[r*cols:r*cols+nf], pk.shared, &sc.rows[r])
		}
		linalg.GLURows(sc.hb, h, sc.z, pk.shared.OutPad, h, k)
		fc := pk.step[s]
		fc.Forward(sc.z2, fc.OutPad, sc.hb, h, k)
		linalg.GLURows(sc.hs, h, sc.z2, fc.OutPad, h, k)
		for r := 0; r < k; r++ {
			stepFinish(m, &sc.rows[r])
		}
	}
	for r := 0; r < k; r++ {
		y := linalg.Dot(pk.outW, sc.rows[r].agg) + pk.outB
		out[r] = float64(y)*m.YStd + m.YMean
	}
}

// stepStart initializes a row's forward state from the GLU of its
// shared-pass output, already in hb.
func stepStart[T linalg.Float](m *Model, pk *packed[T], rs *rowState[T]) {
	d := m.Config.DecisionDim
	h := d + m.Config.AttentionDim
	copy(rs.a, rs.hb[d:h])
	clear(rs.agg)
	copy(rs.prior, pk.ones)
}

// stepMask runs one row's attentive-transformer half step: sparsemax over
// the scaled logits, the sparse masked shared pass into z, and the prior
// decay. Only the sparsemax candidates can exceed tau (tau >= max-1 by
// construction), so the walk visits the handful of candidate indices, not
// every feature; mask[i] is lg-tau on the support and 0 off it — no mask
// vector exists. Off-support priors decay by the full gamma (one vector
// scale), then the support entries are overwritten with their (gamma - mv)
// product taken from the pre-decay value, so every prior matches the
// per-index scalar update bitwise.
func stepMask[T linalg.Float](m *Model, x []T, shared *linalg.DenseOf[T], rs *rowState[T]) {
	gamma := T(m.Config.Gamma)
	var tau T
	tau, rs.cand, rs.candIdx = sparsemaxTauScaled(rs.logits, rs.prior, rs.cand, rs.candIdx)
	copy(rs.z, shared.Bias)
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
}

// stepFinish consumes one row's feature-transformer GLU output hs: the
// ReLU aggregation of the decision half, and the attention handoff.
func stepFinish[T linalg.Float](m *Model, rs *rowState[T]) {
	d := m.Config.DecisionDim
	h := d + m.Config.AttentionDim
	for i := 0; i < d; i++ {
		if rs.hs[i] > 0 {
			rs.agg[i] += rs.hs[i]
		}
	}
	copy(rs.a, rs.hs[d:h])
}

// TrainSeeded fits the model with Adam and eval-based early stopping (evalX
// may be nil to train the full epoch budget). A nil prev trains cold; a
// non-nil prev, which must have passed CanWarmStart for cfg on x/y, is
// continued — network, standardizer and target scaling — so incremental
// retraining can run on a reduced epoch budget. The seed is the
// early-stopping baseline (see nn.Loop), so BestEpoch is -1 when no epoch
// beats it.
func TrainSeeded(cfg Config, x *linalg.Matrix, y []float64, evalX *linalg.Matrix, evalY []float64, prev *Model) (*Model, error) {
	return fit(cfg, x, y, evalX, evalY, prev, (*Model).batchStep)
}

// stepper returns the mini-batch step of a fit of m on the standardized rows
// xs and targets ys: it accumulates the batch's gradients into g, a network
// of m's shape.
type stepper func(m, g *Model, xs *linalg.Matrix, ys []float64) func(batch []int)

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
		LearningRate: cfg.LearningRate, Rng: rng,
		Params: m.params(), Grads: g.params(), State: m.params(), Step: newStep(m, g, xs, ys),
	}
	if evalX != nil && evalX.Rows > 0 {
		// Evaluations run on the packed inference kernel over the weights
		// as they are at that moment, re-packed into one set of
		// training-owned layers before every use; m's own lazily built pack
		// stays unbuilt until the finished model is first asked for a
		// prediction.
		evalXS := m.scale.Into(new(linalg.Matrix), evalX, m.Mean, m.Std)
		var pk *packed[float64]
		loop.Eval = func() []float64 {
			pk = pack(m, pk)
			return predictStandardized(m, &m.f64, evalXS.Data, evalXS.Cols, evalXS.Rows, pk)
		}
	}
	m.EvalLoss, m.BestEpoch, m.BestEval = loop.Run(x.Rows, evalY, prev != nil)
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

// predictStandardized runs the forward pass in element type T with the
// packed weights pk over the standardized rows × cols block xs, on the
// bounded worker pool for large batches (SHAP coalition matrices). pk is
// read-only, each worker pulls its own scratch from in's pool and owns a
// disjoint row range, and every prediction is independent of the range it
// falls in, so the sharded result is bitwise identical to a sequential pass.
func predictStandardized[T linalg.Float](m *Model, in *inference[T], xs []T, cols, rows int, pk *packed[T]) []float64 {
	out := make([]float64, rows)
	workers := 0
	if rows < predictParallelMinRows {
		workers = 1
	}
	parallel.For(rows, workers, func(lo, hi int) {
		sc := getScratch(in)
		forwardRows(m, xs, cols, lo, hi, out[lo:hi], pk, sc)
		in.scratch.Put(sc)
	})
	return out
}

// Predict returns the prediction for one raw feature vector: the
// PredictBatch path on a one-row block, so it matches PredictBatch's row
// for the same input bitwise.
func (m *Model) Predict(x []float64) float64 {
	pk := ready(m, &m.f64)
	sc := getScratch(&m.f64)
	sc.xs = nn.Standardize(&m.scale, sc.xs, &linalg.Matrix{Rows: 1, Cols: len(x), Data: x}, m.Mean, m.Std)
	var out [1]float64
	forwardRows(m, sc.xs, len(x), 0, 1, out[:], pk, sc)
	m.f64.scratch.Put(sc)
	return out[0]
}

// PredictBatch predicts every row of x in float64. The standardized block
// lives in pooled scratch so repeated batches stop allocating a fresh
// matrix per call.
func (m *Model) PredictBatch(x *linalg.Matrix) []float64 { return predictBatch(m, &m.f64, x) }

// PredictBatch32 is PredictBatch computed in float32: standardization
// rounds each input to float32, and the dense layers, sparsemax, GLUs and
// prior updates all run on float32 weights and state; only the target
// rescale returns to float64. It is Kernel SHAP's coalition-batch predictor
// (DESIGN.md §8) and serves no prediction. Each value is bitwise
// independent of the batch and of its sharding, as PredictBatch's is.
func (m *Model) PredictBatch32(x *linalg.Matrix) []float64 { return predictBatch(m, &m.f32, x) }

// predictBatch standardizes x into pooled scratch in element type T and
// predicts every row.
func predictBatch[T linalg.Float](m *Model, in *inference[T], x *linalg.Matrix) []float64 {
	pk := ready(m, in)
	sc := getScratch(in)
	sc.xs = nn.Standardize(&m.scale, sc.xs, x, m.Mean, m.Std)
	out := predictStandardized(m, in, sc.xs, x.Cols, x.Rows, pk)
	in.scratch.Put(sc)
	return out
}

// Save gob-encodes the model.
func (m *Model) Save(w io.Writer) error { return nn.Save(w, "tabnet", m) }

// Load decodes a model written by Save.
func Load(r io.Reader) (*Model, error) { return nn.Load[Model](r, "tabnet") }
