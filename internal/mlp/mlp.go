// Package mlp implements the paper's multilayer-perceptron performance
// function (Table 5): a fully-connected network with ReLU activations,
// batch normalization and dropout, trained with Adam on RMSE loss, with the
// same early stopping (10 rounds) as the other models. Inputs are
// standardized internally; training parallelizes the batch matrix products
// through internal/linalg.
package mlp

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"

	"github.com/hpc-repro/aiio/internal/linalg"
	"github.com/hpc-repro/aiio/internal/parallel"
)

// Config holds the architecture and optimizer settings. The default Hidden
// sizes reproduce Table 5 of the paper.
type Config struct {
	// Hidden lists the widths of the hidden dense layers.
	Hidden []int
	// Dropout is the drop probability applied after each normalized hidden
	// block.
	Dropout float64
	// LearningRate is the Adam step size.
	LearningRate float64
	// Epochs is the maximum number of passes over the training data.
	Epochs int
	// BatchSize is the minibatch size.
	BatchSize int
	// EarlyStoppingRounds stops training when the eval RMSE has not
	// improved for this many epochs; the best-epoch weights are restored.
	EarlyStoppingRounds int
	Seed                int64
	// ReferenceKernels routes training through the original per-row scalar
	// forward/backward loops instead of the blocked fast path on the packed
	// dense kernel. The two paths compute the same gradients up to FP
	// reassociation (the fast path fuses multiply-adds); this flag exists for
	// equivalence tests, in the spirit of gbdt's DisableHistSubtraction.
	ReferenceKernels bool
	// WarmDriftTol is the input-drift score above which CanWarmStart
	// rejects seeding from a previous model (0 means DefaultWarmDriftTol).
	WarmDriftTol float64
}

// DefaultConfig returns the Table 5 architecture with typical optimizer
// settings.
func DefaultConfig() Config {
	return Config{
		Hidden:              []int{90, 89, 69, 49, 29, 9},
		Dropout:             0.2,
		LearningRate:        1e-3,
		Epochs:              200,
		BatchSize:           64,
		EarlyStoppingRounds: 10,
		Seed:                1,
	}
}

// DenseState is the serializable state of one dense layer.
type DenseState struct {
	In, Out int
	W       []float64 // Out*In, row-major by output unit
	B       []float64 // Out
}

// BNState is the serializable state of one batch-normalization layer.
type BNState struct {
	Dim         int
	Gamma, Beta []float64
	Mean, Var   []float64 // running statistics for inference
}

// Model is a trained MLP. The exported fields make it gob-serializable; the
// unexported optimizer state lives only during training.
type Model struct {
	Config Config
	Mean   []float64 // input standardization
	Std    []float64
	// ConstantCols lists input columns whose training variance was zero;
	// their Std is clamped to 1 so standardization is a no-op for them
	// instead of a divide-by-zero NaN.
	ConstantCols []int
	Dense        []DenseState // len(Hidden)+1 layers; last maps to 1 output
	BN           []BNState    // one per hidden layer except the first
	YMean        float64      // target centering
	YStd         float64
	// TrainLoss and EvalLoss record per-epoch RMSE curves.
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
	// built once on first use: a trained model's weights never change.
	// Training never reads it — it packs the current weights into layers
	// of its own (see train).
	packOnce sync.Once
	packed   []*linalg.Dense
	// scratch pools per-worker forward buffers so batch inference reuses
	// activation matrices instead of allocating per dense layer per shard.
	scratch sync.Pool
}

// layers returns the model's packed inference layers, building them on the
// first call.
func (m *Model) layers() []*linalg.Dense {
	m.packOnce.Do(func() { m.packed = packLayers(nil, m.Dense) })
	return m.packed
}

// packLayers packs ds into the linalg.Dense layout, reusing dst's layers
// when it already holds them (training re-packs into the same storage after
// every Adam step).
func packLayers(dst []*linalg.Dense, ds []DenseState) []*linalg.Dense {
	if len(dst) != len(ds) {
		dst = make([]*linalg.Dense, len(ds))
		for l := range ds {
			dst[l] = linalg.NewDense(ds[l].In, ds[l].Out)
		}
	}
	for l := range ds {
		dst[l].Pack(ds[l].W, ds[l].B)
	}
	return dst
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

// fwdScratch is one worker's reusable forward-pass state: the standardized
// input block, two ping-pong activation blocks (rows × a layer's OutPad),
// and the per-call fused BN scale/shift vectors.
type fwdScratch struct {
	xs           linalg.Matrix
	ping, pong   []float64
	scale, shift []float64
}

// reshape resizes m to rows x cols, reusing its backing array when large
// enough, and returns it. Contents are unspecified after the call.
func reshape(m *linalg.Matrix, rows, cols int) *linalg.Matrix {
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]float64, n)
	}
	m.Data = m.Data[:n]
	m.Rows, m.Cols = rows, cols
	return m
}

func (m *Model) getScratch() *fwdScratch {
	if s, ok := m.scratch.Get().(*fwdScratch); ok {
		return s
	}
	return &fwdScratch{}
}

func (m *Model) putScratch(s *fwdScratch) { m.scratch.Put(s) }

// adam is per-tensor Adam state.
type adam struct {
	m, v []float64
	t    int
}

func newAdam(n int) *adam { return &adam{m: make([]float64, n), v: make([]float64, n)} }

// step applies one Adam update. The fast path runs the vectorized
// linalg.AdamStep; reference keeps the original scalar loop (with the
// textbook bias-correction divisions) as the equivalence-mode baseline.
func (a *adam) step(w, g []float64, lr float64, reference bool) {
	a.t++
	b1, b2, eps := 0.9, 0.999, 1e-8
	c1 := 1 - math.Pow(b1, float64(a.t))
	c2 := 1 - math.Pow(b2, float64(a.t))
	if !reference {
		linalg.AdamStep(w, a.m, a.v, g, b1, b2, c1, c2, lr, eps)
		return
	}
	for i := range w {
		a.m[i] = b1*a.m[i] + (1-b1)*g[i]
		a.v[i] = b2*a.v[i] + (1-b2)*g[i]*g[i]
		w[i] -= lr * (a.m[i] / c1) / (math.Sqrt(a.v[i]/c2) + eps)
	}
}

// Train fits the network on x/y with eval-based early stopping. evalX may be
// nil to train the full epoch budget.
func Train(cfg Config, x *linalg.Matrix, y []float64, evalX *linalg.Matrix, evalY []float64) (*Model, error) {
	return train(cfg, x, y, evalX, evalY, nil)
}

// TrainWarm fits like Train but seeds the network, standardizer, and target
// scaling from prev — the warm start that lets incremental retraining run on
// a reduced epoch budget. When CanWarmStart rejects prev (architecture or
// feature-schema mismatch, input drift past the tolerance) it falls back to
// a cold start with the same cfg. Before the first epoch the seed weights
// are scored on the eval set and held as the early-stopping baseline, so a
// diverging warm run can never ship worse weights than it started with
// (BestEpoch is -1 when the seed weights win).
func TrainWarm(cfg Config, x *linalg.Matrix, y []float64, evalX *linalg.Matrix, evalY []float64, prev *Model) (*Model, error) {
	if ok, _ := CanWarmStart(prev, cfg, x, y); !ok {
		prev = nil
	}
	return train(cfg, x, y, evalX, evalY, prev)
}

func train(cfg Config, x *linalg.Matrix, y []float64, evalX *linalg.Matrix, evalY []float64, prev *Model) (*Model, error) {
	if x.Rows == 0 {
		return nil, errors.New("mlp: empty training set")
	}
	if x.Rows != len(y) {
		panic(fmt.Sprintf("mlp: %d rows vs %d targets", x.Rows, len(y)))
	}
	if len(cfg.Hidden) == 0 {
		cfg.Hidden = DefaultConfig().Hidden
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = 1e-3
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	m := &Model{Config: cfg}
	if prev != nil {
		// Warm start: continue training prev's network on the new data. The
		// standardizer comes along with the weights — the first dense layer
		// was learned against prev's input scaling, so refitting it here
		// would silently invalidate every layer.
		m.adoptPrevious(prev)
	} else {
		m.fitStandardizer(x, y)

		// Build layers: Dense(h0)+ReLU, then for each further hidden width
		// Dense+BN+ReLU+Dropout, then Dense(1).
		dims := append([]int{x.Cols}, cfg.Hidden...)
		for i := 0; i < len(cfg.Hidden); i++ {
			m.Dense = append(m.Dense, initDense(dims[i], dims[i+1], rng))
			if i > 0 {
				m.BN = append(m.BN, initBN(dims[i+1]))
			}
		}
		m.Dense = append(m.Dense, initDense(dims[len(dims)-1], 1, rng))
	}

	// Optimizer state per tensor.
	opts := make([]*adam, 0, 2*len(m.Dense)+2*len(m.BN))
	tensors := make([][]float64, 0, cap(opts))
	grads := make([][]float64, 0, cap(opts))
	addTensor := func(w []float64) int {
		opts = append(opts, newAdam(len(w)))
		tensors = append(tensors, w)
		grads = append(grads, make([]float64, len(w)))
		return len(tensors) - 1
	}
	denseW := make([]int, len(m.Dense))
	denseB := make([]int, len(m.Dense))
	for i := range m.Dense {
		denseW[i] = addTensor(m.Dense[i].W)
		denseB[i] = addTensor(m.Dense[i].B)
	}
	bnG := make([]int, len(m.BN))
	bnB := make([]int, len(m.BN))
	for i := range m.BN {
		bnG[i] = addTensor(m.BN[i].Gamma)
		bnB[i] = addTensor(m.BN[i].Beta)
	}

	xs := m.standardize(x)
	ys := make([]float64, len(y))
	for i, v := range y {
		ys[i] = (v - m.YMean) / m.YStd
	}
	var evalXS *linalg.Matrix
	if evalX != nil && evalX.Rows > 0 {
		evalXS = m.standardize(evalX)
	}

	// layers holds m.Dense packed for linalg.Dense.Forward, owned by this
	// fit: m's own lazily built pack stays unbuilt until the finished model
	// is first asked for a prediction. The fast path runs its forward
	// products on it and re-packs it after every Adam step; the reference
	// path re-packs it before each evaluation. Either way every evaluation
	// reads the weights as they are at that moment.
	layers := packLayers(nil, m.Dense)

	best := math.Inf(1)
	sinceBest := 0
	var snapshot *Model
	if prev != nil && evalXS != nil {
		// The warm seed is already a working model: score it before the
		// first epoch so early stopping restores it if no epoch improves.
		best = rmseSlices(m.predictStandardized(evalXS, layers), evalY)
		m.BestEpoch = -1
		snapshot = m.cloneWeights()
	}

	order := make([]int, x.Rows)
	for i := range order {
		order[i] = i
	}

	// The fast path reuses one set of batch-sized scratch slabs for every
	// mini-batch of every epoch; only the reference path allocates per batch.
	var ts *trainScratch
	if !cfg.ReferenceKernels {
		ts = newTrainScratch(m, cfg.BatchSize, x.Cols, layers)
	}

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for lo := 0; lo < len(order); lo += cfg.BatchSize {
			hi := lo + cfg.BatchSize
			if hi > len(order) {
				hi = len(order)
			}
			batch := order[lo:hi]
			for _, g := range grads {
				for i := range g {
					g[i] = 0
				}
			}
			if ts != nil {
				m.trainStepFast(ts, batch, xs, ys, grads, denseW, denseB, bnG, bnB, rng)
			} else {
				xb := linalg.NewMatrix(len(batch), x.Cols)
				yb := make([]float64, len(batch))
				for bi, i := range batch {
					copy(xb.Row(bi), xs.Row(i))
					yb[bi] = ys[i]
				}
				m.trainStep(xb, yb, grads, denseW, denseB, bnG, bnB, rng)
			}
			for i := range tensors {
				opts[i].step(tensors[i], grads[i], cfg.LearningRate, cfg.ReferenceKernels)
			}
			if ts != nil {
				ts.pack(m)
			}
		}

		if ts == nil {
			packLayers(layers, m.Dense)
		}
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

func initDense(in, out int, rng *rand.Rand) DenseState {
	d := DenseState{In: in, Out: out, W: make([]float64, in*out), B: make([]float64, out)}
	// He initialization for ReLU networks.
	scale := math.Sqrt(2 / float64(in))
	for i := range d.W {
		d.W[i] = rng.NormFloat64() * scale
	}
	return d
}

func initBN(dim int) BNState {
	bn := BNState{
		Dim:   dim,
		Gamma: make([]float64, dim),
		Beta:  make([]float64, dim),
		Mean:  make([]float64, dim),
		Var:   make([]float64, dim),
	}
	for i := range bn.Gamma {
		bn.Gamma[i] = 1
		bn.Var[i] = 1
	}
	return bn
}

func (m *Model) fitStandardizer(x *linalg.Matrix, y []float64) {
	m.Mean = make([]float64, x.Cols)
	m.Std = make([]float64, x.Cols)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		for j, v := range row {
			m.Mean[j] += v
		}
	}
	n := float64(x.Rows)
	for j := range m.Mean {
		m.Mean[j] /= n
	}
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		for j, v := range row {
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

func (m *Model) standardize(x *linalg.Matrix) *linalg.Matrix {
	return m.standardizeInto(linalg.NewMatrix(x.Rows, x.Cols), x)
}

// standardizeInto writes the standardized rows of x into dst (resized as
// needed) using the guarded reciprocal stddev.
func (m *Model) standardizeInto(dst, x *linalg.Matrix) *linalg.Matrix {
	inv := m.inputInvStd()
	out := reshape(dst, x.Rows, x.Cols)
	for i := 0; i < x.Rows; i++ {
		// (v-mean)/std computed as v*inv - mean*inv with a cached shift
		// vector — one fused multiply-add per element.
		linalg.ScaleShiftInto(out.Row(i), x.Row(i), inv, m.stdShift)
	}
	return out
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

// trainStep runs one forward/backward pass on a standardized batch,
// accumulating gradients into grads (indexed by the tensor ids). This is
// the reference path (Config.ReferenceKernels): per-row scalar loops with
// per-batch allocations, kept as the equivalence baseline for the blocked
// trainStepFast in backprop.go.
func (m *Model) trainStep(xb *linalg.Matrix, yb []float64, grads [][]float64,
	denseW, denseB, bnG, bnB []int, rng *rand.Rand) {

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
		grads[denseW[nHidden]], grads[denseB[nHidden]])
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
				grads[bnG[l-1]], grads[bnB[l-1]])
		}
		g = denseBackward(&m.Dense[l], acts[l], g, grads[denseW[l]], grads[denseB[l]])
	}
}

// predictStandardized runs inference on already-standardized inputs with
// the given packed layers, returning predictions in the original target
// scale.
func (m *Model) predictStandardized(xs *linalg.Matrix, layers []*linalg.Dense) []float64 {
	out := make([]float64, xs.Rows)
	sc := m.getScratch()
	m.forwardStandardized(xs, out, sc, layers)
	m.putScratch(sc)
	return out
}

// forwardStandardized runs the eval forward pass over the standardized
// block xs using one worker's scratch buffers, writing target-scale
// predictions into out (len(out) == xs.Rows). Every dense layer is one
// linalg.Dense.Forward call over the whole block; activations ping-pong
// between the two scratch blocks, each row OutPad wide, so the pass
// allocates nothing in steady state. Each output is bitwise independent of
// the block's size and of its row's position in it. xs is not modified.
func (m *Model) forwardStandardized(xs *linalg.Matrix, out []float64, sc *fwdScratch, layers []*linalg.Dense) {
	nHidden := len(m.Config.Hidden)
	rows := xs.Rows
	h, stride := xs.Data, xs.Cols
	bufs := [2]*[]float64{&sc.ping, &sc.pong}
	for l, d := range layers {
		// Rows run sequentially here: callers already shard batches across
		// the worker pool.
		n := rows * d.OutPad
		if buf := bufs[l&1]; cap(*buf) < n {
			*buf = make([]float64, n)
		}
		dst := (*bufs[l&1])[:n]
		d.Forward(dst, d.OutPad, h, stride, rows)
		h, stride = dst, d.OutPad
		if l == nHidden {
			break
		}
		if l > 0 {
			// Fold eval-mode BN into one scale/shift pair per column, then
			// apply it fused with the ReLU in a single pass over each row.
			bn := &m.BN[l-1]
			if cap(sc.scale) < bn.Dim {
				sc.scale = make([]float64, bn.Dim)
				sc.shift = make([]float64, bn.Dim)
			}
			scale := sc.scale[:bn.Dim]
			shift := sc.shift[:bn.Dim]
			for j := 0; j < bn.Dim; j++ {
				s := bn.Gamma[j] / math.Sqrt(bn.Var[j]+1e-5)
				scale[j] = s
				shift[j] = bn.Beta[j] - bn.Mean[j]*s
			}
			for i := 0; i < rows; i++ {
				linalg.ScaleShiftReLU(h[i*stride:i*stride+d.Out], scale, shift)
			}
		} else {
			// The padding columns hold zeros; rectifying them too keeps
			// this one call over the block.
			linalg.ReLU(h)
		}
	}
	for i := range out {
		out[i] = h[i*stride]*m.YStd + m.YMean
	}
}

func (m *Model) rmseStandardized(xs *linalg.Matrix, ys []float64, layers []*linalg.Dense) float64 {
	pred := m.predictStandardized(xs, layers)
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

// Predict returns the prediction for one raw feature vector. It sits on
// the per-job advisory path, so the 1-row input and activation matrices
// come from the model's scratch pool instead of fresh allocations.
func (m *Model) Predict(x []float64) float64 {
	sc := m.getScratch()
	xs := reshape(&sc.xs, 1, len(x))
	inv := m.inputInvStd()
	linalg.ScaleShiftInto(xs.Data, x, inv, m.stdShift)
	var out [1]float64
	m.forwardStandardized(xs, out[:], sc, m.layers())
	m.putScratch(sc)
	return out[0]
}

// predictParallelMinRows is the batch size below which sharding a forward
// pass across cores costs more than the dense products it saves.
const predictParallelMinRows = 64

// PredictBatch predicts every row of x, sharding large batches (SHAP
// coalition matrices, evaluation frames) across the bounded worker pool.
// Rows are independent at inference time (batch norm uses running
// statistics), so every row is bitwise identical to Predict on it, however
// the batch is sharded.
func (m *Model) PredictBatch(x *linalg.Matrix) []float64 {
	out := make([]float64, x.Rows)
	layers := m.layers()
	if x.Rows < predictParallelMinRows {
		sc := m.getScratch()
		xs := m.standardizeInto(&sc.xs, x)
		m.forwardStandardized(xs, out, sc, layers)
		m.putScratch(sc)
		return out
	}
	parallel.For(x.Rows, 0, func(lo, hi int) {
		sc := m.getScratch()
		sub := &linalg.Matrix{Rows: hi - lo, Cols: x.Cols, Data: x.Data[lo*x.Cols : hi*x.Cols]}
		xs := m.standardizeInto(&sc.xs, sub)
		m.forwardStandardized(xs, out[lo:hi], sc, layers)
		m.putScratch(sc)
	})
	return out
}

// cloneWeights snapshots the learned tensors (for early-stopping restore).
func (m *Model) cloneWeights() *Model {
	cp := &Model{}
	cp.Dense = make([]DenseState, len(m.Dense))
	for i, d := range m.Dense {
		cp.Dense[i] = DenseState{In: d.In, Out: d.Out,
			W: append([]float64(nil), d.W...), B: append([]float64(nil), d.B...)}
	}
	cp.BN = make([]BNState, len(m.BN))
	for i, bn := range m.BN {
		cp.BN[i] = BNState{Dim: bn.Dim,
			Gamma: append([]float64(nil), bn.Gamma...),
			Beta:  append([]float64(nil), bn.Beta...),
			Mean:  append([]float64(nil), bn.Mean...),
			Var:   append([]float64(nil), bn.Var...)}
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
	m.Dense = make([]DenseState, len(prev.Dense))
	for i, d := range prev.Dense {
		m.Dense[i] = DenseState{In: d.In, Out: d.Out,
			W: append([]float64(nil), d.W...), B: append([]float64(nil), d.B...)}
	}
	m.BN = make([]BNState, len(prev.BN))
	for i, bn := range prev.BN {
		m.BN[i] = BNState{Dim: bn.Dim,
			Gamma: append([]float64(nil), bn.Gamma...),
			Beta:  append([]float64(nil), bn.Beta...),
			Mean:  append([]float64(nil), bn.Mean...),
			Var:   append([]float64(nil), bn.Var...)}
	}
}

func (m *Model) restoreWeights(snap *Model) {
	for i := range m.Dense {
		copy(m.Dense[i].W, snap.Dense[i].W)
		copy(m.Dense[i].B, snap.Dense[i].B)
	}
	for i := range m.BN {
		copy(m.BN[i].Gamma, snap.BN[i].Gamma)
		copy(m.BN[i].Beta, snap.BN[i].Beta)
		copy(m.BN[i].Mean, snap.BN[i].Mean)
		copy(m.BN[i].Var, snap.BN[i].Var)
	}
}

// Save gob-encodes the model.
func (m *Model) Save(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(m); err != nil {
		return fmt.Errorf("mlp: encode model: %w", err)
	}
	return nil
}

// Load decodes a model written by Save.
func Load(r io.Reader) (*Model, error) {
	var m Model
	if err := gob.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("mlp: decode model: %w", err)
	}
	return &m, nil
}
