// Package mlp implements the paper's multilayer-perceptron performance
// function (Table 5): a fully-connected network with ReLU activations,
// batch normalization and dropout, trained with Adam on RMSE loss, with the
// same early stopping (10 rounds) as the other models. Inputs are
// standardized internally; training parallelizes the batch matrix products
// through internal/linalg.
package mlp

import (
	"io"
	"math"
	"math/rand"
	"sync"

	"github.com/hpc-repro/aiio/internal/linalg"
	"github.com/hpc-repro/aiio/internal/nn"
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
	// EvalLoss records the eval RMSE after each epoch; BestEpoch is the
	// epoch whose weights the model holds (-1: a warm fit's seed).
	EvalLoss  []float64
	BestEpoch int

	// scale standardizes inputs against Mean and Std.
	scale nn.Scaler
	// packed holds the dense layers in the linalg.Dense inference layout,
	// built once on first use: a trained model's weights never change.
	// Training never reads it — it packs the current weights into layers
	// of its own (see TrainSeeded).
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

// fwdScratch is one worker's reusable forward-pass state: the standardized
// input block, two ping-pong activation blocks (rows × a layer's OutPad),
// and the per-call fused BN scale/shift vectors.
type fwdScratch struct {
	xs           linalg.Matrix
	ping, pong   []float64
	scale, shift []float64
}

func (m *Model) getScratch() *fwdScratch {
	if s, ok := m.scratch.Get().(*fwdScratch); ok {
		return s
	}
	return &fwdScratch{}
}

func (m *Model) putScratch(s *fwdScratch) { m.scratch.Put(s) }

// Train fits the network on x/y with eval-based early stopping. evalX may be
// nil to train the full epoch budget.
func Train(cfg Config, x *linalg.Matrix, y []float64, evalX *linalg.Matrix, evalY []float64) (*Model, error) {
	return TrainSeeded(cfg, x, y, evalX, evalY, nil)
}

// TrainSeeded fits like Train but, when prev is non-nil, continues prev's
// network — weights, standardizer and target scaling — the warm start that
// lets incremental retraining run on a reduced epoch budget. prev must have
// passed CanWarmStart for cfg on x/y; a nil prev trains cold. The seed is
// the early-stopping baseline (see nn.Loop), so BestEpoch is -1 when no
// epoch beats it.
func TrainSeeded(cfg Config, x *linalg.Matrix, y []float64, evalX *linalg.Matrix, evalY []float64, prev *Model) (*Model, error) {
	if err := nn.CheckTrainingSet("mlp", x, y); err != nil {
		return nil, err
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
	m.Dense, m.BN = newLayers(x.Cols, cfg.Hidden)
	var s nn.Standardizer
	if prev != nil {
		// The standardizer comes along with the weights: the first dense
		// layer was learned against prev's input scaling, so refitting it
		// here would silently invalidate every layer.
		s = prev.standardizer().Clone()
		nn.Copy(m.state(), prev.state())
	} else {
		s = nn.FitStandardizer(x, y)
		for l := range m.Dense {
			heInit(&m.Dense[l], rng)
		}
	}
	m.Mean, m.Std, m.ConstantCols, m.YMean, m.YStd = s.Mean, s.Std, s.ConstantCols, s.YMean, s.YStd
	xs := m.scale.Into(new(linalg.Matrix), x, m.Mean, m.Std)
	ys := s.Targets(y)

	// The gradients live in a Model of m's shape, so params lists them
	// index-aligned with m's.
	g := &Model{}
	g.Dense, g.BN = newLayers(x.Cols, cfg.Hidden)
	// layers holds m.Dense packed for linalg.Dense.Forward, owned by this
	// fit: m's own lazily built pack stays unbuilt until the finished model
	// is first asked for a prediction. The fast path runs its forward
	// products on it, re-packing it before every mini-batch, and every
	// evaluation re-packs it, so both read the weights as they are then.
	layers := packLayers(nil, m.Dense)
	step := func(batch []int) { m.trainStep(batch, xs, ys, g, rng) }
	if !cfg.ReferenceKernels {
		// The fast path reuses one set of batch-sized scratch slabs for
		// every mini-batch of every epoch; only the reference path
		// allocates per batch.
		ts := newTrainScratch(m, cfg.BatchSize, x.Cols, layers)
		step = func(batch []int) { m.trainStepFast(ts, batch, xs, ys, g, rng) }
	}
	loop := nn.Loop{
		Epochs: cfg.Epochs, BatchSize: cfg.BatchSize, EarlyStoppingRounds: cfg.EarlyStoppingRounds,
		LearningRate: cfg.LearningRate, ScalarAdam: cfg.ReferenceKernels, Rng: rng,
		Params: m.params(), Grads: g.params(), State: m.state(), Step: step,
	}
	if evalX != nil && evalX.Rows > 0 {
		evalXS := m.scale.Into(new(linalg.Matrix), evalX, m.Mean, m.Std)
		loop.Eval = func() []float64 {
			packLayers(layers, m.Dense)
			return m.predictStandardized(evalXS, layers)
		}
	}
	m.EvalLoss, m.BestEpoch = loop.Run(x.Rows, evalY, prev != nil)
	return m, nil
}

// newLayers allocates the layers of an in-input network with the given
// hidden widths: Dense(h0)+ReLU, then for each further width
// Dense+BN+ReLU+Dropout, then Dense(1). Weights and biases are zero; batch
// norm starts as the identity (Gamma and running Var 1).
func newLayers(in int, hidden []int) ([]DenseState, []BNState) {
	dims := append([]int{in}, hidden...)
	dims = append(dims, 1)
	var ds []DenseState
	var bns []BNState
	for l := 0; l+1 < len(dims); l++ {
		ds = append(ds, DenseState{In: dims[l], Out: dims[l+1],
			W: make([]float64, dims[l]*dims[l+1]), B: make([]float64, dims[l+1])})
		if l > 0 && l < len(hidden) {
			dim := dims[l+1]
			bn := BNState{Dim: dim, Gamma: make([]float64, dim), Beta: make([]float64, dim),
				Mean: make([]float64, dim), Var: make([]float64, dim)}
			for j := range bn.Gamma {
				bn.Gamma[j] = 1
				bn.Var[j] = 1
			}
			bns = append(bns, bn)
		}
	}
	return ds, bns
}

// heInit draws d's weights with He initialization for ReLU networks.
func heInit(d *DenseState, rng *rand.Rand) {
	scale := math.Sqrt(2 / float64(d.In))
	for i := range d.W {
		d.W[i] = rng.NormFloat64() * scale
	}
}

// params lists the tensors Adam trains, in one fixed order: each dense
// layer's W and B, then each batch-norm layer's Gamma and Beta.
func (m *Model) params() [][]float64 {
	ts := make([][]float64, 0, 2*len(m.Dense)+4*len(m.BN))
	for i := range m.Dense {
		ts = append(ts, m.Dense[i].W, m.Dense[i].B)
	}
	for i := range m.BN {
		ts = append(ts, m.BN[i].Gamma, m.BN[i].Beta)
	}
	return ts
}

// state is params plus the batch-norm running statistics, which training
// updates outside Adam: what the best-epoch snapshot holds and a warm
// start adopts.
func (m *Model) state() [][]float64 {
	ts := m.params()
	for i := range m.BN {
		ts = append(ts, m.BN[i].Mean, m.BN[i].Var)
	}
	return ts
}

// standardizer returns the model's input and target scaling.
func (m *Model) standardizer() nn.Standardizer {
	return nn.Standardizer{Mean: m.Mean, Std: m.Std, ConstantCols: m.ConstantCols, YMean: m.YMean, YStd: m.YStd}
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
// same-shaped layers of grads. This is the reference path
// (Config.ReferenceKernels): per-row scalar loops with per-batch
// allocations, kept as the equivalence baseline for the blocked
// trainStepFast in backprop.go.
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

// Predict returns the prediction for one raw feature vector. It sits on
// the per-job advisory path, so the 1-row input and activation matrices
// come from the model's scratch pool instead of fresh allocations.
func (m *Model) Predict(x []float64) float64 {
	sc := m.getScratch()
	xs := nn.Reshape(&sc.xs, 1, len(x))
	m.scale.Row(xs.Data, x, m.Mean, m.Std)
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
		xs := m.scale.Into(&sc.xs, x, m.Mean, m.Std)
		m.forwardStandardized(xs, out, sc, layers)
		m.putScratch(sc)
		return out
	}
	parallel.For(x.Rows, 0, func(lo, hi int) {
		sc := m.getScratch()
		sub := &linalg.Matrix{Rows: hi - lo, Cols: x.Cols, Data: x.Data[lo*x.Cols : hi*x.Cols]}
		xs := m.scale.Into(&sc.xs, sub, m.Mean, m.Std)
		m.forwardStandardized(xs, out[lo:hi], sc, layers)
		m.putScratch(sc)
	})
	return out
}

// Save gob-encodes the model.
func (m *Model) Save(w io.Writer) error { return nn.Save(w, "mlp", m) }

// Load decodes a model written by Save.
func Load(r io.Reader) (*Model, error) { return nn.Load[Model](r, "mlp") }
