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
	return fit(cfg, x, y, evalX, evalY, prev, (*Model).batchStep)
}

// stepper returns the mini-batch step of a fit of m on the standardized
// rows xs and targets ys: it accumulates the batch's gradients into g, a
// network of m's shape, drawing dropout from rng. layers are the fit's
// packed forward layers, which the step may re-pack from m's weights.
type stepper func(m, g *Model, xs *linalg.Matrix, ys []float64, rng *rand.Rand, layers []*linalg.Dense) func(batch []int)

// batchStep is the blocked step of backprop.go. It reuses one set of
// batch-sized scratch slabs for every mini-batch of every epoch.
func (m *Model) batchStep(g *Model, xs *linalg.Matrix, ys []float64, rng *rand.Rand, layers []*linalg.Dense) func(batch []int) {
	ts := newTrainScratch(m, m.Config.BatchSize, xs.Cols, layers)
	return func(batch []int) { m.trainStepFast(ts, batch, xs, ys, g, rng) }
}

// fit is TrainSeeded with the mini-batch step newStep builds.
func fit(cfg Config, x *linalg.Matrix, y []float64, evalX *linalg.Matrix, evalY []float64, prev *Model, newStep stepper) (*Model, error) {
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
	// is first asked for a prediction. The batched step runs its forward
	// products on it, re-packing it before every mini-batch, and every
	// evaluation re-packs it, so both read the weights as they are then.
	layers := packLayers(nil, m.Dense)
	loop := nn.Loop{
		Epochs: cfg.Epochs, BatchSize: cfg.BatchSize, EarlyStoppingRounds: cfg.EarlyStoppingRounds,
		LearningRate: cfg.LearningRate, Rng: rng,
		Params: m.params(), Grads: g.params(), State: m.state(), Step: newStep(m, g, xs, ys, rng, layers),
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
