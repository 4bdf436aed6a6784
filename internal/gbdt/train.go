package gbdt

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"github.com/hpc-repro/aiio/internal/linalg"
	"github.com/hpc-repro/aiio/internal/parallel"
)

// Variant selects the tree-growth strategy.
type Variant int

// The three growth strategies, matching the paper's gradient-boosting
// models.
const (
	// LevelWise grows depth-synchronously (XGBoost).
	LevelWise Variant = iota
	// LeafWise grows best-gain-first with a leaf budget and GOSS (LightGBM).
	LeafWise
	// Oblivious grows symmetric trees with per-tree bagging (CatBoost).
	Oblivious
)

// String names the variant after the library it models.
func (v Variant) String() string {
	switch v {
	case LevelWise:
		return "xgboost"
	case LeafWise:
		return "lightgbm"
	case Oblivious:
		return "catboost"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Config holds the training hyperparameters. The defaults follow the
// paper's practice of keeping library defaults.
type Config struct {
	Variant      Variant
	Rounds       int
	LearningRate float64
	// MaxDepth bounds LevelWise and Oblivious trees.
	MaxDepth int
	// MaxLeaves bounds LeafWise trees.
	MaxLeaves int
	// MinChildWeight is the minimum hessian sum in a child.
	MinChildWeight float64
	// Lambda is the L2 regularizer on leaf values.
	Lambda float64
	// Gamma is the minimum gain required to split.
	Gamma float64
	// MaxBins caps the histogram bins per feature.
	MaxBins int
	// Subsample is the per-tree row sampling rate (Oblivious bagging).
	Subsample float64
	// ColSample is the per-tree feature sampling rate.
	ColSample float64
	// GOSS enables gradient-based one-side sampling (LeafWise).
	GOSS          bool
	GOSSTopRate   float64
	GOSSOtherRate float64
	// EarlyStoppingRounds stops training when the eval RMSE has not
	// improved for this many rounds (the paper uses 10). Zero disables.
	EarlyStoppingRounds int
	Seed                int64
}

// DefaultConfig returns library-default-like hyperparameters for a variant.
func DefaultConfig(v Variant) Config {
	cfg := Config{
		Variant:             v,
		Rounds:              300,
		LearningRate:        0.1,
		MaxDepth:            6,
		MaxLeaves:           31,
		MinChildWeight:      1,
		Lambda:              1,
		Gamma:               0,
		MaxBins:             MaxBins,
		Subsample:           1,
		ColSample:           1,
		EarlyStoppingRounds: 10,
		Seed:                1,
	}
	switch v {
	case LeafWise:
		cfg.GOSS = true
		cfg.GOSSTopRate = 0.2
		cfg.GOSSOtherRate = 0.1
	case Oblivious:
		cfg.Subsample = 0.8
	}
	return cfg
}

// Model is a trained boosted ensemble.
type Model struct {
	Config Config
	Bins   *BinMapper
	Trees  []*Tree
	// Base is the initial prediction (mean of the training targets).
	Base float64
	// BestIteration is the tree count selected by early stopping.
	BestIteration int
	// TrainLoss and EvalLoss record the per-round RMSE curves (the paper's
	// Fig. 16 plots the eval curve for XGBoost).
	TrainLoss []float64
	EvalLoss  []float64
	// Gain accumulates total split gain per feature (importance).
	Gain []float64
}

// Predict returns the model output for one raw feature vector.
func (m *Model) Predict(x []float64) float64 {
	s := m.Base
	for _, t := range m.Trees {
		s += t.Predict(x)
	}
	return s
}

// PredictBatch predicts every row of x in parallel.
func (m *Model) PredictBatch(x *linalg.Matrix) []float64 {
	out := make([]float64, x.Rows)
	m.PredictBatchInto(x, out)
	return out
}

// PredictBatchInto predicts every row of x into out (len(out) == x.Rows)
// without allocating. Within each shard the walk is trees-outer/rows-inner:
// one tree's SoA arrays stay cache-hot while the whole row block streams
// through it, instead of re-touching every tree per row.
func (m *Model) PredictBatchInto(x *linalg.Matrix, out []float64) {
	if len(out) != x.Rows {
		panic(fmt.Sprintf("gbdt: PredictBatchInto out %d, want %d", len(out), x.Rows))
	}
	parallelFor(x.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = m.Base
		}
		for _, t := range m.Trees {
			t.accumulateRows(x, lo, hi, out)
		}
	})
}

// parallelFor splits [0, n) across the shared bounded worker pool; small
// batches stay sequential because the per-row work is a few tree walks.
func parallelFor(n int, fn func(lo, hi int)) {
	if n < 256 {
		fn(0, n)
		return
	}
	parallel.For(n, 0, fn)
}

// trainer carries the per-fit state.
type trainer struct {
	cfg   Config
	bins  *BinMapper
	cols  [][]uint8 // column-major binned training features
	nBins []int
	y     []float64
	grad  []float64
	hess  []float64
	pred  []float64
	rng   *rand.Rand

	// Per-tree sampling state.
	idx      []int32 // sample indices the current tree trains on
	features []int   // feature subset for the current tree
	order    []int32 // GOSS selection scratch (row permutation)
	topMark  []bool  // GOSS scratch: row is in the top-gradient set

	// histPool recycles node histograms across nodes and trees; with the
	// paper's 86-feature schema each one is a multi-KB slab, and without the
	// pool every expanded node allocates two.
	histPool []*histogram
	// splitScratch is bestSplit's per-feature candidate buffer, reused
	// across nodes (parallelFor writes disjoint slots, so no aliasing).
	splitScratch []splitCandidate
	// levelGain is buildOblivious's per-(slot, bin) candidate total,
	// reused across levels and trees.
	levelGain []float64
	// noSubtract makes childHists build both children from their samples:
	// the ablation of the histogram-subtraction trick, which a test's
	// builder sets before it grows a tree (see train's build).
	noSubtract bool
}

// Train fits a boosted ensemble on x/y. evalX/evalY form the held-out set
// used for early stopping and the eval-loss curve; they may be nil to train
// for the full round budget.
func Train(cfg Config, x *linalg.Matrix, y []float64, evalX *linalg.Matrix, evalY []float64) (*Model, error) {
	return train(cfg, x, y, evalX, evalY, nil, nil, (*trainer).buildTree)
}

// TrainSeeded fits like Train but continues boosting from a CheckWarmStart
// seed, reusing the bins the check fit, and cold-starts when seed is nil.
// The new model starts from the prior model's base score and trees (shared
// by pointer — trees are immutable once built) and cfg.Rounds adds new trees
// on top, so incremental retraining can run on a reduced round budget. Trees
// split on raw thresholds, so prior trees remain exact on the re-binned new
// data; only the new trees use the freshly fit bins. When an eval set is
// given, the seed ensemble's eval RMSE is the early-stopping baseline, so a
// warm run that never improves on its seed ships the seed trees unchanged
// (BestIteration then points at the last prior tree).
func TrainSeeded(cfg Config, x *linalg.Matrix, y []float64, evalX *linalg.Matrix, evalY []float64, seed *WarmSeed) (*Model, error) {
	if seed == nil {
		return train(cfg, x, y, evalX, evalY, nil, nil, (*trainer).buildTree)
	}
	return train(cfg, x, y, evalX, evalY, seed.prev, seed.bins, (*trainer).buildTree)
}

// train fits the ensemble; prev non-nil continues boosting from it, and a
// non-nil bins (fit on this same x by CheckWarmStart) skips the refit.
// build grows each round's tree: buildTree, or a test's reference builder.
func train(cfg Config, x *linalg.Matrix, y []float64, evalX *linalg.Matrix, evalY []float64, prev *Model, bins *BinMapper, build func(*trainer, *Model) *Tree) (*Model, error) {
	if x.Rows != len(y) {
		panic(fmt.Sprintf("gbdt: %d rows vs %d targets", x.Rows, len(y)))
	}
	if x.Rows == 0 {
		return nil, errors.New("gbdt: empty training set")
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 1
	}
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = 0.1
	}
	if cfg.MaxBins <= 0 {
		cfg.MaxBins = MaxBins
	}

	if bins == nil {
		bins = FitBins(x, cfg.MaxBins)
	}
	tr := &trainer{
		cfg:   cfg,
		bins:  bins,
		cols:  bins.BinMatrix(x),
		nBins: make([]int, x.Cols),
		y:     y,
		grad:  make([]float64, x.Rows),
		hess:  make([]float64, x.Rows),
		pred:  make([]float64, x.Rows),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
	for f := 0; f < x.Cols; f++ {
		tr.nBins[f] = bins.NumBins(f)
	}

	m := &Model{
		Config: cfg,
		Bins:   bins,
		Base:   linalg.Mean(y),
		Gain:   make([]float64, x.Cols),
	}
	if prev != nil {
		// Continue boosting: prior trees predict via their raw thresholds,
		// so the running predictions seed from the full prior ensemble.
		m.Base = prev.Base
		m.Trees = append(make([]*Tree, 0, len(prev.Trees)+cfg.Rounds), prev.Trees...)
		copy(m.Gain, prev.Gain)
		prev.PredictBatchInto(x, tr.pred)
	} else {
		for i := range tr.pred {
			tr.pred[i] = m.Base
		}
	}

	var evalPred []float64
	var evalCols [][]uint8
	if evalX != nil && evalX.Rows > 0 {
		if evalX.Rows != len(evalY) {
			panic(fmt.Sprintf("gbdt: %d eval rows vs %d eval targets", evalX.Rows, len(evalY)))
		}
		evalCols = bins.BinMatrix(evalX)
		evalPred = make([]float64, evalX.Rows)
		if prev != nil {
			prev.PredictBatchInto(evalX, evalPred)
		} else {
			for i := range evalPred {
				evalPred[i] = m.Base
			}
		}
	}

	nPrev := len(m.Trees)
	bestEval := math.Inf(1)
	bestIter := nPrev - 1 // cold: -1, immediately beaten by round 0
	sinceBest := 0
	if prev != nil && evalPred != nil {
		bestEval = rmse(evalPred, evalY)
	}

	for round := 0; round < cfg.Rounds; round++ {
		// Squared loss: gradient = residual, hessian = 1.
		for i := range tr.grad {
			tr.grad[i] = tr.pred[i] - y[i]
			tr.hess[i] = 1
		}
		tr.sampleRows()
		tr.sampleFeatures(x.Cols)

		tree := build(tr, m)
		m.Trees = append(m.Trees, tree)

		// Update running predictions with the new tree.
		parallelFor(len(tr.pred), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				tr.pred[i] += tree.predictBinned(tr.cols, i)
			}
		})
		m.TrainLoss = append(m.TrainLoss, rmse(tr.pred, y))

		if evalPred != nil {
			parallelFor(len(evalPred), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					evalPred[i] += tree.predictBinned(evalCols, i)
				}
			})
			e := rmse(evalPred, evalY)
			m.EvalLoss = append(m.EvalLoss, e)
			if e < bestEval-1e-12 {
				bestEval = e
				bestIter = nPrev + round
				sinceBest = 0
			} else {
				sinceBest++
				if cfg.EarlyStoppingRounds > 0 && sinceBest >= cfg.EarlyStoppingRounds {
					break
				}
			}
		} else {
			bestIter = nPrev + round
		}
	}

	m.BestIteration = bestIter
	m.Trees = m.Trees[:bestIter+1]
	return m, nil
}

func rmse(pred, y []float64) float64 {
	s := 0.0
	for i := range y {
		d := pred[i] - y[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(y)))
}

// sampleRows selects the current tree's training rows: GOSS for LeafWise,
// uniform bagging when Subsample < 1, everything otherwise. GOSS amplifies
// the hessian and gradient of the sampled small-gradient rows to keep the
// distribution unbiased.
func (tr *trainer) sampleRows() {
	n := len(tr.y)
	tr.idx = tr.idx[:0]
	switch {
	case tr.cfg.GOSS && tr.cfg.GOSSTopRate > 0 && tr.cfg.GOSSTopRate < 1:
		topN := int(tr.cfg.GOSSTopRate * float64(n))
		if topN < 1 {
			topN = 1
		}
		// Select the topN largest |grad| by partial quickselect — O(n)
		// instead of the former full sort — into trainer scratch, then
		// mark-and-sweep rows in ascending index order. The selected set is
		// identical to the sorted version (the order is total: |grad|
		// descending, ties by ascending index), but the remainder is now
		// sampled in index order rather than gradient order, so the rng
		// stream differs from pre-quickselect builds at equal seeds.
		if cap(tr.order) < n {
			tr.order = make([]int32, n)
			tr.topMark = make([]bool, n)
		}
		order, mark := tr.order[:n], tr.topMark[:n]
		for i := range order {
			order[i] = int32(i)
		}
		selectTopAbsGrad(order, tr.grad, topN)
		for i := range mark {
			mark[i] = false
		}
		for _, i := range order[:topN] {
			mark[i] = true
		}
		amplify := (1 - tr.cfg.GOSSTopRate) / tr.cfg.GOSSOtherRate
		for i := 0; i < n; i++ {
			if mark[i] {
				tr.idx = append(tr.idx, int32(i))
			} else if tr.rng.Float64() < tr.cfg.GOSSOtherRate {
				tr.grad[i] *= amplify
				tr.hess[i] *= amplify
				tr.idx = append(tr.idx, int32(i))
			}
		}
	case tr.cfg.Subsample > 0 && tr.cfg.Subsample < 1:
		for i := 0; i < n; i++ {
			if tr.rng.Float64() < tr.cfg.Subsample {
				tr.idx = append(tr.idx, int32(i))
			}
		}
		if len(tr.idx) == 0 {
			tr.idx = append(tr.idx, int32(tr.rng.Intn(n)))
		}
	default:
		for i := 0; i < n; i++ {
			tr.idx = append(tr.idx, int32(i))
		}
	}
}

// gossBefore is the GOSS selection order: |grad| descending with ties
// broken by ascending index. Indices are distinct, so the order is total
// and the selected top-k set is unique regardless of pivot choices.
func gossBefore(grad []float64, a, b int32) bool {
	ga, gb := math.Abs(grad[a]), math.Abs(grad[b])
	if ga != gb {
		return ga > gb
	}
	return a < b
}

// selectTopAbsGrad partially reorders order in place so order[:k] holds the
// k first rows under gossBefore (internal order unspecified). Iterative
// median-of-three quickselect with an insertion-sorted base case: expected
// O(n), no allocation — replacing the former full sort.Slice, whose closure
// compares and O(n log n) passes dominated GOSS tree setup.
func selectTopAbsGrad(order []int32, grad []float64, k int) {
	if k <= 0 || k >= len(order) {
		return
	}
	lo, hi := 0, len(order)
	for hi-lo > 16 {
		mid := lo + (hi-lo)/2
		a, b, c := order[lo], order[mid], order[hi-1]
		var pv int32
		if gossBefore(grad, a, b) {
			switch {
			case gossBefore(grad, b, c):
				pv = b
			case gossBefore(grad, a, c):
				pv = c
			default:
				pv = a
			}
		} else {
			switch {
			case gossBefore(grad, a, c):
				pv = a
			case gossBefore(grad, b, c):
				pv = c
			default:
				pv = b
			}
		}
		i, j := lo, hi-1
		for i <= j {
			for gossBefore(grad, order[i], pv) {
				i++
			}
			for gossBefore(grad, pv, order[j]) {
				j--
			}
			if i <= j {
				order[i], order[j] = order[j], order[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j + 1
		case k >= i:
			lo = i
		default:
			return // boundary landed on the pivot slot
		}
	}
	for x := lo + 1; x < hi; x++ {
		o := order[x]
		y := x
		for y > lo && gossBefore(grad, o, order[y-1]) {
			order[y] = order[y-1]
			y--
		}
		order[y] = o
	}
}

// sampleFeatures picks the feature subset for the current tree.
func (tr *trainer) sampleFeatures(nFeat int) {
	tr.features = tr.features[:0]
	if tr.cfg.ColSample <= 0 || tr.cfg.ColSample >= 1 {
		for f := 0; f < nFeat; f++ {
			tr.features = append(tr.features, f)
		}
		return
	}
	for f := 0; f < nFeat; f++ {
		if tr.rng.Float64() < tr.cfg.ColSample {
			tr.features = append(tr.features, f)
		}
	}
	if len(tr.features) == 0 {
		tr.features = append(tr.features, tr.rng.Intn(nFeat))
	}
}

// histogram is a per-node (feature, bin) accumulation of gradient and
// hessian sums, stored flat as [featureSlot][bin]{grad, hess}.
type histogram struct {
	data  []float64 // 2 * totalBins
	base  []int     // per feature slot, offset into data/2
	nBins []int
}

// newHistogram returns a histogram shaped for the current tree's feature
// subset, reusing a pooled slab when one is available. The data slab is NOT
// zeroed on reuse: every consumer either accumulates via buildHist (which
// zeroes first) or overwrites every element via subtractHist.
func (tr *trainer) newHistogram() *histogram {
	var h *histogram
	if n := len(tr.histPool); n > 0 {
		h = tr.histPool[n-1]
		tr.histPool = tr.histPool[:n-1]
	} else {
		h = &histogram{}
	}
	nf := len(tr.features)
	if cap(h.nBins) < nf {
		h.nBins = make([]int, nf)
		h.base = make([]int, nf)
	}
	h.nBins = h.nBins[:nf]
	h.base = h.base[:nf]
	total := 0
	for s, f := range tr.features {
		h.base[s] = total
		h.nBins[s] = tr.nBins[f]
		total += tr.nBins[f]
	}
	if cap(h.data) < 2*total {
		h.data = make([]float64, 2*total)
	}
	h.data = h.data[:2*total]
	return h
}

// freeHist returns h (nil is fine) to the pool; h must not be used after.
func (tr *trainer) freeHist(h *histogram) {
	if h != nil {
		tr.histPool = append(tr.histPool, h)
	}
}

// subtractHist computes dst = parent − sibling element-wise (the
// histogram-subtraction trick: a child's histogram is its parent's minus
// its sibling's, so only the smaller child needs a fresh accumulation).
func subtractHist(dst, parent, sibling *histogram) {
	linalg.ESub(dst.data, parent.data, sibling.data)
}

// childHists produces the two child histograms of a split at mid, building
// the smaller side directly and deriving the larger by subtraction (unless
// noSubtract is set, in which case both are built directly).
func (tr *trainer) childHists(parent *histogram, lo, mid, hi int) (left, right *histogram) {
	left = tr.newHistogram()
	right = tr.newHistogram()
	if tr.noSubtract || parent == nil {
		tr.buildHist(left, lo, mid)
		tr.buildHist(right, mid, hi)
		return left, right
	}
	if mid-lo <= hi-mid {
		tr.buildHist(left, lo, mid)
		subtractHist(right, parent, left)
	} else {
		tr.buildHist(right, mid, hi)
		subtractHist(left, parent, right)
	}
	return left, right
}

// build accumulates the histogram over samples idx[lo:hi], parallel across
// feature slots.
func (tr *trainer) buildHist(h *histogram, lo, hi int) {
	for i := range h.data {
		h.data[i] = 0
	}
	samples := tr.idx[lo:hi]
	parallelFor(len(tr.features), func(slo, shi int) {
		for s := slo; s < shi; s++ {
			f := tr.features[s]
			col := tr.cols[f]
			base := 2 * h.base[s]
			data := h.data
			for _, i := range samples {
				b := base + 2*int(col[i])
				data[b] += tr.grad[i]
				data[b+1] += tr.hess[i]
			}
		}
	})
}

// splitCandidate describes the best split found for a node.
type splitCandidate struct {
	gain      float64
	slot      int // index into tr.features
	bin       uint8
	gl, hl    float64
	gr, hr    float64
	sumG      float64
	sumH      float64
	valid     bool
	leftCount int
}

// leafValue is the regularized Newton step for a leaf.
func (tr *trainer) leafValue(g, h float64) float64 {
	return -g / (h + tr.cfg.Lambda) * tr.cfg.LearningRate
}

// scoreHalf is the structure score of one side.
func (tr *trainer) score(g, h float64) float64 {
	return g * g / (h + tr.cfg.Lambda)
}

// bestSplit scans a histogram for the best (feature, bin) split of a node
// with totals sumG/sumH.
func (tr *trainer) bestSplit(h *histogram, sumG, sumH float64) splitCandidate {
	best := splitCandidate{gain: 0, sumG: sumG, sumH: sumH}
	parent := tr.score(sumG, sumH)
	if cap(tr.splitScratch) < len(tr.features) {
		tr.splitScratch = make([]splitCandidate, len(tr.features))
	}
	results := tr.splitScratch[:len(tr.features)]
	parallelFor(len(tr.features), func(slo, shi int) {
		for s := slo; s < shi; s++ {
			local := splitCandidate{sumG: sumG, sumH: sumH}
			gl, hl := 0.0, 0.0
			base := 2 * h.base[s]
			// A split "at bin b" sends bins <= b left; the last bin cannot
			// be a split point.
			for b := 0; b < h.nBins[s]-1; b++ {
				g, hw := h.data[base+2*b], h.data[base+2*b+1]
				// An empty bin leaves the prefix sums unchanged, so its
				// candidate has exactly the previous bin's gain and the
				// strict > below would ignore it anyway. With far fewer
				// node samples than (feature, bin) cells, most bins are
				// empty, and skipping them skips most of the scoring.
				if g == 0 && hw == 0 {
					continue
				}
				gl += g
				hl += hw
				gr := sumG - gl
				hr := sumH - hl
				if hl < tr.cfg.MinChildWeight || hr < tr.cfg.MinChildWeight {
					continue
				}
				gain := 0.5*(tr.score(gl, hl)+tr.score(gr, hr)-parent) - tr.cfg.Gamma
				if gain > local.gain {
					local = splitCandidate{
						gain: gain, slot: s, bin: uint8(b),
						gl: gl, hl: hl, gr: gr, hr: hr,
						sumG: sumG, sumH: sumH, valid: true,
					}
				}
			}
			results[s] = local
		}
	})
	for _, c := range results {
		if c.valid && c.gain > best.gain {
			best = c
		}
	}
	return best
}

// partition reorders idx[lo:hi] so samples going left (bin <= splitBin on
// feature f) come first; returns the boundary.
func (tr *trainer) partition(lo, hi, f int, splitBin uint8) int {
	col := tr.cols[f]
	i, j := lo, hi-1
	for i <= j {
		if col[tr.idx[i]] <= splitBin {
			i++
		} else {
			tr.idx[i], tr.idx[j] = tr.idx[j], tr.idx[i]
			j--
		}
	}
	return i
}

// sums computes gradient/hessian totals over idx[lo:hi].
func (tr *trainer) sums(lo, hi int) (g, h float64) {
	for _, i := range tr.idx[lo:hi] {
		g += tr.grad[i]
		h += tr.hess[i]
	}
	return g, h
}

// buildTree dispatches on the variant.
func (tr *trainer) buildTree(m *Model) *Tree {
	switch tr.cfg.Variant {
	case LeafWise:
		return tr.buildLeafWise(m)
	case Oblivious:
		return tr.buildOblivious(m)
	default:
		return tr.buildLevelWise(m)
	}
}

// levelTask is a node pending expansion. hist is the node's (feature, bin)
// gradient histogram, either accumulated directly or derived from the
// parent's by subtraction.
type levelTask struct {
	node   int32
	lo, hi int
	sumG   float64
	sumH   float64
	depth  int
	hist   *histogram
}

// buildLevelWise grows the tree depth by depth (XGBoost style).
func (tr *trainer) buildLevelWise(m *Model) *Tree {
	t := &Tree{}
	g, h := tr.sums(0, len(tr.idx))
	root := t.leaf(tr.leafValue(g, h))
	rootHist := tr.newHistogram()
	tr.buildHist(rootHist, 0, len(tr.idx))
	queue := []levelTask{{node: root, lo: 0, hi: len(tr.idx), sumG: g, sumH: h, hist: rootHist}}
	for len(queue) > 0 {
		task := queue[0]
		queue = queue[1:]
		if task.depth >= tr.cfg.MaxDepth || task.hi-task.lo < 2 || task.hist == nil {
			tr.freeHist(task.hist)
			continue
		}
		cand := tr.bestSplit(task.hist, task.sumG, task.sumH)
		if !cand.valid {
			tr.freeHist(task.hist)
			continue
		}
		f := tr.features[cand.slot]
		mid := tr.partition(task.lo, task.hi, f, cand.bin)
		if mid == task.lo || mid == task.hi {
			tr.freeHist(task.hist)
			continue
		}
		m.Gain[f] += cand.gain
		t.setSplit(task.node, int32(f), cand.bin, tr.bins.Upper(f, cand.bin))
		left := t.leaf(tr.leafValue(cand.gl, cand.hl))
		right := t.leaf(tr.leafValue(cand.gr, cand.hr))
		t.Left[task.node] = left
		t.Right[task.node] = right
		var lh, rh *histogram
		if task.depth+1 < tr.cfg.MaxDepth {
			lh, rh = tr.childHists(task.hist, task.lo, mid, task.hi)
		}
		tr.freeHist(task.hist)
		queue = append(queue,
			levelTask{node: left, lo: task.lo, hi: mid, sumG: cand.gl, sumH: cand.hl, depth: task.depth + 1, hist: lh},
			levelTask{node: right, lo: mid, hi: task.hi, sumG: cand.gr, sumH: cand.hr, depth: task.depth + 1, hist: rh},
		)
	}
	return t
}

// leafHeapItem is a leaf with its best candidate split, ordered by gain.
type leafHeapItem struct {
	task levelTask
	cand splitCandidate
}

type leafHeap []leafHeapItem

func (h leafHeap) Len() int            { return len(h) }
func (h leafHeap) Less(i, j int) bool  { return h[i].cand.gain > h[j].cand.gain }
func (h leafHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *leafHeap) Push(x interface{}) { *h = append(*h, x.(leafHeapItem)) }
func (h *leafHeap) Pop() interface{} {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}

// buildLeafWise grows best-first until MaxLeaves (LightGBM style).
func (tr *trainer) buildLeafWise(m *Model) *Tree {
	t := &Tree{}
	g, h := tr.sums(0, len(tr.idx))
	root := t.leaf(tr.leafValue(g, h))

	evaluate := func(task levelTask) leafHeapItem {
		if task.hi-task.lo < 2 || task.hist == nil {
			tr.freeHist(task.hist)
			task.hist = nil
			return leafHeapItem{task: task}
		}
		return leafHeapItem{task: task, cand: tr.bestSplit(task.hist, task.sumG, task.sumH)}
	}

	rootHist := tr.newHistogram()
	tr.buildHist(rootHist, 0, len(tr.idx))
	pq := &leafHeap{}
	heap.Push(pq, evaluate(levelTask{node: root, lo: 0, hi: len(tr.idx), sumG: g, sumH: h, hist: rootHist}))
	leaves := 1
	for leaves < tr.cfg.MaxLeaves && pq.Len() > 0 {
		item := heap.Pop(pq).(leafHeapItem)
		if !item.cand.valid {
			tr.freeHist(item.task.hist)
			continue
		}
		task := item.task
		f := tr.features[item.cand.slot]
		mid := tr.partition(task.lo, task.hi, f, item.cand.bin)
		if mid == task.lo || mid == task.hi {
			tr.freeHist(task.hist)
			continue
		}
		m.Gain[f] += item.cand.gain
		t.setSplit(task.node, int32(f), item.cand.bin, tr.bins.Upper(f, item.cand.bin))
		left := t.leaf(tr.leafValue(item.cand.gl, item.cand.hl))
		right := t.leaf(tr.leafValue(item.cand.gr, item.cand.hr))
		t.Left[task.node] = left
		t.Right[task.node] = right
		leaves++
		lh, rh := tr.childHists(task.hist, task.lo, mid, task.hi)
		tr.freeHist(task.hist)
		heap.Push(pq, evaluate(levelTask{node: left, lo: task.lo, hi: mid, sumG: item.cand.gl, sumH: item.cand.hl, depth: task.depth + 1, hist: lh}))
		heap.Push(pq, evaluate(levelTask{node: right, lo: mid, hi: task.hi, sumG: item.cand.gr, sumH: item.cand.hr, depth: task.depth + 1, hist: rh}))
	}
	// Leaves never expanded still hold live histograms; recycle them for the
	// next tree.
	for _, it := range *pq {
		tr.freeHist(it.task.hist)
	}
	return t
}

// buildOblivious grows a symmetric tree: one (feature, bin) split per level,
// chosen to maximize the summed gain across all current leaves (CatBoost
// style).
func (tr *trainer) buildOblivious(m *Model) *Tree {
	t := &Tree{}
	g, h := tr.sums(0, len(tr.idx))
	root := t.leaf(tr.leafValue(g, h))
	level := []levelTask{{node: root, lo: 0, hi: len(tr.idx), sumG: g, sumH: h}}
	hist := tr.newHistogram()
	// total[hist.base[s]+b] is the candidate "split slot s at bin b" summed
	// over the level's leaves, sized once per tree from the subset's bins.
	if n := len(hist.data) / 2; cap(tr.levelGain) < n {
		tr.levelGain = make([]float64, n)
	}
	total := tr.levelGain[:len(hist.data)/2]

	for depth := 0; depth < tr.cfg.MaxDepth; depth++ {
		for i := range total {
			total[i] = 0
		}
		for _, task := range level {
			tr.buildHist(hist, task.lo, task.hi)
			tr.addLeafGains(hist, task.sumG, task.sumH, total)
		}
		bestGain := 0.0
		bestSlot, bestBin := -1, uint8(0)
		for s := range tr.features {
			base := hist.base[s]
			for b := 0; b < hist.nBins[s]-1; b++ {
				if total[base+b] > bestGain {
					bestGain = total[base+b]
					bestSlot = s
					bestBin = uint8(b)
				}
			}
		}
		if bestSlot < 0 {
			break
		}
		f := tr.features[bestSlot]
		m.Gain[f] += bestGain
		threshold := tr.bins.Upper(f, bestBin)

		next := make([]levelTask, 0, 2*len(level))
		for _, task := range level {
			mid := tr.partition(task.lo, task.hi, f, bestBin)
			gl, hl := tr.sums(task.lo, mid)
			gr, hr := task.sumG-gl, task.sumH-hl
			parentValue := t.Value[task.node]
			t.setSplit(task.node, int32(f), bestBin, threshold)
			lv, rv := tr.leafValue(gl, hl), tr.leafValue(gr, hr)
			// Empty children inherit the parent value so unseen samples
			// falling there still get a sensible prediction.
			if mid == task.lo {
				lv = parentValue
			}
			if mid == task.hi {
				rv = parentValue
			}
			left := t.leaf(lv)
			right := t.leaf(rv)
			t.Left[task.node] = left
			t.Right[task.node] = right
			if mid > task.lo {
				next = append(next, levelTask{node: left, lo: task.lo, hi: mid, sumG: gl, sumH: hl})
			}
			if mid < task.hi {
				next = append(next, levelTask{node: right, lo: mid, hi: task.hi, sumG: gr, sumH: hr})
			}
		}
		level = next
		if len(level) == 0 {
			break
		}
	}
	tr.freeHist(hist)
	return t
}

// addLeafGains adds one leaf's positive split gains to the level's candidate
// totals: a single running-prefix pass per feature slot, so a level costs
// O(leaves·features·bins) rather than re-summing every candidate's prefix
// from bin 0.
// Leaves arrive in level order and each prefix is the same left-to-right sum
// as a from-zero rescan, so every total is bit-identical to the quadratic
// scan's. Only positive gains are added, so a total > 0 always has a
// contributing leaf. Slots own disjoint ranges of total.
func (tr *trainer) addLeafGains(h *histogram, sumG, sumH float64, total []float64) {
	parent := tr.score(sumG, sumH)
	parallelFor(len(tr.features), func(slo, shi int) {
		for s := slo; s < shi; s++ {
			data := h.data[2*h.base[s] : 2*(h.base[s]+h.nBins[s])]
			tot := total[h.base[s] : h.base[s]+h.nBins[s]]
			gl, hl := 0.0, 0.0
			gain := 0.0
			for b := 0; b < h.nBins[s]-1; b++ {
				g, hw := data[2*b], data[2*b+1]
				// An empty bin leaves the prefix sums, and so the gain, as
				// they were at the previous bin: reuse it (bin 0 has no
				// previous gain, so it is always scored).
				if b == 0 || g != 0 || hw != 0 {
					gl += g
					hl += hw
					gr := sumG - gl
					hr := sumH - hl
					gain = 0
					if hl >= tr.cfg.MinChildWeight && hr >= tr.cfg.MinChildWeight {
						gain = 0.5*(tr.score(gl, hl)+tr.score(gr, hr)-parent) - tr.cfg.Gamma
					}
				}
				if gain > 0 {
					tot[b] += gain
				}
			}
		}
	})
}
