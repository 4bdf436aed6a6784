// Package shap implements Kernel SHAP (Lundberg & Lee, NeurIPS 2017) — the
// AI-interpretation method AIIO uses as its diagnosis function (Section 3.3,
// Eq. 4). Given a performance function f and a job's counter vector x, the
// explainer allocates f(x) − f(background) across the counters as Shapley
// values C_j: negative C_j marks a counter as an I/O bottleneck.
//
// Two estimators are provided behind one API:
//
//   - exact enumeration of all coalitions when the number of active
//     features is small (≤ MaxExact), which yields exact Shapley values;
//   - the Kernel SHAP weighted-least-squares estimator otherwise, over a
//     coalition plan (see plan) chosen by shap.KernelExplainer's rules —
//     complete size levels while their kernel-weight share of the budget
//     covers them, complement-paired sampling for the rest — and solved
//     with the efficiency constraint (Σ C_j = f(x) − f(background))
//     eliminated analytically.
//
// The paper's sparsity rule is enforced structurally: features equal to the
// background (zero, for AIIO's zero background filter) are never perturbed
// and receive exactly zero contribution, which is the robustness property
// Section 3.3 contrasts with Gauge.
package shap

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"github.com/hpc-repro/aiio/internal/linalg"
)

// PredictFunc evaluates the model on a batch of rows (one prediction per
// row). Batch evaluation lets tree ensembles and networks amortize work and
// parallelize internally.
type PredictFunc func(x *linalg.Matrix) []float64

// Config tunes the explainer.
type Config struct {
	// MaxExact is the largest active-feature count for which all 2^M
	// coalitions are enumerated (exact Shapley values). Above it the
	// sampling estimator runs.
	MaxExact int
	// NSamples is the coalition budget for the sampling estimator. Zero (the
	// default) is the shap package's "auto": 2·M + 2048 for M active
	// features.
	NSamples int
	// Ridge is the regularization of the WLS solve.
	Ridge float64
	Seed  int64
}

// DefaultConfig is the shap package's auto budget (NSamples 0) with exact
// enumeration up to 12 active features.
func DefaultConfig() Config {
	return Config{
		MaxExact: 12,
		Ridge:    1e-9,
		Seed:     1,
	}
}

// Explanation is the diagnosis of one job under one performance function.
type Explanation struct {
	// Phi are the per-feature contributions C_j; exactly zero for features
	// equal to the background.
	Phi []float64
	// Base is E[f] — here f(background), the expected performance with no
	// counters active.
	Base float64
	// FX is f(x).
	FX float64
	// Exact records whether the exact enumerator ran.
	Exact bool
}

// AdditivityError returns |Base + Σ Phi − FX|, the local-accuracy residual
// (zero up to float rounding for both estimators by construction).
func (e *Explanation) AdditivityError() float64 {
	s := e.Base
	for _, p := range e.Phi {
		s += p
	}
	return math.Abs(s - e.FX)
}

// Explainer computes SHAP values against a fixed background. It holds no
// per-call state: the coalition plan is immutable and shared (see planFor)
// and the input matrix and right-hand side live in a scratch slab borrowed
// from a pool for the duration of one call, so one Explainer serves any
// number of goroutines and the steady-state allocations of an Explain are
// the returned Phi slice and the model's own output batches.
type Explainer struct {
	// f evaluates the background and the input: Base and FX.
	f PredictFunc
	// coalitions evaluates the coalition batches; f unless the explainer
	// was built by NewCoalitions.
	coalitions PredictFunc
	background []float64
	cfg        Config
}

// scratchPool shares scratch slabs across all explainers and goroutines, so
// the hundreds of kilobytes of coalition inputs a diagnosis writes stay warm
// from job to job instead of being re-allocated and re-zeroed.
var scratchPool = sync.Pool{New: func() any { return &scratch{} }}

// scratch is the reusable buffer set of one Explain call.
type scratch struct {
	active []int
	zero   []float64 // the all-zero background; never written
	pair   []float64 // 2-row matrix backing for evalPair
	inputs []float64 // coalition input matrix backing
	rhs    []float64 // ZᵀWy of the sampled estimator
	sizeW  []float64 // per-coalition-size Shapley weights of the enumerator
}

// growF returns buf resized to n floats, reusing its capacity; contents are
// unspecified (every caller fully overwrites).
func growF(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// New creates an explainer that evaluates every row through f. AIIO
// initializes the background filter to zero (Section 3.3); pass nil for an
// all-zero background of the input's size.
func New(f PredictFunc, background []float64, cfg Config) *Explainer {
	return NewCoalitions(f, f, background, cfg)
}

// NewCoalitions creates an explainer that evaluates the background and the
// input through f and every coalition batch through coalitions: the
// networks' float32 predictor (DESIGN.md §8). Base and FX, and so the
// prediction a diagnosis reports and the sum its contributions add up to,
// are f's; only the coalition values that apportion FX − Base among the
// counters come from coalitions.
func NewCoalitions(f, coalitions PredictFunc, background []float64, cfg Config) *Explainer {
	if cfg.MaxExact <= 0 {
		cfg.MaxExact = DefaultConfig().MaxExact
	}
	if cfg.Ridge <= 0 {
		cfg.Ridge = DefaultConfig().Ridge
	}
	return &Explainer{f: f, coalitions: coalitions, background: background, cfg: cfg}
}

// Explain computes the SHAP values of x.
func (e *Explainer) Explain(x []float64) Explanation {
	out, _ := e.ExplainContext(context.Background(), x)
	return out
}

// ExplainContext computes the SHAP values of x with cooperative
// cancellation: the model is evaluated in row chunks and ctx is checked
// between chunks, so a slow performance function cannot pin a worker past
// its deadline. On cancellation the partial explanation is discarded and
// ctx's error is returned. Chunked evaluation is bitwise-identical to a
// single batch call because every AIIO model predicts rows independently.
// The only other error is a coalition plan whose normal matrix cannot be
// factorized (see sampled).
func (e *Explainer) ExplainContext(ctx context.Context, x []float64) (Explanation, error) {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)

	bg := e.background
	if bg == nil {
		if cap(sc.zero) < len(x) {
			sc.zero = make([]float64, len(x))
		}
		bg = sc.zero[:len(x)]
	}
	if len(bg) != len(x) {
		panic(fmt.Sprintf("shap: background dim %d vs input dim %d", len(bg), len(x)))
	}

	// Active set: features differing from the background.
	active := sc.active[:0]
	for j := range x {
		if x[j] != bg[j] {
			active = append(active, j)
		}
	}
	sc.active = active

	out := Explanation{Phi: make([]float64, len(x))}
	base, fx, err := e.evalPair(ctx, sc, bg, x)
	if err != nil {
		return Explanation{}, err
	}
	out.Base = base
	out.FX = fx

	switch {
	case len(active) == 0:
		return out, nil
	case len(active) == 1:
		out.Phi[active[0]] = fx - base
		out.Exact = true
		return out, nil
	case len(active) <= e.cfg.MaxExact:
		err = e.exact(ctx, sc, x, bg, active, &out)
	default:
		err = e.sampled(ctx, sc, x, bg, active, &out)
	}
	if err != nil {
		return Explanation{}, err
	}
	return out, nil
}

// evalPair evaluates f on the background and the full input in one batch.
func (e *Explainer) evalPair(ctx context.Context, sc *scratch, bg, x []float64) (base, fx float64, err error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	sc.pair = growF(sc.pair, 2*len(x))
	m := &linalg.Matrix{Rows: 2, Cols: len(x), Data: sc.pair}
	copy(m.Row(0), bg)
	copy(m.Row(1), x)
	p := e.f(m)
	return p[0], p[1], nil
}

// evalChunkRows is the row-chunk size of cancellable model evaluation; ctx
// is consulted between chunks.
const evalChunkRows = 512

// EvalChunked evaluates f on every row of inputs. When ctx can be cancelled
// the evaluation proceeds in chunks of evalChunkRows with a ctx check
// between chunks; a background context takes the single-call fast path.
// Both paths return identical values (row-independent models). The lime
// package shares this helper for its perturbation batches.
func EvalChunked(ctx context.Context, f PredictFunc, inputs *linalg.Matrix) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if ctx.Done() == nil || inputs.Rows <= evalChunkRows {
		return f(inputs), nil
	}
	out := make([]float64, inputs.Rows)
	for lo := 0; lo < inputs.Rows; lo += evalChunkRows {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		hi := lo + evalChunkRows
		if hi > inputs.Rows {
			hi = inputs.Rows
		}
		sub := &linalg.Matrix{Rows: hi - lo, Cols: inputs.Cols, Data: inputs.Data[lo*inputs.Cols : hi*inputs.Cols]}
		copy(out[lo:hi], f(sub))
	}
	return out, nil
}

// exact enumerates all 2^M coalitions of the active features and computes
// exact Shapley values from the marginal contributions.
func (e *Explainer) exact(ctx context.Context, sc *scratch, x, bg []float64, active []int, out *Explanation) error {
	m := len(active)
	n := 1 << m

	// Evaluate f on every coalition input (matrix backing reused).
	sc.inputs = growF(sc.inputs, n*len(x))
	inputs := &linalg.Matrix{Rows: n, Cols: len(x), Data: sc.inputs}
	for mask := 0; mask < n; mask++ {
		row := inputs.Row(mask)
		copy(row, bg)
		for v := uint64(mask); v != 0; v &= v - 1 {
			j := active[bits.TrailingZeros64(v)]
			row[j] = x[j]
		}
	}
	vals, err := EvalChunked(ctx, e.coalitions, inputs)
	if err != nil {
		return err
	}
	// The empty and the full coalition are the background and x, whose
	// values f gave as Base and FX. Taking those keeps Σ φ = FX − Base
	// exact when coalitions computes in lower precision, and changes
	// nothing when it is f (every model predicts rows independently).
	vals[0], vals[n-1] = out.Base, out.FX

	// Precompute |S|!(M-|S|-1)!/M! per coalition size.
	weight := growF(sc.sizeW, m)
	sc.sizeW = weight
	for s := 0; s < m; s++ {
		weight[s] = 1 / (float64(m) * binom(m-1, s))
	}

	for b := 0; b < m; b++ {
		bit := 1 << b
		phi := 0.0
		for mask := 0; mask < n; mask++ {
			if mask&bit != 0 {
				continue
			}
			s := bits.OnesCount64(uint64(mask))
			phi += weight[s] * (vals[mask|bit] - vals[mask])
		}
		out.Phi[active[b]] = phi
	}
	out.Exact = true
	return nil
}

// binom returns C(n, k) as float64.
func binom(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	r := 1.0
	for i := 0; i < k; i++ {
		r = r * float64(n-i) / float64(i+1)
	}
	return r
}

// splitmix64 is Vigna's SplitMix64 generator, the source of a coalition
// plan's random draws: it seeds in O(1) with a single add, where math/rand's
// default lagged-Fibonacci source walks a 607-word warm-up. It implements
// rand.Source64, so rand.Rand draws whole words from it.
type splitmix64 struct{ s uint64 }

func (s *splitmix64) Uint64() uint64 {
	s.s += 0x9e3779b97f4a7c15
	z := s.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix64) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s *splitmix64) Seed(seed int64) { s.s = uint64(seed) }

// sampled runs the Kernel SHAP weighted-least-squares estimator over the
// coalition plan of len(active) features: fill the plan's coalition inputs,
// evaluate f on them in one batch, accumulate ZᵀWy by walking each row's
// support bits, and solve against the plan's Cholesky factor. Nothing here
// is random — the plan fixed the coalitions — so repeated explanations of
// the same input agree bitwise. A plan whose normal matrix could not be
// factorized yields an error, never made-up contributions.
func (e *Explainer) sampled(ctx context.Context, sc *scratch, x, bg []float64, active []int, out *Explanation) error {
	m := len(active)
	budget := e.cfg.NSamples
	if budget <= 0 {
		budget = 2*m + 2048 // shap's "auto"
	}
	p := planFor(m, budget, e.cfg.Seed, e.cfg.Ridge)
	if p.err != nil {
		return fmt.Errorf("shap: %d coalitions of %d features (ridge %g): %w", p.rows(), m, e.cfg.Ridge, p.err)
	}
	n, words := p.rows(), p.words

	// A + row is the background with its support switched to x; a − row is
	// x with its support switched back to the background.
	sc.inputs = growF(sc.inputs, n*len(x))
	inputs := &linalg.Matrix{Rows: n, Cols: len(x), Data: sc.inputs}
	for i := 0; i < n; i++ {
		from, to := bg, x
		if p.weight[i] < 0 {
			from, to = x, bg
		}
		row := inputs.Row(i)
		copy(row, from)
		for wi, v := range p.support[i*words : (i+1)*words] {
			for ; v != 0; v &= v - 1 {
				j := active[wi<<6+bits.TrailingZeros64(v)]
				row[j] = to[j]
			}
		}
	}
	vals, err := EvalChunked(ctx, e.coalitions, inputs)
	if err != nil {
		return err
	}

	// ZᵀWy: a + row's target is f(S) − f(bg), a − row's is f(S) − f(x), and
	// the signed weight carries the row's ±1 entries.
	rhs := growF(sc.rhs, m-1)
	sc.rhs = rhs
	for b := range rhs {
		rhs[b] = 0
	}
	for i := 0; i < n; i++ {
		w := p.weight[i]
		t := w * (vals[i] - out.Base)
		if w < 0 {
			t = w * (vals[i] - out.FX)
		}
		for wi, v := range p.support[i*words : (i+1)*words] {
			for ; v != 0; v &= v - 1 {
				rhs[wi<<6+bits.TrailingZeros64(v)] += t
			}
		}
	}
	beta := linalg.CholeskySolve(p.chol, rhs)
	sum := 0.0
	for b, v := range beta {
		out.Phi[active[b]] = v
		sum += v
	}
	out.Phi[active[m-1]] = out.FX - out.Base - sum
	return nil
}

// forEachSubset enumerates all k-subsets of {0..n-1} in lexicographic order.
func forEachSubset(n, k int, fn func(idx []int)) {
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		fn(idx)
		// Advance.
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}
