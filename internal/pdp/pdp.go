// Package pdp implements the traditional interpretation baselines the paper
// contrasts with SHAP in Section 3.3: the partial dependence plot (PDP,
// Friedman 2001) and a global linear-regression surrogate. Both produce
// per-counter "contributions" for a job, and both exhibit the atypical
// behaviour the paper warns about on tabular Darshan data:
//
//   - PDP averages over the whole database, so a counter's attribution for
//     one job reflects the population, not the job — and counters that are
//     zero for the job still receive non-zero attribution (non-robust);
//   - a global linear fit cannot represent the threshold/interaction
//     structure of I/O performance, so its residuals dwarf the tree models'.
//
// The ablation experiments use this package to show why AIIO's diagnosis
// function is SHAP.
package pdp

import (
	"fmt"
	"sort"

	"github.com/hpc-repro/aiio/internal/linalg"
	"github.com/hpc-repro/aiio/internal/shap"
)

// Config tunes the PDP computation.
type Config struct {
	// GridPoints is the number of evaluation points per feature (quantiles
	// of the background data).
	GridPoints int
	// BackgroundSample bounds the rows averaged over; 0 means all.
	BackgroundSample int
}

// DefaultConfig matches common library defaults.
func DefaultConfig() Config {
	return Config{GridPoints: 16, BackgroundSample: 256}
}

// Explainer computes PDP-based attributions over a background dataset.
type Explainer struct {
	f    shap.PredictFunc
	bg   *linalg.Matrix
	cfg  Config
	grid [][]float64 // per-feature evaluation points
	pd   [][]float64 // per-feature partial dependence at the grid points
	mean []float64   // per-feature mean partial dependence
}

// New precomputes the partial dependence curves of every feature over the
// background data.
func New(f shap.PredictFunc, background *linalg.Matrix, cfg Config) (*Explainer, error) {
	if background == nil || background.Rows == 0 {
		return nil, fmt.Errorf("pdp: background data required")
	}
	if cfg.GridPoints < 2 {
		cfg.GridPoints = DefaultConfig().GridPoints
	}
	bg := background
	if cfg.BackgroundSample > 0 && cfg.BackgroundSample < bg.Rows {
		sub := linalg.NewMatrix(cfg.BackgroundSample, bg.Cols)
		stride := bg.Rows / cfg.BackgroundSample
		for i := 0; i < cfg.BackgroundSample; i++ {
			copy(sub.Row(i), bg.Row(i*stride))
		}
		bg = sub
	}
	e := &Explainer{f: f, bg: bg, cfg: cfg}
	e.grid = make([][]float64, bg.Cols)
	e.pd = make([][]float64, bg.Cols)
	e.mean = make([]float64, bg.Cols)

	work := linalg.NewMatrix(bg.Rows, bg.Cols)
	for j := 0; j < bg.Cols; j++ {
		e.grid[j] = quantileGrid(bg, j, cfg.GridPoints)
		e.pd[j] = make([]float64, len(e.grid[j]))
		for gi, v := range e.grid[j] {
			for i := 0; i < bg.Rows; i++ {
				copy(work.Row(i), bg.Row(i))
				work.Row(i)[j] = v
			}
			e.pd[j][gi] = linalg.Mean(e.f(work))
			e.mean[j] += e.pd[j][gi] / float64(len(e.grid[j]))
		}
	}
	return e, nil
}

// quantileGrid returns distinct quantile points of feature j, always
// including 0 (the sparse value).
func quantileGrid(bg *linalg.Matrix, j, n int) []float64 {
	vals := make([]float64, bg.Rows)
	for i := 0; i < bg.Rows; i++ {
		vals[i] = bg.At(i, j)
	}
	sort.Float64s(vals)
	out := []float64{0}
	for k := 0; k < n; k++ {
		idx := k * (len(vals) - 1) / maxInt(n-1, 1)
		v := vals[idx]
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	sort.Float64s(out)
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// pdAt linearly interpolates the partial dependence of feature j at value v.
func (e *Explainer) pdAt(j int, v float64) float64 {
	g, pd := e.grid[j], e.pd[j]
	if v <= g[0] {
		return pd[0]
	}
	if v >= g[len(g)-1] {
		return pd[len(pd)-1]
	}
	i := sort.SearchFloat64s(g, v)
	if g[i] == v {
		return pd[i]
	}
	t := (v - g[i-1]) / (g[i] - g[i-1])
	return pd[i-1]*(1-t) + pd[i]*t
}

// Explain returns the PDP attribution of each feature for x: the centered
// partial dependence PD_j(x_j) − mean(PD_j). Note this is deliberately the
// textbook construction — it is NOT robust: zero-valued features generally
// receive non-zero attribution because PD_j(0) differs from the mean.
func (e *Explainer) Explain(x []float64) []float64 {
	out := make([]float64, len(x))
	for j, v := range x {
		out[j] = e.pdAt(j, v) - e.mean[j]
	}
	return out
}

// LinearSurrogate is a global ridge-regression surrogate diagnosis: fit
// performance ~ counters once, attribute β_j·x_j per job.
type LinearSurrogate struct {
	Beta      []float64
	Intercept float64
}

// FitLinear fits the surrogate on a dataset.
func FitLinear(x *linalg.Matrix, y []float64, ridge float64) (*LinearSurrogate, error) {
	w := make([]float64, x.Rows)
	for i := range w {
		w[i] = 1
	}
	beta, err := linalg.WeightedRidge(x, y, w, ridge, true)
	if err != nil {
		return nil, fmt.Errorf("pdp: linear surrogate: %w", err)
	}
	return &LinearSurrogate{Beta: beta[:x.Cols], Intercept: beta[x.Cols]}, nil
}

// Predict evaluates the surrogate.
func (l *LinearSurrogate) Predict(x []float64) float64 {
	return l.Intercept + linalg.Dot(l.Beta, x)
}
