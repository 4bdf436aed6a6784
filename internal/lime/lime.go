// Package lime implements LIME (Ribeiro et al., KDD 2016) for tabular
// regression — the second interpretation method AIIO supports next to
// Kernel SHAP (Section 3.3). The explainer perturbs the job's counters by
// switching active features on and off against the zero background, weighs
// each perturbation by an exponential locality kernel on cosine distance,
// and fits a weighted ridge regression whose coefficients are the
// per-counter contributions.
//
// Like the SHAP explainer, features equal to the background are never
// perturbed and receive exactly zero contribution (the paper's robustness
// rule). LIME contributions live on their own scale; AIIO never merges LIME
// and SHAP results for that reason (Section 3.3).
package lime

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"github.com/hpc-repro/aiio/internal/linalg"
	"github.com/hpc-repro/aiio/internal/shap"
)

// Config tunes the explainer.
type Config struct {
	// NSamples is the number of perturbations.
	NSamples int
	// Ridge regularizes the local linear fit.
	Ridge float64
	Seed  int64
}

// DefaultConfig matches the lime package defaults at AIIO's scale.
func DefaultConfig() Config {
	return Config{
		NSamples: 4096,
		Ridge:    1e-3,
		Seed:     1,
	}
}

// Explanation is a local linear attribution of the prediction.
type Explanation struct {
	// Phi are the local linear coefficients scaled by feature presence:
	// the contribution of switching feature j on from the background.
	Phi []float64
	// Intercept is the local model's intercept.
	Intercept float64
	// FX is f(x).
	FX float64
	// R2-style residual of the local fit on the perturbation set.
	FitRMSE float64
}

// Explainer computes LIME attributions against a fixed background.
type Explainer struct {
	f          shap.PredictFunc
	background []float64
	cfg        Config
}

// New creates an explainer; nil background means all zeros.
func New(f shap.PredictFunc, background []float64, cfg Config) *Explainer {
	if cfg.NSamples <= 0 {
		cfg.NSamples = DefaultConfig().NSamples
	}
	if cfg.Ridge <= 0 {
		cfg.Ridge = DefaultConfig().Ridge
	}
	return &Explainer{f: f, background: background, cfg: cfg}
}

// ExplainContext fits the local surrogate around x with cooperative
// cancellation: the perturbation batch is evaluated in row chunks with a
// ctx check between chunks (see shap.EvalChunked). On cancellation the
// partial fit is discarded and ctx's error is returned.
func (e *Explainer) ExplainContext(ctx context.Context, x []float64) (Explanation, error) {
	bg := e.background
	if bg == nil {
		bg = make([]float64, len(x))
	}
	if len(bg) != len(x) {
		panic(fmt.Sprintf("lime: background dim %d vs input dim %d", len(bg), len(x)))
	}
	active := make([]int, 0, len(x))
	for j := range x {
		if x[j] != bg[j] {
			active = append(active, j)
		}
	}
	out := Explanation{Phi: make([]float64, len(x))}

	m := len(active)
	if m == 0 {
		if err := ctx.Err(); err != nil {
			return Explanation{}, err
		}
		one := linalg.NewMatrix(1, len(x))
		copy(one.Row(0), x)
		out.FX = e.f(one)[0]
		out.Intercept = out.FX
		return out, nil
	}

	rng := rand.New(rand.NewSource(e.cfg.Seed))
	// The locality kernel width on the binary interpretable space follows
	// LIME's sqrt(M)·0.75 rule.
	width := math.Sqrt(float64(m)) * 0.75

	n := e.cfg.NSamples
	// Row 0 is the unperturbed instance (all features on), as in the LIME
	// implementation.
	z := linalg.NewMatrix(n, m)
	inputs := linalg.NewMatrix(n, len(x))
	for i := 0; i < n; i++ {
		zrow := z.Row(i)
		irow := inputs.Row(i)
		copy(irow, bg)
		if i == 0 {
			for b := range zrow {
				zrow[b] = 1
			}
		} else {
			nOn := rng.Intn(m + 1)
			for _, b := range rng.Perm(m)[:nOn] {
				zrow[b] = 1
			}
		}
		for b, on := range zrow {
			if on == 1 {
				irow[active[b]] = x[active[b]]
			}
		}
	}
	vals, err := shap.EvalChunked(ctx, e.f, inputs)
	if err != nil {
		return Explanation{}, err
	}
	out.FX = vals[0]

	// Locality weights: exponential kernel on cosine distance between the
	// binary sample and the all-ones instance.
	w := make([]float64, n)
	sqrtM := math.Sqrt(float64(m))
	for i := 0; i < n; i++ {
		zrow := z.Row(i)
		on := 0.0
		for _, v := range zrow {
			on += v
		}
		// cos(z, 1) = |z| / (sqrt(|z|) * sqrt(m)); distance = 1 - cos.
		cos := 0.0
		if on > 0 {
			cos = on / (math.Sqrt(on) * sqrtM)
		}
		d := 1 - cos
		w[i] = math.Exp(-d * d / (width * width))
	}

	beta, err := linalg.WeightedRidge(z, vals, w, e.cfg.Ridge, true)
	if err != nil {
		return out, nil
	}
	for b := 0; b < m; b++ {
		out.Phi[active[b]] = beta[b]
	}
	out.Intercept = beta[m]

	// Fit quality on the perturbation set.
	s := 0.0
	for i := 0; i < n; i++ {
		pred := out.Intercept + linalg.Dot(beta[:m], z.Row(i))
		d := pred - vals[i]
		s += w[i] * d * d
	}
	wsum := 0.0
	for _, wi := range w {
		wsum += wi
	}
	if wsum > 0 {
		out.FitRMSE = math.Sqrt(s / wsum)
	}
	return out, nil
}
