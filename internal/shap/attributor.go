package shap

import (
	"context"
	"fmt"

	"github.com/hpc-repro/aiio/internal/gbdt"
)

// Attributor is the common face of the package's two estimators: anything
// that can allocate f(x) − f(background) across the features of one input.
// Both the model-agnostic Kernel explainer (*Explainer) and the exact tree
// fast path (*TreeExplainer) implement it, so callers like core.Diagnose
// pick an estimator once (see ForModel) and explain through one call site.
type Attributor interface {
	// Attribute computes the SHAP values of x against the attributor's
	// background, honoring ctx's cancellation between units of model work.
	Attribute(ctx context.Context, x []float64) (Explanation, error)
}

// Mode selects which estimator ForModel returns.
type Mode string

// The estimator-selection modes.
const (
	// ModeAuto routes tree ensembles to the exact TreeSHAP fast path and
	// everything else to Kernel SHAP — the shap package's automatic
	// behavior, and the default.
	ModeAuto Mode = "auto"
	// ModeKernel forces the model-agnostic Kernel SHAP estimator for every
	// model (the paper's uniform setup).
	ModeKernel Mode = "kernel"
)

// ForModel returns the estimator the mode selects for one model. tree is
// the model's boosted ensemble when it has one (nil for neural models); f
// is its batch predictor, used by the kernel path. The background follows
// the package convention: nil means all-zero (AIIO's filter).
func ForModel(f PredictFunc, tree *gbdt.Model, background []float64, mode Mode, cfg Config) (Attributor, error) {
	switch mode {
	case "", ModeAuto:
		if tree != nil {
			return NewTreeBackground(tree, background), nil
		}
		return New(f, background, cfg), nil
	case ModeKernel:
		return New(f, background, cfg), nil
	}
	return nil, fmt.Errorf("shap: unknown mode %q", mode)
}

// Attribute implements Attributor on the Kernel explainer.
func (e *Explainer) Attribute(ctx context.Context, x []float64) (Explanation, error) {
	return e.ExplainContext(ctx, x)
}

// Attribute implements Attributor on the tree explainer. TreeSHAP needs no
// model evaluation at all, so the only cancellation point is up front.
func (e *TreeExplainer) Attribute(ctx context.Context, x []float64) (Explanation, error) {
	if err := ctx.Err(); err != nil {
		return Explanation{}, err
	}
	return e.Explain(x, e.background), nil
}
