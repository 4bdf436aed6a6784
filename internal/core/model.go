// Package core implements AIIO itself (Section 3): multiple AI
// prediction-based performance functions trained on the I/O log database,
// Kernel-SHAP-based diagnosis functions per model, and the two merging
// strategies of Section 3.3 — the Closest Method (Eq. 6) and the Average
// Method (Eq. 7–8) — with the sparsity-aware robustness rule built in.
package core

import (
	"io"

	"github.com/hpc-repro/aiio/internal/linalg"
)

// Model is one performance function: a regressor from transformed counters
// to transformed performance.
type Model interface {
	// Name identifies the model: one of the Name constants, or the name an
	// uploaded model was given.
	Name() string
	// Kind is the manifest kind its file decodes as (see LoadModel).
	Kind() string
	// Predict maps one transformed counter vector to predicted transformed
	// performance.
	Predict(x []float64) float64
	// PredictBatch predicts every row of x.
	PredictBatch(x *linalg.Matrix) []float64
	// Save serializes the model.
	Save(w io.Writer) error
}

// ModelNames lists the five models in the paper's order of presentation.
func ModelNames() []string {
	return []string{NameXGBoost, NameLightGBM, NameCatBoost, NameMLP, NameTabNet}
}
