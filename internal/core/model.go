// Package core implements AIIO itself (Section 3): multiple AI
// prediction-based performance functions trained on the I/O log database,
// Kernel-SHAP-based diagnosis functions per model, and the two merging
// strategies of Section 3.3 — the Closest Method (Eq. 6) and the Average
// Method (Eq. 7–8) — with the sparsity-aware robustness rule built in.
package core

import (
	"fmt"
	"io"

	"github.com/hpc-repro/aiio/internal/gbdt"
	"github.com/hpc-repro/aiio/internal/linalg"
	"github.com/hpc-repro/aiio/internal/mlp"
	"github.com/hpc-repro/aiio/internal/tabnet"
)

// Model is one performance function: a regressor from transformed counters
// to transformed performance.
type Model interface {
	// Name identifies the model ("xgboost", "lightgbm", "catboost", "mlp",
	// "tabnet").
	Name() string
	// Kind is the serialization family ("gbdt", "mlp", "tabnet").
	Kind() string
	// Predict maps one transformed counter vector to predicted transformed
	// performance.
	Predict(x []float64) float64
	// PredictBatch predicts every row of x.
	PredictBatch(x *linalg.Matrix) []float64
	// Save serializes the model.
	Save(w io.Writer) error
}

// The five paper model names.
const (
	NameXGBoost  = "xgboost"
	NameLightGBM = "lightgbm"
	NameCatBoost = "catboost"
	NameMLP      = "mlp"
	NameTabNet   = "tabnet"
)

// ModelNames lists the five models in the paper's order of presentation.
func ModelNames() []string {
	return []string{NameXGBoost, NameLightGBM, NameCatBoost, NameMLP, NameTabNet}
}

// gbdtModel adapts a gbdt.Model.
type gbdtModel struct {
	name string
	m    *gbdt.Model
}

func (g *gbdtModel) Name() string                            { return g.name }
func (g *gbdtModel) Kind() string                            { return "gbdt" }
func (g *gbdtModel) Predict(x []float64) float64             { return g.m.Predict(x) }
func (g *gbdtModel) PredictBatch(x *linalg.Matrix) []float64 { return g.m.PredictBatch(x) }
func (g *gbdtModel) Save(w io.Writer) error                  { return g.m.Save(w) }

// mlpModel adapts an mlp.Model.
type mlpModel struct{ m *mlp.Model }

func (g *mlpModel) Name() string                            { return NameMLP }
func (g *mlpModel) Kind() string                            { return "mlp" }
func (g *mlpModel) Predict(x []float64) float64             { return g.m.Predict(x) }
func (g *mlpModel) PredictBatch(x *linalg.Matrix) []float64 { return g.m.PredictBatch(x) }
func (g *mlpModel) Save(w io.Writer) error                  { return g.m.Save(w) }

// tabnetModel adapts a tabnet.Model.
type tabnetModel struct{ m *tabnet.Model }

func (g *tabnetModel) Name() string                            { return NameTabNet }
func (g *tabnetModel) Kind() string                            { return "tabnet" }
func (g *tabnetModel) Predict(x []float64) float64             { return g.m.Predict(x) }
func (g *tabnetModel) PredictBatch(x *linalg.Matrix) []float64 { return g.m.PredictBatch(x) }
func (g *tabnetModel) Save(w io.Writer) error                  { return g.m.Save(w) }

// LoadModel deserializes a model of the given name and kind.
func LoadModel(name, kind string, r io.Reader) (Model, error) {
	switch kind {
	case "gbdt":
		m, err := gbdt.Load(r)
		if err != nil {
			return nil, err
		}
		return &gbdtModel{name: name, m: m}, nil
	case "mlp":
		m, err := mlp.Load(r)
		if err != nil {
			return nil, err
		}
		return &mlpModel{m: m}, nil
	case "tabnet":
		m, err := tabnet.Load(r)
		if err != nil {
			return nil, err
		}
		return &tabnetModel{m: m}, nil
	}
	return nil, fmt.Errorf("core: unknown model kind %q", kind)
}

// TreeModel exposes the underlying boosted ensemble of a GBDT-backed model
// for the TreeSHAP fast path; ok is false for the neural models.
func TreeModel(m Model) (*gbdt.Model, bool) {
	g, isGBDT := m.(*gbdtModel)
	if !isGBDT {
		return nil, false
	}
	return g.m, true
}

// MLPModel exposes the underlying network of an MLP-backed model for the
// warm-start path; ok is false for other families.
func MLPModel(m Model) (*mlp.Model, bool) {
	n, isMLP := m.(*mlpModel)
	if !isMLP {
		return nil, false
	}
	return n.m, true
}

// TabNetModel exposes the underlying network of a TabNet-backed model for
// the warm-start path; ok is false for other families.
func TabNetModel(m Model) (*tabnet.Model, bool) {
	n, isTabNet := m.(*tabnetModel)
	if !isTabNet {
		return nil, false
	}
	return n.m, true
}

// GBDTLossCurves exposes the training/eval RMSE curves of a boosted model
// (used by the Fig. 16 reproduction); ok is false for non-GBDT models.
func GBDTLossCurves(m Model) (train, eval []float64, ok bool) {
	g, isGBDT := m.(*gbdtModel)
	if !isGBDT {
		return nil, nil, false
	}
	return g.m.TrainLoss, g.m.EvalLoss, true
}
