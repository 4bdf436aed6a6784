package core

import (
	"fmt"
	"io"
	"slices"

	"github.com/hpc-repro/aiio/internal/features"
	"github.com/hpc-repro/aiio/internal/gbdt"
	"github.com/hpc-repro/aiio/internal/linalg"
	"github.com/hpc-repro/aiio/internal/mlp"
	"github.com/hpc-repro/aiio/internal/shap"
	"github.com/hpc-repro/aiio/internal/tabnet"
)

// The five paper model names.
const (
	NameXGBoost  = "xgboost"
	NameLightGBM = "lightgbm"
	NameCatBoost = "catboost"
	NameMLP      = "mlp"
	NameTabNet   = "tabnet"
)

// The manifest kinds: the format a model file is written and decoded in.
const (
	kindGBDT   = "gbdt"
	kindMLP    = "mlp"
	kindTabNet = "tabnet"
)

// family declares one of the five performance functions: its name, the
// manifest kind its files decode as, and its training.
type family struct {
	name string
	kind string
	// decode reads one model file of this kind.
	decode func(r io.Reader) (predictor, error)
	// bind binds the family's warm gate and seeded fit to one training
	// call's options and split.
	bind func(opts TrainOptions, train, eval *features.Frame) fitter
}

// families lists the five models in fit-cost order, longest first: the two
// networks, then the oblivious, leaf-wise and level-wise trees. Training
// starts the fits in this order so the slowest fit does not start last.
var families = []family{
	{NameTabNet, kindTabNet, decoder(tabnet.Load), tabnetFitter},
	{NameMLP, kindMLP, decoder(mlp.Load), mlpFitter},
	{NameCatBoost, kindGBDT, decoder(gbdt.Load), gbdtFitter(gbdt.Oblivious)},
	{NameLightGBM, kindGBDT, decoder(gbdt.Load), gbdtFitter(gbdt.LeafWise)},
	{NameXGBoost, kindGBDT, decoder(gbdt.Load), gbdtFitter(gbdt.LevelWise)},
}

// familyIndex returns the position of the named model in families, or -1.
func familyIndex(name string) int {
	return slices.IndexFunc(families, func(f family) bool { return f.name == name })
}

// CheckModels validates a TrainOptions.Models list as training does: every
// name must be one of the five models, and none may repeat.
func CheckModels(names []string) error {
	for i, name := range names {
		if familyIndex(name) < 0 {
			return fmt.Errorf("core: unknown model name %q", name)
		}
		if slices.Contains(names[:i], name) {
			return fmt.Errorf("core: model name %q given twice", name)
		}
	}
	return nil
}

// predictor is what the three model packages' trained models share.
type predictor interface {
	Predict(x []float64) float64
	PredictBatch(x *linalg.Matrix) []float64
	Save(w io.Writer) error
}

// model adapts a trained or decoded predictor to Model under the name and
// kind it was given.
type model struct {
	predictor
	name, kind string
}

func (m *model) Name() string { return m.name }
func (m *model) Kind() string { return m.kind }

// decoder adapts a model package's Load to family.decode.
func decoder[T predictor](load func(io.Reader) (T, error)) func(io.Reader) (predictor, error) {
	return func(r io.Reader) (predictor, error) {
		m, err := load(r)
		if err != nil {
			return nil, err
		}
		return m, nil
	}
}

// LoadModel deserializes a model of the given kind. The model keeps the
// name it is given, so an upload under a new name is a new model.
func LoadModel(name, kind string, r io.Reader) (Model, error) {
	for _, f := range families {
		if f.kind == kind {
			p, err := f.decode(r)
			if err != nil {
				return nil, err
			}
			return &model{p, name, kind}, nil
		}
	}
	return nil, fmt.Errorf("core: unknown model kind %q", kind)
}

// inner returns the model package's value behind m when it is a T.
func inner[T predictor](m Model) (T, bool) {
	var t T
	a, ok := m.(*model)
	if ok {
		t, ok = a.predictor.(T)
	}
	return t, ok
}

// Float32Predictor returns the float32 batch predictor of a network (mlp
// or tabnet PredictBatch32), the one a diagnosis runs Kernel SHAP's
// coalition batches through (DESIGN.md §8); ok is false for the tree
// models and for any Model not built by this package.
func Float32Predictor(m Model) (f shap.PredictFunc, ok bool) {
	a, ok := m.(*model)
	if !ok {
		return nil, false
	}
	p, ok := a.predictor.(interface {
		PredictBatch32(x *linalg.Matrix) []float64
	})
	if !ok {
		return nil, false
	}
	return p.PredictBatch32, true
}

// TreeModel exposes the underlying boosted ensemble of a GBDT-backed model
// for the TreeSHAP fast path and its loss curves; ok is false for the
// neural models.
func TreeModel(m Model) (*gbdt.Model, bool) { return inner[*gbdt.Model](m) }

// fitter is one family's training, bound to one TrainEnsembleContext call.
// The call runs gate once on the previous generation's model of the same
// name, then fit: seeded from it on the reduced budget when the gate
// accepts it, cold on the full budget otherwise.
type fitter struct {
	// budget is the cold budget: boosting rounds or epochs.
	budget int
	// gate is the family's warm-start check of prev, false with a reason
	// also when prev is of another family.
	gate func(prev Model) (ok bool, reason string)
	// fit trains for budget rounds or epochs, seeded from prev when it is
	// non-nil (prev has passed gate).
	fit func(budget int, prev Model) (fitted, error)
}

// fitted is one finished fit: the model, the rounds or epochs it ran,
// whether a warm fit kept its seed unchanged, and the model's eval RMSE —
// the fit's own best eval score, which is linalg.RMSE of its PredictBatch
// on the eval split bit for bit, so nothing re-predicts the split.
type fitted struct {
	m        predictor
	ran      int
	seedKept bool
	evalRMSE float64
}

// otherFamily is the warm-start fallback reason when the previous
// generation's model of a name is of another family.
const otherFamily = "previous model is a different family"

func gbdtFitter(variant gbdt.Variant) func(TrainOptions, *features.Frame, *features.Frame) fitter {
	return func(opts TrainOptions, train, eval *features.Frame) fitter {
		cfg := gbdt.DefaultConfig(variant)
		cfg.Seed = opts.Seed
		var seed *gbdt.WarmSeed
		return fitter{
			budget: opts.rounds(),
			gate: func(prev Model) (bool, string) {
				g, ok := TreeModel(prev)
				if !ok {
					return false, otherFamily
				}
				var reason string
				seed, reason = gbdt.CheckWarmStart(g, cfg, train.X, train.Y)
				return seed != nil, reason
			},
			fit: func(rounds int, prev Model) (fitted, error) {
				cfg.Rounds = rounds
				m, err := gbdt.TrainSeeded(cfg, train.X, train.Y, eval.X, eval.Y, seed)
				if err != nil {
					return fitted{}, err
				}
				// Early stopping keeps trees 0..BestIteration; a warm fit
				// that never improved keeps only the seed's.
				g, warm := TreeModel(prev)
				return fitted{m, len(m.EvalLoss), warm && m.BestIteration < len(g.Trees), m.BestEval}, nil
			},
		}
	}
}

func mlpFitter(opts TrainOptions, train, eval *features.Frame) fitter {
	cfg := mlp.DefaultConfig()
	cfg.Seed = opts.Seed
	if opts.Fast {
		cfg.Hidden = []int{45, 24, 12}
	}
	return fitter{
		budget: opts.epochs(),
		gate: func(prev Model) (bool, string) {
			if n, ok := inner[*mlp.Model](prev); ok {
				return mlp.CanWarmStart(n, cfg, train.X, train.Y)
			}
			return false, otherFamily
		},
		fit: func(epochs int, prev Model) (fitted, error) {
			seed, _ := inner[*mlp.Model](prev)
			cfg.Epochs = epochs
			m, err := mlp.TrainSeeded(cfg, train.X, train.Y, eval.X, eval.Y, seed)
			if err != nil {
				return fitted{}, err
			}
			logConstantCols(NameMLP, m.ConstantCols)
			return fitted{m, len(m.EvalLoss), m.BestEpoch < 0, m.BestEval}, nil
		},
	}
}

func tabnetFitter(opts TrainOptions, train, eval *features.Frame) fitter {
	cfg := tabnet.DefaultConfig()
	cfg.Seed = opts.Seed
	return fitter{
		budget: opts.epochs(),
		gate: func(prev Model) (bool, string) {
			if n, ok := inner[*tabnet.Model](prev); ok {
				return tabnet.CanWarmStart(n, cfg, train.X, train.Y)
			}
			return false, otherFamily
		},
		fit: func(epochs int, prev Model) (fitted, error) {
			seed, _ := inner[*tabnet.Model](prev)
			cfg.Epochs = epochs
			m, err := tabnet.TrainSeeded(cfg, train.X, train.Y, eval.X, eval.Y, seed)
			if err != nil {
				return fitted{}, err
			}
			logConstantCols(NameTabNet, m.ConstantCols)
			return fitted{m, len(m.EvalLoss), m.BestEpoch < 0, m.BestEval}, nil
		},
	}
}
