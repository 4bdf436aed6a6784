package core

import (
	"context"
	"fmt"
	"log"
	"slices"
	"strings"

	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/features"
	"github.com/hpc-repro/aiio/internal/gbdt"
	"github.com/hpc-repro/aiio/internal/mlp"
	"github.com/hpc-repro/aiio/internal/parallel"
	"github.com/hpc-repro/aiio/internal/tabnet"
)

// logConstantCols names the counters whose training variance was zero. The
// standardizers clamp their Std to 1 (a no-op transform instead of a
// divide-by-zero NaN); naming the clamped counters in the training log
// makes degenerate datasets visible instead of silently absorbed.
func logConstantCols(model string, cols []int) {
	if len(cols) == 0 {
		return
	}
	names := make([]string, len(cols))
	for i, j := range cols {
		names[i] = darshan.CounterID(j).String()
	}
	log.Printf("core: %s: %d constant feature column(s), Std clamped to 1: %s",
		model, len(cols), strings.Join(names, ", "))
}

// TrainOptions configures ensemble training. The defaults follow the
// paper: all five models, shuffled 50/50 train/eval split, early stopping
// after 10 stale rounds, library-default hyperparameters.
type TrainOptions struct {
	// Models selects which of the five models to train; nil means all.
	Models []string
	// SplitFrac is the training fraction of the shuffled split.
	SplitFrac float64
	// Seed drives the split and each model's internal randomness.
	Seed int64
	// Fast shrinks the budgets (rounds/epochs) for tests and examples.
	Fast bool
	// GBDTRounds / NNEpochs override the budgets when > 0.
	GBDTRounds int
	NNEpochs   int
	// ReferenceKernels routes the net families' training through the
	// original per-row scalar loops instead of the vectorized kernel path
	// (the equivalence mode mirroring gbdt's DisableHistSubtraction) — for
	// parity tests and as the before-side baseline in training benchmarks.
	ReferenceKernels bool
	// WarmStart seeds each model from its counterpart in WarmFrom (the
	// previous generation) on a WarmBudgetFrac-scaled budget, per family:
	// gbdt continues boosting from the prior trees, mlp/tabnet start from
	// the prior tensors. A model whose family-level CanWarmStart gate
	// rejects the seed (schema change, architecture change, input or
	// bin-edge drift) falls back to a full-budget cold fit; the per-model
	// report records the decision.
	WarmStart bool
	// WarmFrom is the previous ensemble to warm from; nil disables warm
	// starting even when WarmStart is set.
	WarmFrom *Ensemble
	// WarmBudgetFrac scales the rounds/epochs budget of warm-started
	// models; <= 0 means DefaultWarmBudgetFrac.
	WarmBudgetFrac float64
}

// DefaultWarmBudgetFrac is the fraction of the cold budget a warm-started
// model trains for: the seed already encodes the stable structure, so the
// reduced run only has to absorb the new window.
const DefaultWarmBudgetFrac = 0.3

// DefaultTrainOptions returns the paper configuration.
func DefaultTrainOptions() TrainOptions {
	return TrainOptions{SplitFrac: 0.5, Seed: 1}
}

// ModelReport carries the per-model evaluation of the performance function
// (the "Prediction Func." column of Table 2).
type ModelReport struct {
	Name string
	// RMSE of the prediction function on the eval split (Eq. 3).
	PredictionRMSE float64
	// WarmStart reports whether this model was seeded from the previous
	// generation (and trained on the reduced budget).
	WarmStart bool
	// WarmFallback is the reason a requested warm start was refused for
	// this model ("" when warm started or never requested).
	WarmFallback string
	// Epochs is how long the fit ran before early stopping or its budget
	// ended it: epochs for the networks, boosting rounds for the trees.
	Epochs int
	// SeedKept reports a warm fit that never beat its seed on the eval
	// split, so the previous generation's weights (or trees) ship
	// unchanged.
	SeedKept bool
}

// TrainReport summarizes ensemble training.
type TrainReport struct {
	Models    []ModelReport
	TrainSize int
	EvalSize  int
}

// Ensemble is the set of trained performance functions AIIO diagnoses with.
type Ensemble struct {
	Models []Model
}

// Model returns the trained model with the given name, or nil.
func (e *Ensemble) Model(name string) Model {
	for _, m := range e.Models {
		if m.Name() == name {
			return m
		}
	}
	return nil
}

// TrainEnsemble trains the selected performance functions on frame,
// using the paper's shuffled split for training and early-stopping
// evaluation, and reports each model's eval RMSE.
func TrainEnsemble(frame *features.Frame, opts TrainOptions) (*Ensemble, *TrainReport, error) {
	return TrainEnsembleContext(context.Background(), frame, opts)
}

// TrainEnsembleContext is TrainEnsemble with cooperative cancellation. The
// selected models fit concurrently on the shared GOMAXPROCS worker pool
// (each fit owns its rng and scratch and only reads the split and its warm
// seed, so every model is bit-identical to a fit on its own), started
// longest first in fitOrder so the slowest fit does not start last; the
// ensemble and report keep the order of opts.Models. ctx is checked before
// each fit starts: once it is cancelled no further fit starts, the fits in
// flight run to completion, and the call returns an error that wraps ctx's
// error and names the first model, in model order, that never ran — never
// a partial ensemble. A failed fit fails the call with the first error in
// model order, and an unknown model name fails it before any fit starts. It
// also refuses a frame carrying NaN/Inf features (see Frame.Validate) —
// corrupt inputs must be quarantined or sanitized before training, never
// silently fitted.
func TrainEnsembleContext(ctx context.Context, frame *features.Frame, opts TrainOptions) (*Ensemble, *TrainReport, error) {
	if frame.Len() < 10 {
		return nil, nil, fmt.Errorf("core: dataset too small (%d records)", frame.Len())
	}
	if err := frame.Validate(); err != nil {
		return nil, nil, fmt.Errorf("core: refusing to train on corrupt features: %w", err)
	}
	if opts.SplitFrac <= 0 || opts.SplitFrac >= 1 {
		opts.SplitFrac = 0.5
	}
	names := opts.Models
	if len(names) == 0 {
		names = ModelNames()
	}
	for _, name := range names {
		if !slices.Contains(ModelNames(), name) {
			return nil, nil, fmt.Errorf("core: unknown model name %q", name)
		}
	}
	train, eval := frame.Split(opts.Seed, opts.SplitFrac)

	gbdtRounds := 300
	nnEpochs := 200
	if opts.Fast {
		gbdtRounds = 60
		nnEpochs = 30
	}
	if opts.GBDTRounds > 0 {
		gbdtRounds = opts.GBDTRounds
	}
	if opts.NNEpochs > 0 {
		nnEpochs = opts.NNEpochs
	}

	warmFrac := opts.WarmBudgetFrac
	if warmFrac <= 0 {
		warmFrac = DefaultWarmBudgetFrac
	}
	// scaleBudget is the reduced budget of a warm-started model.
	scaleBudget := func(budget int) int {
		b := int(float64(budget)*warmFrac + 0.5)
		if b < 1 {
			b = 1
		}
		return b
	}
	// prior returns the previous generation's model of this name when warm
	// starting is requested, plus the fallback reason when there is none.
	prior := func(name string) (Model, string) {
		if !opts.WarmStart || opts.WarmFrom == nil {
			return nil, ""
		}
		pm := opts.WarmFrom.Model(name)
		if pm == nil {
			return nil, "no previous model of this name"
		}
		return pm, ""
	}

	// fit trains and scores one model. It runs concurrently with the other
	// models' fits, so it only reads the shared state above.
	fit := func(name string) (Model, ModelReport, error) {
		var model Model
		warmUsed := false
		warmFallback := ""
		epochs, seedKept := 0, false
		switch name {
		case NameXGBoost, NameLightGBM, NameCatBoost:
			variant := gbdt.LevelWise
			if name == NameLightGBM {
				variant = gbdt.LeafWise
			} else if name == NameCatBoost {
				variant = gbdt.Oblivious
			}
			cfg := gbdt.DefaultConfig(variant)
			cfg.Rounds = gbdtRounds
			cfg.Seed = opts.Seed
			var seed *gbdt.WarmSeed
			seedTrees := 0
			if pm, why := prior(name); pm != nil {
				if g, ok := TreeModel(pm); ok {
					var reason string
					if seed, reason = gbdt.CheckWarmStart(g, cfg, train.X, train.Y); seed != nil {
						cfg.Rounds = scaleBudget(gbdtRounds)
						seedTrees = len(g.Trees)
					} else {
						warmFallback = reason
					}
				} else {
					warmFallback = otherFamily
				}
			} else {
				warmFallback = why
			}
			var m *gbdt.Model
			var err error
			if seed != nil {
				warmUsed = true
				m, err = gbdt.TrainSeeded(cfg, train.X, train.Y, eval.X, eval.Y, seed)
			} else {
				m, err = gbdt.Train(cfg, train.X, train.Y, eval.X, eval.Y)
			}
			if err != nil {
				return nil, ModelReport{}, fmt.Errorf("core: train %s: %w", name, err)
			}
			// Early stopping keeps trees 0..BestIteration; a warm fit that
			// never improved keeps only the seed's.
			epochs, seedKept = len(m.EvalLoss), warmUsed && m.BestIteration < seedTrees
			model = &gbdtModel{name: name, m: m}
		case NameMLP, NameTabNet:
			family := mlpFamily
			if name == NameTabNet {
				family = tabnetFamily
			}
			net := family(opts, train, eval)
			budget := nnEpochs
			var seed Model
			if pm, why := prior(name); pm == nil {
				warmFallback = why
			} else if ok, reason := net.gate(pm); !ok {
				warmFallback = reason
			} else {
				seed, warmUsed, budget = pm, true, scaleBudget(nnEpochs)
			}
			m, constantCols, ran, best, err := net.fit(budget, seed)
			if err != nil {
				return nil, ModelReport{}, fmt.Errorf("core: train %s: %w", name, err)
			}
			logConstantCols(name, constantCols)
			model, epochs, seedKept = m, ran, best < 0
		default:
			return nil, ModelReport{}, fmt.Errorf("core: unknown model name %q", name)
		}
		return model, ModelReport{
			Name:           name,
			PredictionRMSE: features.RMSE(model.PredictBatch(eval.X), eval.Y),
			WarmStart:      warmUsed,
			WarmFallback:   warmFallback,
			Epochs:         epochs,
			SeedKept:       seedKept,
		}, nil
	}

	models := make([]Model, len(names))
	reports := make([]ModelReport, len(names))
	errs := make([]error, len(names))
	order := startOrder(names)
	ctxErr := parallel.EachCtx(ctx, len(order), 0, func(k int) {
		i := order[k]
		models[i], reports[i], errs[i] = fit(names[i])
	})
	for i, name := range names {
		if errs[i] != nil {
			return nil, nil, errs[i]
		}
		if models[i] == nil {
			return nil, nil, fmt.Errorf("core: training cancelled before %s: %w", name, ctxErr)
		}
	}
	return &Ensemble{Models: models}, &TrainReport{Models: reports, TrainSize: train.Len(), EvalSize: eval.Len()}, nil
}

// fitOrder ranks the models by how long their fit takes, longest first:
// the two networks, then the oblivious, leaf-wise and level-wise trees.
var fitOrder = []string{NameTabNet, NameMLP, NameCatBoost, NameLightGBM, NameXGBoost}

// startOrder returns the indices of names in the order their fits start:
// fitOrder's.
func startOrder(names []string) []int {
	order := make([]int, len(names))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return slices.Index(fitOrder, names[a]) - slices.Index(fitOrder, names[b])
	})
	return order
}

// otherFamily is the warm-start fallback reason when the previous
// generation's model of a name is of another family.
const otherFamily = "previous model is a different family"

// netFamily is one network family's side of the net path in
// TrainEnsembleContext, bound to the call's options and split. The path runs
// gate once on the previous generation's model, then fit: seeded from it
// on the reduced budget when the gate accepts it, cold otherwise.
type netFamily struct {
	// gate is the family's CanWarmStart for prev, false with a reason also
	// when prev is of another family.
	gate func(prev Model) (bool, string)
	// fit trains for epochs, seeded from prev when it is non-nil. It
	// returns the model, its constant input columns, the epochs it ran and
	// the epoch whose weights it kept (-1: the seed's).
	fit func(epochs int, prev Model) (m Model, constantCols []int, ran, best int, err error)
}

func mlpFamily(opts TrainOptions, train, eval *features.Frame) netFamily {
	cfg := mlp.DefaultConfig()
	cfg.Seed, cfg.ReferenceKernels = opts.Seed, opts.ReferenceKernels
	if opts.Fast {
		cfg.Hidden = []int{45, 24, 12}
	}
	return netFamily{
		gate: func(prev Model) (bool, string) {
			if n, ok := MLPModel(prev); ok {
				return mlp.CanWarmStart(n, cfg, train.X, train.Y)
			}
			return false, otherFamily
		},
		fit: func(epochs int, prev Model) (Model, []int, int, int, error) {
			seed, _ := MLPModel(prev)
			cfg.Epochs = epochs
			m, err := mlp.TrainSeeded(cfg, train.X, train.Y, eval.X, eval.Y, seed)
			if err != nil {
				return nil, nil, 0, 0, err
			}
			return &mlpModel{m: m}, m.ConstantCols, len(m.EvalLoss), m.BestEpoch, nil
		},
	}
}

func tabnetFamily(opts TrainOptions, train, eval *features.Frame) netFamily {
	cfg := tabnet.DefaultConfig()
	cfg.Seed, cfg.ReferenceKernels = opts.Seed, opts.ReferenceKernels
	return netFamily{
		gate: func(prev Model) (bool, string) {
			if n, ok := TabNetModel(prev); ok {
				return tabnet.CanWarmStart(n, cfg, train.X, train.Y)
			}
			return false, otherFamily
		},
		fit: func(epochs int, prev Model) (Model, []int, int, int, error) {
			seed, _ := TabNetModel(prev)
			cfg.Epochs = epochs
			m, err := tabnet.TrainSeeded(cfg, train.X, train.Y, eval.X, eval.Y, seed)
			if err != nil {
				return nil, nil, 0, 0, err
			}
			return &tabnetModel{m: m}, m.ConstantCols, len(m.EvalLoss), m.BestEpoch, nil
		},
	}
}
