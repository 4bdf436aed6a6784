package core

import (
	"context"
	"fmt"
	"log"
	"slices"
	"strings"

	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/features"
	"github.com/hpc-repro/aiio/internal/parallel"
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
	// WarmStart seeds each model from its counterpart in the previous
	// generation (RunIncremental loads it from the store) on a
	// WarmBudgetFrac-scaled budget, per family: gbdt continues boosting
	// from the prior trees, mlp/tabnet start from the prior tensors. A
	// model whose family-level CanWarmStart gate rejects the seed (schema
	// change, architecture change, input or bin-edge drift) falls back to
	// a full-budget cold fit; the per-model report records the decision.
	WarmStart bool
	// WarmBudgetFrac scales the rounds/epochs budget of warm-started
	// models; <= 0 means DefaultWarmBudgetFrac.
	WarmBudgetFrac float64

	// warmFrom is the previous ensemble to warm from; nil disables warm
	// starting even when WarmStart is set.
	warmFrom *Ensemble
	// gbdtRounds and nnEpochs override the cold budgets when > 0: a
	// benchmark's full-topology fit on a cut budget, which Fast cannot
	// give because it also shrinks the MLP.
	gbdtRounds, nnEpochs int
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
// longest first in the order of the family table so the slowest fit does
// not start last; the ensemble and report keep the order of opts.Models.
// ctx is checked before each fit starts: once it is cancelled no further
// fit starts, the fits in flight run to completion, and the call returns an
// error that wraps ctx's error and names the first model, in model order,
// that never ran — never a partial ensemble. A failed fit fails the call
// with the first error in model order, and an unknown or repeated model
// name fails it before any fit starts. It also refuses a frame carrying
// NaN/Inf features (see Frame.Validate) — corrupt inputs must be
// quarantined or sanitized before training, never silently fitted.
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
	if err := CheckModels(names); err != nil {
		return nil, nil, err
	}
	train, eval := frame.Split(opts.Seed, opts.SplitFrac)

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
		if !opts.WarmStart || opts.warmFrom == nil {
			return nil, ""
		}
		pm := opts.warmFrom.Model(name)
		if pm == nil {
			return nil, "no previous model of this name"
		}
		return pm, ""
	}

	// fit trains and scores one model. It runs concurrently with the other
	// models' fits, so it only reads the shared state above.
	fit := func(f *family) (Model, ModelReport, error) {
		fr := f.bind(opts, train, eval)
		budget, warmUsed, warmFallback := fr.budget, false, ""
		var seed Model
		if pm, why := prior(f.name); pm == nil {
			warmFallback = why
		} else if ok, reason := fr.gate(pm); !ok {
			warmFallback = reason
		} else {
			seed, warmUsed, budget = pm, true, scaleBudget(fr.budget)
		}
		fit, err := fr.fit(budget, seed)
		if err != nil {
			return nil, ModelReport{}, fmt.Errorf("core: train %s: %w", f.name, err)
		}
		return &model{fit.m, f.name, f.kind}, ModelReport{
			Name:           f.name,
			PredictionRMSE: fit.evalRMSE,
			WarmStart:      warmUsed,
			WarmFallback:   warmFallback,
			Epochs:         fit.ran,
			SeedKept:       fit.seedKept,
		}, nil
	}

	models := make([]Model, len(names))
	reports := make([]ModelReport, len(names))
	errs := make([]error, len(names))
	order := startOrder(names)
	ctxErr := parallel.EachCtx(ctx, len(order), 0, func(k int) {
		i := order[k]
		models[i], reports[i], errs[i] = fit(&families[familyIndex(names[i])])
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

// startOrder returns the indices of names in the order their fits start:
// the family table's.
func startOrder(names []string) []int {
	order := make([]int, len(names))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return familyIndex(names[a]) - familyIndex(names[b])
	})
	return order
}

// rounds and epochs are the cold budgets of the tree and network families.
func (o TrainOptions) rounds() int { return coldBudget(o.gbdtRounds, o.Fast, 60, 300) }
func (o TrainOptions) epochs() int { return coldBudget(o.nnEpochs, o.Fast, 30, 200) }

// coldBudget is override when it is set, else the Fast or the full default.
func coldBudget(override int, fast bool, fastDefault, fullDefault int) int {
	switch {
	case override > 0:
		return override
	case fast:
		return fastDefault
	}
	return fullDefault
}
