package core

import (
	"context"
	"math"
	"testing"

	"github.com/hpc-repro/aiio/internal/features"
	"github.com/hpc-repro/aiio/internal/joblog"
	"github.com/hpc-repro/aiio/internal/logdb"
	"github.com/hpc-repro/aiio/internal/mlp"
	"github.com/hpc-repro/aiio/internal/tabnet"
)

// TestEnsembleWarmStartHoldsQualityOnReducedBudget trains a warm ensemble
// on a fresh window from the same workload distribution, on 30% of the cold
// budget, and requires every model to (a) actually warm start and (b) stay
// within a modest margin of its cold counterpart's eval RMSE.
func TestEnsembleWarmStartHoldsQualityOnReducedBudget(t *testing.T) {
	_, prev, coldReport := fixture(t)

	ds := logdb.Generate(logdb.GenConfig{Jobs: 900, Seed: 23})
	frame := features.Build(ds)
	opts := DefaultTrainOptions()
	opts.Fast = true
	opts.WarmStart = true
	opts.WarmFrom = prev
	_, warmReport, err := TrainEnsemble(frame, opts)
	if err != nil {
		t.Fatal(err)
	}
	cold := map[string]float64{}
	for _, r := range coldReport.Models {
		cold[r.Name] = r.PredictionRMSE
	}
	for _, r := range warmReport.Models {
		if !r.WarmStart {
			t.Errorf("model %s did not warm start (fallback: %q)", r.Name, r.WarmFallback)
			continue
		}
		// Different eval split than the cold report's, so the comparison is
		// a sanity band, not an exact improvement claim; the tight claims
		// live in the per-family warm tests.
		if r.PredictionRMSE > cold[r.Name]*1.5+0.1 {
			t.Errorf("model %s warm RMSE %.4f far above cold %.4f", r.Name, r.PredictionRMSE, cold[r.Name])
		}
	}
}

// TestTrainReportEpochsAndSeedKept checks the report's fit-length fields
// against the models they describe: Epochs is the rounds or epochs each fit
// ran, within its budget, and SeedKept is set exactly when a warm fit ships
// its seed unchanged — BestEpoch -1 for the nets, no tree added on top of
// the seed's for the boosters.
func TestTrainReportEpochsAndSeedKept(t *testing.T) {
	_, prev, coldReport := fixture(t)
	const coldTrees, coldEpochs = 60, 30 // the Fast budgets
	for _, r := range coldReport.Models {
		budget := coldEpochs
		if _, ok := TreeModel(prev.Model(r.Name)); ok {
			budget = coldTrees
		}
		if r.Epochs < 1 || r.Epochs > budget || r.SeedKept {
			t.Errorf("cold %s: Epochs %d (budget %d), SeedKept %v", r.Name, r.Epochs, budget, r.SeedKept)
		}
	}

	opts := DefaultTrainOptions()
	opts.Fast = true
	opts.WarmStart = true
	opts.WarmFrom = prev
	warm, report, err := TrainEnsemble(features.Build(logdb.Generate(logdb.GenConfig{Jobs: 900, Seed: 23})), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range report.Models {
		if !r.WarmStart {
			t.Fatalf("model %s did not warm start (fallback: %q)", r.Name, r.WarmFallback)
		}
		var epochs, budget int
		var kept bool
		m := warm.Model(r.Name)
		if g, ok := TreeModel(m); ok {
			seed, _ := TreeModel(prev.Model(r.Name))
			epochs, budget, kept = len(g.EvalLoss), 18, len(g.Trees) == len(seed.Trees)
		} else if n, ok := MLPModel(m); ok {
			epochs, budget, kept = len(n.EvalLoss), 9, n.BestEpoch == -1
		} else if n, ok := TabNetModel(m); ok {
			epochs, budget, kept = len(n.EvalLoss), 9, n.BestEpoch == -1
		}
		if r.Epochs != epochs || r.SeedKept != kept || r.Epochs < 1 || r.Epochs > budget {
			t.Errorf("warm %s: report Epochs %d SeedKept %v, model ran %d (budget %d) and kept its seed: %v",
				r.Name, r.Epochs, r.SeedKept, epochs, budget, kept)
		}
	}
}

// TestEnsembleWarmStartDriftFallsBackCold rescales every feature so each
// family's drift gate (standardizer drift for the nets, bin-edge drift for
// the trees) must refuse the seed and fall back to a cold fit.
func TestEnsembleWarmStartDriftFallsBackCold(t *testing.T) {
	frame, prev, _ := fixture(t)

	shifted := &features.Frame{X: frame.X.Clone(), Y: frame.Y, Records: frame.Records}
	for i := range shifted.X.Data {
		shifted.X.Data[i] = shifted.X.Data[i]*1e3 + 1e6
	}
	opts := DefaultTrainOptions()
	opts.Fast = true
	opts.WarmStart = true
	opts.WarmFrom = prev
	opts.Models = []string{NameXGBoost, NameMLP, NameTabNet}
	_, report, err := TrainEnsemble(shifted, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range report.Models {
		if r.WarmStart {
			t.Errorf("model %s warm started on drifted features", r.Name)
		}
		if r.WarmFallback == "" {
			t.Errorf("model %s fell back without a recorded reason", r.Name)
		}
	}
}

// TestRunIncrementalWarmStartsFromStore runs two retrain cycles with warm
// starting enabled: the first has no prior generation (cold), the second
// must seed from the generation the first committed.
func TestRunIncrementalWarmStartsFromStore(t *testing.T) {
	jl, err := joblog.Open(t.TempDir(), joblog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	store := OpenStore(t.TempDir())
	opts := fastIncOpts()
	opts.Train.WarmStart = true
	// Enough volume per cycle that the per-feature quantile edges are
	// stable estimates; with the tiny default windows the bin structure is
	// sampling noise and the drift gate correctly refuses to warm start.
	opts.Window = 300

	fillLog(t, jl, 0, 300)
	rep1, err := RunIncremental(context.Background(), jl, store, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Train.Models[0].WarmStart {
		t.Error("first cycle warm started with no prior generation")
	}

	fillLog(t, jl, 300, 600)
	rep2, err := RunIncremental(context.Background(), jl, store, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Train.Models[0].WarmStart {
		t.Errorf("second cycle did not warm start from generation %d (fallback: %q)",
			rep1.Generation, rep2.Train.Models[0].WarmFallback)
	}
}

// diagParityTol is the end-to-end tolerance between ensembles trained by
// the kernelized and reference training paths: the training-time parity
// (1e-6 on predictions, see the per-family train_parity tests) composes
// with SHAP's masked re-evaluations, so merged diagnosis outputs are
// compared at 1e-4 relative.
const diagParityTol = 1e-4

// TestDiagnoseParityReferenceKernels is the end-to-end guard: two ensembles
// trained identically except for Config.ReferenceKernels must produce the
// same diagnosis (predictions and per-counter contributions) for the same
// job, within diagParityTol.
func TestDiagnoseParityReferenceKernels(t *testing.T) {
	frame, _, _ := fixture(t)
	train, eval := frame.Split(1, 0.5)

	mk := func(ref bool) *Ensemble {
		mcfg := mlp.DefaultConfig()
		mcfg.Hidden = []int{45, 24, 12}
		mcfg.Epochs = 8
		mcfg.EarlyStoppingRounds = 0
		mcfg.Seed = 1
		mcfg.ReferenceKernels = ref
		mm, err := mlp.Train(mcfg, train.X, train.Y, eval.X, eval.Y)
		if err != nil {
			t.Fatal(err)
		}
		tcfg := tabnet.DefaultConfig()
		tcfg.Epochs = 5
		tcfg.EarlyStoppingRounds = 0
		tcfg.Seed = 1
		tcfg.ReferenceKernels = ref
		tm, err := tabnet.TrainSeeded(tcfg, train.X, train.Y, eval.X, eval.Y, nil)
		if err != nil {
			t.Fatal(err)
		}
		return &Ensemble{Models: []Model{&mlpModel{m: mm}, &tabnetModel{m: tm}}}
	}
	fast, ref := mk(false), mk(true)

	rec := slowJob(t)
	df, err := fast.Diagnose(rec, fastDiagOpts())
	if err != nil {
		t.Fatal(err)
	}
	dr, err := ref.Diagnose(rec, fastDiagOpts())
	if err != nil {
		t.Fatal(err)
	}
	close := func(what string, a, b float64) {
		t.Helper()
		if math.Abs(a-b) > diagParityTol*math.Max(1, math.Abs(b)) {
			t.Errorf("%s diverged: fast=%v ref=%v", what, a, b)
		}
	}
	for i := range dr.PerModel {
		pf, pr := df.PerModel[i], dr.PerModel[i]
		close(pr.Name+" prediction", pf.Predicted, pr.Predicted)
		for j := range pr.Contributions {
			close(pr.Name+" contribution", pf.Contributions[j], pr.Contributions[j])
		}
	}
	close("closest prediction", df.Closest.Predicted, dr.Closest.Predicted)
	close("average prediction", df.Average.Predicted, dr.Average.Predicted)
}
