// Package aiio is the public API of the AIIO reproduction: job-level,
// automatic I/O performance bottleneck diagnosis as described in
//
//	Dong, Bez, Byna. "AIIO: Using Artificial Intelligence for Job-Level and
//	Automatic I/O Performance Bottleneck Diagnosis". HPDC '23.
//
// The typical flow mirrors Fig. 3 of the paper:
//
//	db := aiio.GenerateDatabase(aiio.DatabaseConfig{Jobs: 3000, Seed: 1})
//	frame := aiio.BuildFrame(db)
//	ens, report, err := aiio.Train(frame, aiio.DefaultTrainOptions())
//	diag, err := ens.Diagnose(record, aiio.DefaultDiagnoseOptions())
//	for _, f := range diag.Bottlenecks() { ... } // negative C_j = bottleneck
//
// Everything is pure Go on the standard library. The I/O substrate is a
// simulated Lustre-like parallel file system (see DESIGN.md for the
// substitutions relative to the paper's Cori testbed).
package aiio

import (
	"context"
	"io"

	"github.com/hpc-repro/aiio/internal/core"
	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/features"
	"github.com/hpc-repro/aiio/internal/logdb"
	"github.com/hpc-repro/aiio/internal/tune"
)

// Re-exported core types. The aliases keep one canonical implementation in
// the internal packages while giving library users a single import.
type (
	// Record is one job's Darshan log (45 POSIX counters + performance tag).
	Record = darshan.Record
	// Dataset is an I/O log database.
	Dataset = darshan.Dataset
	// CounterID identifies one of the 45 counters.
	CounterID = darshan.CounterID
	// Frame is a model-ready (transformed) dataset.
	Frame = features.Frame
	// Ensemble is the set of trained performance functions.
	Ensemble = core.Ensemble
	// Diagnosis is AIIO's output for one job.
	Diagnosis = core.Diagnosis
	// Factor is one counter's contribution to a job's performance.
	Factor = core.Factor
	// TrainOptions configures ensemble training.
	TrainOptions = core.TrainOptions
	// TrainReport summarizes training (per-model eval RMSE).
	TrainReport = core.TrainReport
	// DiagnoseOptions selects the explainer (see Explainer) and its
	// budgets.
	DiagnoseOptions = core.DiagnoseOptions
	// DatabaseConfig configures synthetic log-database generation.
	DatabaseConfig = logdb.GenConfig
	// RecordError describes one record quarantined by ParseDatasetLenient.
	RecordError = darshan.RecordError
	// Recommendation is one automatic tuning suggestion with its
	// model-predicted gain.
	Recommendation = tune.Recommendation
	// Explainer selects the diagnosis function DiagnoseOptions runs
	// against every model.
	Explainer = core.Explainer
)

// The explainers for DiagnoseOptions.Explainer.
const (
	// ExplainerAuto (the default) explains tree-ensemble models with the
	// exact TreeSHAP and everything else with Kernel SHAP.
	ExplainerAuto = core.ExplainerAuto
	// ExplainerKernel forces the model-agnostic Kernel SHAP estimator.
	ExplainerKernel = core.ExplainerKernel
	// ExplainerLIME explains every model with LIME.
	ExplainerLIME = core.ExplainerLIME
)

// The five performance-function names of the paper.
const (
	ModelXGBoost  = core.NameXGBoost
	ModelLightGBM = core.NameLightGBM
	ModelCatBoost = core.NameCatBoost
	ModelMLP      = core.NameMLP
	ModelTabNet   = core.NameTabNet
)

// GenerateDatabase produces a synthetic I/O log database (the Table 1
// substitute) by simulating a mixture of HPC workloads.
func GenerateDatabase(cfg DatabaseConfig) *Dataset {
	return logdb.Generate(cfg)
}

// BuildFrame applies the paper's feature engineering (Eq. 1–2) to a
// dataset.
func BuildFrame(ds *Dataset) *Frame {
	return features.Build(ds)
}

// Train fits the performance functions on a frame with the paper's
// shuffled-split and early-stopping recipe.
func Train(frame *Frame, opts TrainOptions) (*Ensemble, *TrainReport, error) {
	return core.TrainEnsemble(frame, opts)
}

// DefaultTrainOptions returns the paper's training configuration (all five
// models, 50/50 split).
func DefaultTrainOptions() TrainOptions { return core.DefaultTrainOptions() }

// DefaultDiagnoseOptions returns the default diagnosis configuration:
// ExplainerAuto, which explains the three tree models with exact TreeSHAP and
// the MLP and TabNet with Kernel SHAP.
func DefaultDiagnoseOptions() DiagnoseOptions { return core.DefaultDiagnoseOptions() }

// SaveModels persists an ensemble into a registry directory, as the web
// service stores its pre-trained models.
func SaveModels(dir string, ens *Ensemble) error { return core.SaveEnsemble(dir, ens) }

// LoadModels reads a registry directory written by SaveModels.
func LoadModels(dir string) (*Ensemble, error) { return core.LoadEnsemble(dir) }

// ParseLog reads a single Darshan text log.
func ParseLog(r io.Reader) (*Record, error) { return darshan.ParseLog(r) }

// WriteLog writes a record in the Darshan text log format.
func WriteLog(w io.Writer, rec *Record) error { return darshan.WriteLog(w, rec) }

// ParseDataset reads a multi-record log stream, aborting on the first
// malformed record.
func ParseDataset(r io.Reader) (*Dataset, error) { return darshan.ParseDataset(r) }

// ParseDatasetLenient reads a multi-record log stream, quarantining
// malformed or out-of-range records (NaN/Inf/negative counters) instead of
// aborting. Use it for real-world log corpora where one corrupt job must
// not discard the rest.
func ParseDatasetLenient(r io.Reader) (*Dataset, []RecordError, error) {
	return darshan.ParseDatasetLenient(r)
}

// QuarantineSummary renders a one-line account of a lenient parse.
func QuarantineSummary(accepted int, quarantine []RecordError) string {
	return darshan.QuarantineSummary(accepted, quarantine)
}

// TrainContext is Train with cooperative cancellation: ctx is checked
// between model fits.
func TrainContext(ctx context.Context, frame *Frame, opts TrainOptions) (*Ensemble, *TrainReport, error) {
	return core.TrainEnsembleContext(ctx, frame, opts)
}

// WriteDataset writes a whole dataset as one log stream.
func WriteDataset(w io.Writer, ds *Dataset) error { return darshan.WriteDataset(w, ds) }

// CounterNames returns the 45 counter names in canonical order (Table 4).
func CounterNames() []string { return darshan.CounterNames() }

// Advise maps a diagnosis to ranked tuning recommendations whose predicted
// gains come from counterfactual evaluation of the trained performance
// functions (the paper's "automatically fixing I/O issues" future work).
// Only recommendations with predicted gain >= minGain are returned.
func Advise(ens *Ensemble, diag *Diagnosis, minGain float64) ([]Recommendation, error) {
	return tune.New(ens).Advise(diag, minGain)
}
