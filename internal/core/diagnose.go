package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"

	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/features"
	"github.com/hpc-repro/aiio/internal/lime"
	"github.com/hpc-repro/aiio/internal/parallel"
	"github.com/hpc-repro/aiio/internal/shap"
)

// Explainer selects the diagnosis function run against every model. The
// paper supports SHAP and LIME but merges results only within one
// technology (their scales differ).
type Explainer string

// The supported explainers.
const (
	// ExplainerAuto (the zero value and the default) explains the
	// boosted-tree models with the exact closed-form TreeSHAP and the neural
	// ones with Kernel SHAP. Both use the zero background and the
	// interventional semantics, so the values are Kernel SHAP's, exact and
	// much faster on trees.
	ExplainerAuto Explainer = "auto"
	// ExplainerKernel runs Kernel SHAP against every model (the paper's
	// uniform model-agnostic setup).
	ExplainerKernel Explainer = "kernel"
	// ExplainerLIME runs LIME against every model.
	ExplainerLIME Explainer = "lime"
)

// ParseExplainer validates an -explainer flag value; the empty string
// means ExplainerAuto.
func ParseExplainer(s string) (Explainer, error) {
	switch x := Explainer(s); x {
	case "":
		return ExplainerAuto, nil
	case ExplainerAuto, ExplainerKernel, ExplainerLIME:
		return x, nil
	}
	return "", fmt.Errorf("core: unknown explainer %q (want auto, kernel or lime)", s)
}

// DiagnoseOptions configures a diagnosis.
type DiagnoseOptions struct {
	Explainer Explainer
	SHAP      shap.Config
	LIME      lime.Config
	// Parallelism bounds the diagnosis worker pool: the concurrent
	// per-model explanations inside Diagnose and the per-job workers of
	// DiagnoseBatch. 0 (the default) means runtime.GOMAXPROCS(0); 1 forces
	// the sequential path. The output is bitwise-identical at every
	// setting: each model's explanation is a function of its input and the
	// options alone, and the Eq. 6/7 merges always reduce in model order.
	Parallelism int
}

// DefaultDiagnoseOptions uses ExplainerAuto: exact TreeSHAP for the three
// boosted-tree models, Kernel SHAP (the shap package's auto budget) for MLP
// and TabNet. Set Explainer to ExplainerKernel for the paper's uniform
// model-agnostic setup.
func DefaultDiagnoseOptions() DiagnoseOptions {
	return DiagnoseOptions{
		Explainer: ExplainerAuto,
		SHAP:      shap.DefaultConfig(),
		LIME:      lime.DefaultConfig(),
	}
}

// ModelDiagnosis is the diagnosis of one job under one performance function
// (or a merged pseudo-model).
type ModelDiagnosis struct {
	Name string
	// Predicted is the model's transformed performance prediction;
	// PredictedMiBps is the same in MiB/s.
	Predicted      float64
	PredictedMiBps float64
	// Base is the expected performance E (f at the zero background).
	Base float64
	// Contributions are the per-counter C_j values (Eq. 4); exactly zero
	// for counters that are zero in the log (robustness).
	Contributions []float64
	// AdditivityErr is |Base + ΣC − Predicted| (local accuracy residual).
	AdditivityErr float64
	// Err is the failure that prevented this model's diagnosis — a
	// recovered panic, an injected error, or a non-finite output ("" on
	// success). A failed model has nil Contributions and is excluded from
	// the Eq. 6/7 merges; the surviving subset carries the diagnosis.
	Err string
}

// Failed reports whether this model's diagnosis was skipped.
func (md *ModelDiagnosis) Failed() bool { return md.Err != "" }

// Diagnosis is the full AIIO output for one job.
type Diagnosis struct {
	Record *darshan.Record
	// Actual is the transformed measured performance (the Eq. 1 tag after
	// Eq. 2); ActualMiBps is the raw tag.
	Actual      float64
	ActualMiBps float64
	// PerModel holds each performance function's diagnosis.
	PerModel []ModelDiagnosis
	// ClosestIndex is the Eq. 6 pick: the model whose prediction is nearest
	// the measured performance.
	ClosestIndex int
	// Weights are the Eq. 8 accuracy weights (sum to 1), aligned with
	// PerModel.
	Weights []float64
	// Closest and Average are the two merged diagnoses of Section 3.3.
	Closest ModelDiagnosis
	Average ModelDiagnosis
	// Degraded reports that at least one model's diagnosis failed and the
	// merges ran over the surviving subset only. The failed models keep
	// their PerModel slots with Err set and weight 0.
	Degraded bool
}

// SkippedModels returns the names of models whose diagnosis failed, in
// model order; empty when the diagnosis is complete.
func (d *Diagnosis) SkippedModels() []string {
	var names []string
	for i := range d.PerModel {
		if d.PerModel[i].Failed() {
			names = append(names, d.PerModel[i].Name)
		}
	}
	return names
}

// Diagnose runs every performance function's diagnosis function on the job
// and merges the results with both the Closest (Eq. 6) and Average
// (Eq. 7–8) methods.
func (e *Ensemble) Diagnose(rec *darshan.Record, opts DiagnoseOptions) (*Diagnosis, error) {
	return e.DiagnoseContext(context.Background(), rec, opts)
}

// DiagnoseContext is Diagnose with cooperative cancellation and degraded
// operation. Cancellation: ctx is checked between per-model dispatches and
// between model-evaluation chunks inside the explainers, so a deadline
// aborts the diagnosis within one chunk's worth of work and ctx's error is
// returned. Degradation: a model that panics, errors, or returns non-finite
// values is skipped — its PerModel slot records the failure, Degraded is
// set, and the Eq. 6/7 merges run over the surviving subset. Only when
// every model fails (or ctx expires) is an error returned.
func (e *Ensemble) DiagnoseContext(ctx context.Context, rec *darshan.Record, opts DiagnoseOptions) (*Diagnosis, error) {
	explain, err := e.explainers(opts)
	if err != nil {
		return nil, err
	}
	return e.diagnose(ctx, rec, explain, opts.Parallelism)
}

// modelExplainer runs one performance function's diagnosis function on a
// transformed counter vector. It is safe for concurrent use, so one serves
// every job of a batch.
type modelExplainer func(ctx context.Context, x []float64) (ModelDiagnosis, error)

// explainers validates opts and builds the diagnosis function of every model,
// in model order, once for a whole Diagnose or DiagnoseBatch call.
func (e *Ensemble) explainers(opts DiagnoseOptions) ([]modelExplainer, error) {
	if len(e.Models) == 0 {
		return nil, fmt.Errorf("core: ensemble has no models")
	}
	kind, err := ParseExplainer(string(opts.Explainer))
	if err != nil {
		return nil, err
	}
	explain := make([]modelExplainer, len(e.Models))
	for i, m := range e.Models {
		if kind == ExplainerLIME {
			explain[i] = limeExplainer(m, opts.LIME)
		} else {
			explain[i] = shapExplainer(m, kind, opts.SHAP)
		}
	}
	return explain, nil
}

// diagnose runs the prepared per-model explainers on one job and merges
// their results. parallelism bounds the per-model worker pool.
func (e *Ensemble) diagnose(ctx context.Context, rec *darshan.Record, explain []modelExplainer, parallelism int) (*Diagnosis, error) {
	// Sanitize the performance tag: a NaN/Inf/negative tag (corrupt log)
	// would otherwise poison every Eq. 8 weight. Identity on valid records.
	perf := features.Sanitize(rec.PerfMiBps)
	x := features.TransformRecord(rec)
	d := &Diagnosis{
		Record:      rec,
		Actual:      features.Transform(perf),
		ActualMiBps: perf,
	}

	// Each model's explanation is independent until the Eq. 6/7 merges, so
	// they run on a bounded worker pool. Worker i owns slot i of PerModel,
	// which keeps the assembled slice — and everything merged from it —
	// identical to the sequential order. A panicking model is recovered
	// into its slot's Err instead of crashing the pool.
	d.PerModel = make([]ModelDiagnosis, len(e.Models))
	err := parallel.EachCtx(ctx, len(e.Models), parallelism, func(i int) {
		callErr := parallel.Call(func() error {
			md, err := explain[i](ctx, x)
			if err != nil {
				return err
			}
			md.Name = e.Models[i].Name()
			md.PredictedMiBps = features.Inverse(md.Predicted)
			if err := md.checkFinite(); err != nil {
				return err
			}
			d.PerModel[i] = md
			return nil
		})
		if callErr != nil {
			d.PerModel[i] = ModelDiagnosis{Name: e.Models[i].Name(), Err: callErr.Error()}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("core: diagnose cancelled: %w", err)
	}

	survivors := 0
	firstErr := ""
	for i := range d.PerModel {
		if d.PerModel[i].Failed() {
			if firstErr == "" {
				firstErr = d.PerModel[i].Name + ": " + d.PerModel[i].Err
			}
			continue
		}
		survivors++
	}
	if survivors == 0 {
		return nil, fmt.Errorf("core: all %d models failed; first failure: %s", len(e.Models), firstErr)
	}
	d.Degraded = survivors < len(e.Models)

	d.ClosestIndex = closestModel(d.PerModel, d.Actual)
	d.Weights = averageWeights(d.PerModel, d.Actual)

	// Closest Method (Eq. 6): adopt the nearest model's diagnosis wholesale.
	d.Closest = d.PerModel[d.ClosestIndex]
	d.Closest.Name = "closest(" + d.PerModel[d.ClosestIndex].Name + ")"

	// Average Method (Eq. 7): accuracy-weighted merge of contributions and
	// expectations over the surviving models (failed ones have weight 0).
	avg := ModelDiagnosis{Name: "average", Contributions: make([]float64, len(x))}
	for mi := range d.PerModel {
		md := &d.PerModel[mi]
		if md.Failed() {
			continue
		}
		w := d.Weights[mi]
		avg.Predicted += w * md.Predicted
		avg.Base += w * md.Base
		for j, c := range md.Contributions {
			avg.Contributions[j] += w * c
		}
		avg.AdditivityErr += w * md.AdditivityErr
	}
	avg.PredictedMiBps = features.Inverse(avg.Predicted)
	d.Average = avg
	return d, nil
}

// shapExplainer builds one model's SHAP diagnosis function. A network gets
// Kernel SHAP with its coalition batches on its float32 predictor and Base
// and FX on PredictBatch (DESIGN.md §8); every other model gets the
// estimator the shap.ForModel dispatcher picks: TreeSHAP for a tree model
// under ExplainerAuto, Kernel SHAP on PredictBatch otherwise. The zero
// background is AIIO's Section 3.3 filter.
func shapExplainer(m Model, kind Explainer, cfg shap.Config) modelExplainer {
	mode := shap.ModeAuto
	if kind == ExplainerKernel {
		mode = shap.ModeKernel
	}
	tree, _ := TreeModel(m)
	var att shap.Attributor
	var err error
	if coalitions, ok := Float32Predictor(m); ok {
		att = shap.NewCoalitions(m.PredictBatch, coalitions, nil, cfg)
	} else {
		att, err = shap.ForModel(m.PredictBatch, tree, nil, mode, cfg)
	}
	if err != nil {
		return func(context.Context, []float64) (ModelDiagnosis, error) { return ModelDiagnosis{}, err }
	}
	return func(ctx context.Context, x []float64) (ModelDiagnosis, error) {
		ex, err := att.Attribute(ctx, x)
		if err != nil {
			return ModelDiagnosis{}, err
		}
		return ModelDiagnosis{
			Predicted:     ex.FX,
			Base:          ex.Base,
			Contributions: ex.Phi,
			AdditivityErr: ex.AdditivityError(),
		}, nil
	}
}

// limeExplainer builds one model's LIME diagnosis function.
func limeExplainer(m Model, cfg lime.Config) modelExplainer {
	return func(ctx context.Context, x []float64) (ModelDiagnosis, error) {
		ex, err := lime.New(m.PredictBatch, nil, cfg).ExplainContext(ctx, x)
		if err != nil {
			return ModelDiagnosis{}, err
		}
		sum := ex.Intercept
		for _, p := range ex.Phi {
			sum += p
		}
		return ModelDiagnosis{
			Predicted:     ex.FX,
			Base:          ex.Intercept,
			Contributions: ex.Phi,
			AdditivityErr: math.Abs(sum - ex.FX),
		}, nil
	}
}

// checkFinite rejects a model diagnosis carrying NaN/Inf — the signature of
// a corrupted or fault-injected backend. Letting such values through would
// silently poison the Eq. 6/7 merges and every weight.
func (md *ModelDiagnosis) checkFinite() error {
	if math.IsNaN(md.Predicted) || math.IsInf(md.Predicted, 0) {
		return fmt.Errorf("non-finite prediction %v", md.Predicted)
	}
	if math.IsNaN(md.Base) || math.IsInf(md.Base, 0) {
		return fmt.Errorf("non-finite base value %v", md.Base)
	}
	for j, c := range md.Contributions {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("non-finite contribution %v for counter %d", c, j)
		}
	}
	return nil
}

// DiagnoseBatch diagnoses every record on a bounded worker pool of
// opts.Parallelism workers (0 means runtime.GOMAXPROCS(0)). Jobs are the
// unit of parallelism; when there are fewer jobs than workers, the surplus
// is handed down as per-model concurrency inside each job, so small batches
// still use the machine. Output order matches recs and every diagnosis is
// bitwise-identical to a standalone Diagnose call with the same options.
func (e *Ensemble) DiagnoseBatch(recs []*darshan.Record, opts DiagnoseOptions) ([]*Diagnosis, error) {
	return e.DiagnoseBatchContext(context.Background(), recs, opts)
}

// DiagnoseBatchContext is DiagnoseBatch with cooperative cancellation: once
// ctx is done, no new job is dispatched, in-flight jobs abort at their next
// explainer chunk boundary, and ctx's error is returned — so a cancelled
// batch returns within one chunk's worth of work, not after draining the
// whole queue.
func (e *Ensemble) DiagnoseBatchContext(ctx context.Context, recs []*darshan.Record, opts DiagnoseOptions) ([]*Diagnosis, error) {
	if len(recs) == 0 {
		return nil, ctx.Err()
	}
	total := opts.Parallelism
	if total <= 0 {
		total = runtime.GOMAXPROCS(0)
	}
	workers := parallel.Workers(total, len(recs))
	explain, err := e.explainers(opts)
	if err != nil {
		return nil, err
	}
	perJob := (total + workers - 1) / workers

	out := make([]*Diagnosis, len(recs))
	errs := make([]error, len(recs))
	if err := parallel.EachCtx(ctx, len(recs), workers, func(i int) {
		out[i], errs[i] = e.diagnose(ctx, recs[i], explain, perJob)
	}); err != nil {
		return nil, fmt.Errorf("core: diagnose batch cancelled: %w", err)
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: diagnose job %d: %w", i, err)
		}
	}
	return out, nil
}

// closestModel implements Eq. 6 over the surviving models. The caller
// guarantees at least one model succeeded.
func closestModel(models []ModelDiagnosis, actual float64) int {
	best, bestErr := -1, math.Inf(1)
	for i := range models {
		if models[i].Failed() {
			continue
		}
		if err := math.Abs(models[i].Predicted - actual); err < bestErr {
			best, bestErr = i, err
		}
	}
	return best
}

// averageWeights implements Eq. 8: r_m = Σ|ŷ−y| / |ŷ_m−y|, w_m = r_m / Σr.
// A small epsilon keeps exact predictions from dividing by zero. Failed
// models get weight 0; the surviving weights still sum to 1, so a degraded
// merge is exactly the Eq. 7–8 merge of the surviving subset.
func averageWeights(models []ModelDiagnosis, actual float64) []float64 {
	const eps = 1e-9
	total := 0.0
	errs := make([]float64, len(models))
	for i := range models {
		if models[i].Failed() {
			continue
		}
		errs[i] = math.Abs(models[i].Predicted-actual) + eps
		total += errs[i]
	}
	r := make([]float64, len(models))
	sumR := 0.0
	for i := range models {
		if models[i].Failed() {
			continue
		}
		r[i] = total / errs[i]
		sumR += r[i]
	}
	for i := range r {
		r[i] /= sumR
	}
	return r
}

// Factor is one counter's contribution to a job's performance.
type Factor struct {
	Counter      darshan.CounterID
	Contribution float64
	// Value is the counter's raw (untransformed) value in the log.
	Value float64
}

// Bottlenecks returns the merged (Average Method) negative contributors,
// most negative first — AIIO's bottleneck list.
func (d *Diagnosis) Bottlenecks() []Factor {
	return d.Average.factors(d.Record, true)
}

// TopFactors returns the n largest-magnitude merged contributions (positive
// and negative), as the paper's waterfall figures show.
func (d *Diagnosis) TopFactors(n int) []Factor {
	fs := d.Average.factors(d.Record, false)
	if n > 0 && len(fs) > n {
		fs = fs[:n]
	}
	return fs
}

// factors extracts non-zero contributions, sorted by (signed ascending when
// negativeOnly, |magnitude| descending otherwise).
func (md *ModelDiagnosis) factors(rec *darshan.Record, negativeOnly bool) []Factor {
	var fs []Factor
	for j, c := range md.Contributions {
		if c == 0 {
			continue
		}
		if negativeOnly && c >= 0 {
			continue
		}
		f := Factor{Counter: darshan.CounterID(j), Contribution: c}
		if rec != nil {
			f.Value = rec.Counters[j]
		}
		fs = append(fs, f)
	}
	if negativeOnly {
		sort.Slice(fs, func(i, j int) bool { return fs[i].Contribution < fs[j].Contribution })
	} else {
		sort.Slice(fs, func(i, j int) bool {
			return math.Abs(fs[i].Contribution) > math.Abs(fs[j].Contribution)
		})
	}
	return fs
}

// Factors exposes a per-model factor list (used by the Fig. 6 reproduction).
func (md *ModelDiagnosis) Factors(rec *darshan.Record) []Factor {
	return md.factors(rec, false)
}

// IsRobust verifies the Section 3.3 robustness property: every counter that
// is zero in the record has exactly zero contribution in every per-model and
// merged diagnosis. Failed models have no contributions and are vacuously
// robust.
func (d *Diagnosis) IsRobust() bool {
	check := func(md *ModelDiagnosis) bool {
		for j, c := range md.Contributions {
			if d.Record.Counters[j] == 0 && c != 0 {
				return false
			}
		}
		return true
	}
	for i := range d.PerModel {
		if !check(&d.PerModel[i]) {
			return false
		}
	}
	return check(&d.Closest) && check(&d.Average)
}
