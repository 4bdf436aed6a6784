// Command aiio is the command-line interface to the AIIO reproduction:
//
//	aiio gen-db    -jobs 3000 -seed 1 -o db.darshan
//	aiio train     -db db.darshan -models models/ [-fast] [-lenient]
//	aiio diagnose  -models models/ -log job.darshan [-top 9] [-explainer auto|kernel|lime] [-timeout 30s]
//	aiio experiment -id all [-fast] [-explainer auto|kernel|lime] (table1|table2|table3|fig1|fig4..fig17)
//	aiio ingest    -joblog-dir joblog (-db db.darshan | -gen N) [-server URL] [-batch 256]
//	aiio retrain   -joblog-dir joblog -models models/ [-minibatch 512] [-window 20000] [-fast]
//	aiio joblog    -dir joblog [-compact]
//	aiio quarantine <ls|show|purge> [-dir joblog] [-n index]
//
// gen-db simulates the historical I/O log database, train fits the five
// performance functions, diagnose prints a job's bottleneck waterfall, and
// experiment regenerates the paper's tables and figures. ingest appends
// jobs to the crash-safe write-ahead job log (deduplicated, so retries are
// idempotent), retrain drains its backlog into a new model generation, and
// joblog inspects or compacts the log.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"github.com/hpc-repro/aiio/internal/core"
	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/experiments"
	"github.com/hpc-repro/aiio/internal/features"
	"github.com/hpc-repro/aiio/internal/logdb"
	"github.com/hpc-repro/aiio/internal/report"
	"github.com/hpc-repro/aiio/internal/rules"
	"github.com/hpc-repro/aiio/internal/tune"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen-db":
		err = cmdGenDB(os.Args[2:])
	case "train":
		err = cmdTrain(os.Args[2:])
	case "diagnose":
		err = cmdDiagnose(os.Args[2:])
	case "experiment":
		err = cmdExperiment(os.Args[2:])
	case "ingest":
		err = cmdIngest(os.Args[2:])
	case "retrain":
		err = cmdRetrain(os.Args[2:])
	case "joblog":
		err = cmdJobLog(os.Args[2:])
	case "quarantine":
		err = cmdQuarantine(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "aiio: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "aiio: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: aiio <command> [flags]

commands:
  gen-db      generate a synthetic I/O log database (Table 1 substitute)
  train       train the five performance functions on a database
  diagnose    diagnose one Darshan log with a trained model registry
  experiment  regenerate the paper's tables and figures
  ingest      append jobs to the durable job log (or ship them to a server)
  retrain     incremental retrain: drain the job log into a new generation
  joblog      job log statistics and compaction
  quarantine  list, decode, or purge quarantined job records`)
}

func cmdGenDB(args []string) error {
	fs := flag.NewFlagSet("gen-db", flag.ExitOnError)
	jobs := fs.Int("jobs", 3000, "number of jobs to simulate")
	seed := fs.Int64("seed", 1, "random seed")
	out := fs.String("o", "db.darshan", "output file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ds := logdb.Generate(logdb.GenConfig{Jobs: *jobs, Seed: *seed})
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := darshan.WriteDataset(f, ds); err != nil {
		return err
	}
	fmt.Printf("wrote %d jobs to %s (avg sparsity %.4f)\n", ds.Len(), *out, ds.AverageSparsity())
	return nil
}

// loadDB reads a log database. With lenient set, malformed or out-of-range
// records are quarantined (and summarized on stderr) instead of aborting
// the load.
func loadDB(path string, lenient bool) (*darshan.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if !lenient {
		return darshan.ParseDataset(f)
	}
	ds, quarantine, err := darshan.ParseDatasetLenient(f)
	if err != nil {
		return nil, err
	}
	if len(quarantine) > 0 {
		report.Warn(os.Stderr, "%s: %s", path, darshan.QuarantineSummary(ds.Len(), quarantine))
	}
	return ds, nil
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	db := fs.String("db", "db.darshan", "log database file")
	modelsDir := fs.String("models", "models", "model registry directory")
	fast := fs.Bool("fast", false, "reduced training budgets")
	seed := fs.Int64("seed", 1, "random seed")
	lenient := fs.Bool("lenient", false, "quarantine corrupt records instead of aborting the load")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ds, err := loadDB(*db, *lenient)
	if err != nil {
		return err
	}
	frame := features.Build(ds)
	opts := core.DefaultTrainOptions()
	opts.Fast = *fast
	opts.Seed = *seed
	ens, rep, err := core.TrainEnsemble(frame, opts)
	if err != nil {
		return err
	}
	rows := [][]string{}
	for _, r := range rep.Models {
		rows = append(rows, []string{r.Name, fmt.Sprintf("%.4f", r.PredictionRMSE)})
	}
	report.Table(os.Stdout, []string{"Model", "Eval RMSE"}, rows)
	store, err := openStore(*modelsDir)
	if err != nil {
		return err
	}
	gen, err := store.Save(ens)
	if err != nil {
		return err
	}
	fmt.Printf("saved %d models to %s (generation %d)\n", len(ens.Models), *modelsDir, gen)
	return nil
}

// loadRegistry opens the versioned model store, surfacing rejected
// (corrupt) generations and fallbacks on stderr so a degraded registry is
// never mistaken for a healthy one. The returned advisories are the
// registry's provenance claims — generation, fingerprint, canary verdict —
// for rendering under any diagnosis the ensemble produces.
func loadRegistry(dir string) (*core.Ensemble, []report.Advisory, error) {
	store, err := openStore(dir)
	if err != nil {
		return nil, nil, err
	}
	ens, rep, err := store.Load()
	if err != nil {
		return nil, nil, err
	}
	for _, rej := range rep.Rejected {
		report.Warn(os.Stderr, "%s: generation %d rejected: %s", dir, rej.Generation, rej.Err)
	}
	if rep.FellBack {
		report.Warn(os.Stderr, "%s: serving fallback generation %d — newest generation failed verification",
			dir, rep.Generation)
	}
	var advs []report.Advisory
	if rep.Legacy {
		advs = append(advs, report.Advisory{
			Claim:      "serving a legacy flat registry",
			Source:     "model-registry",
			Confidence: "unverified (no checksums)",
		})
		return ens, advs, nil
	}
	claim := fmt.Sprintf("serving generation %d", rep.Generation)
	if fp := rep.Fingerprint; len(fp) >= 12 {
		claim += fmt.Sprintf(" (fingerprint %s)", fp[:12])
	}
	if rep.FellBack {
		claim += ", after fallback from a corrupt newer generation"
	}
	advs = append(advs, report.Advisory{Claim: claim, Source: "model-registry", Confidence: "exact"})
	if man, merr := store.Manifest(rep.Generation); merr == nil && man.Canary != nil {
		c := man.Canary
		adv := report.Advisory{Source: "canary-gate", Confidence: "exact"}
		if c.Reason != "" {
			adv.Claim = c.Reason
		} else if c.Passed {
			adv.Claim = fmt.Sprintf("promotion vetted: candidate RMSE %.4f vs serving %.4f", c.CandidateRMSE, c.ServingRMSE)
		}
		if c.HoldoutJobs > 0 {
			adv.Confidence = fmt.Sprintf("measured on %d held-out jobs", c.HoldoutJobs)
		}
		if adv.Claim != "" {
			advs = append(advs, adv)
		}
	}
	return ens, advs, nil
}

// explainerUsage documents the -explainer flag of diagnose and experiment.
const explainerUsage = "diagnosis function: auto (exact TreeSHAP for tree models, Kernel SHAP otherwise), kernel (Kernel SHAP for every model) or lime"

func cmdDiagnose(args []string) error {
	fs := flag.NewFlagSet("diagnose", flag.ExitOnError)
	modelsDir := fs.String("models", "models", "model registry directory")
	logPath := fs.String("log", "", "Darshan text log to diagnose (further logs may follow as positional arguments)")
	top := fs.Int("top", 9, "factors to display")
	explainer := fs.String("explainer", string(core.ExplainerAuto), explainerUsage)
	parallel := fs.Int("parallel", 0, "diagnosis worker pool size (0 = GOMAXPROCS)")
	advise := fs.Bool("advise", false, "print tuning recommendations with model-predicted gains")
	withRules := fs.Bool("rules", false, "also print static-rule (Drishti-style) findings")
	timeout := fs.Duration("timeout", 0, "abort the diagnosis after this long (0 = no deadline)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	paths := fs.Args()
	if *logPath != "" {
		paths = append([]string{*logPath}, paths...)
	}
	if len(paths) == 0 {
		return fmt.Errorf("diagnose: -log is required")
	}
	ens, advisories, err := loadRegistry(*modelsDir)
	if err != nil {
		return err
	}
	recs := make([]*darshan.Record, len(paths))
	for i, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		recs[i], err = darshan.ParseLog(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("diagnose: %s: %w", p, err)
		}
	}
	opts := core.DefaultDiagnoseOptions()
	if opts.Explainer, err = core.ParseExplainer(*explainer); err != nil {
		return fmt.Errorf("diagnose: %w", err)
	}
	opts.Parallelism = *parallel
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if len(recs) > 1 {
		if err := diagnoseBatch(ctx, ens, recs, paths, opts, *top); err != nil {
			return err
		}
		report.Advisories(os.Stdout, advisories)
		return nil
	}
	diag, err := ens.DiagnoseContext(ctx, recs[0], opts)
	if err != nil {
		return err
	}
	rec := recs[0]

	report.KV(os.Stdout, "application", "%s", rec.App)
	warnDegraded(diag)
	report.KV(os.Stdout, "measured performance", "%.2f MiB/s", diag.ActualMiBps)
	report.KV(os.Stdout, "closest model", "%s (%.2f MiB/s)",
		diag.PerModel[diag.ClosestIndex].Name, diag.PerModel[diag.ClosestIndex].PredictedMiBps)
	bars := []report.Bar{}
	for _, fct := range diag.TopFactors(*top) {
		bars = append(bars, report.Bar{Label: fct.Counter.String(), Value: fct.Contribution})
	}
	report.HBars(os.Stdout, "merged diagnosis (Average Method):", bars, 28)
	if b := diag.Bottlenecks(); len(b) > 0 {
		fmt.Printf("top bottleneck: %s (value %g, impact %+.4f)\n",
			b[0].Counter, b[0].Value, b[0].Contribution)
	} else {
		fmt.Println("no negative factors found")
	}
	report.Advisories(os.Stdout, advisories)

	if *advise {
		recs, err := tune.New(ens).Advise(diag, 1.05)
		if err != nil {
			return err
		}
		if len(recs) == 0 {
			fmt.Println("no tuning with a predicted gain above 5% found")
		}
		for _, rc := range recs {
			fmt.Printf("advice: %-24s predicted %.1fx (%.0f MiB/s) — %s\n",
				rc.Action, rc.PredictedGain, rc.PredictedMiBps, rc.Description)
		}
	}
	if *withRules {
		for _, f := range rules.Diagnose(rec) {
			fmt.Printf("rule [%s] %s: %s\n", f.Severity, f.Rule, f.Detail)
		}
	}
	return nil
}

// warnDegraded surfaces a degraded diagnosis: which models failed and why,
// so a merged result over a surviving subset is never mistaken for a full
// five-model consensus.
func warnDegraded(d *core.Diagnosis) {
	if !d.Degraded {
		return
	}
	report.Warn(os.Stdout, "degraded diagnosis: %d of %d models failed; merged over the survivors",
		len(d.SkippedModels()), len(d.PerModel))
	for _, md := range d.PerModel {
		if md.Failed() {
			report.Warn(os.Stdout, "  %s: %s", md.Name, md.Err)
		}
	}
}

// diagnoseBatch diagnoses several logs on the parallel engine and prints a
// compact per-job summary: measured vs closest prediction and the top
// bottleneck.
func diagnoseBatch(ctx context.Context, ens *core.Ensemble, recs []*darshan.Record, paths []string,
	opts core.DiagnoseOptions, top int) error {

	diags, err := ens.DiagnoseBatchContext(ctx, recs, opts)
	if err != nil {
		return err
	}
	rows := make([][]string, len(diags))
	for i, d := range diags {
		bottleneck := "-"
		if b := d.Bottlenecks(); len(b) > 0 {
			bottleneck = fmt.Sprintf("%s (%+.4f)", b[0].Counter, b[0].Contribution)
		}
		rows[i] = []string{
			paths[i],
			d.Record.App,
			fmt.Sprintf("%.2f", d.ActualMiBps),
			fmt.Sprintf("%.2f", d.Average.PredictedMiBps),
			bottleneck,
		}
	}
	report.Table(os.Stdout, []string{"Log", "App", "Measured MiB/s", "Predicted MiB/s", "Top bottleneck"}, rows)
	for i, d := range diags {
		fmt.Printf("\n-- %s --\n", paths[i])
		warnDegraded(d)
		bars := []report.Bar{}
		for _, fct := range d.TopFactors(top) {
			bars = append(bars, report.Bar{Label: fct.Counter.String(), Value: fct.Contribution})
		}
		report.HBars(os.Stdout, "merged diagnosis (Average Method):", bars, 28)
	}
	return nil
}

func cmdExperiment(args []string) error {
	fs := flag.NewFlagSet("experiment", flag.ExitOnError)
	id := fs.String("id", "all", "experiment id: all, table1..3, fig1, fig4..fig17, "+
		"classification, advisor, mpiio, rules, pdp, cross-platform, treeshap, unseen")
	fast := fs.Bool("fast", true, "reduced-scale run")
	explainer := fs.String("explainer", string(core.ExplainerAuto), explainerUsage)
	if err := fs.Parse(args); err != nil {
		return err
	}
	e := experiments.NewEnv(*fast)
	var err error
	if e.DiagOpts.Explainer, err = core.ParseExplainer(*explainer); err != nil {
		return fmt.Errorf("experiment: %w", err)
	}
	w := os.Stdout
	run := map[string]func() error{
		"table1": func() error { _, err := experiments.RunTable1(e, w); return err },
		"table2": func() error { _, err := experiments.RunTable2(e, w); return err },
		"table3": func() error { _, err := experiments.RunTable3(e, w); return err },
		"fig1":   func() error { _, err := experiments.RunFigure1(e, w); return err },
		"fig4":   func() error { _, err := experiments.RunFigure4(e, w); return err },
		"fig5":   func() error { _, err := experiments.RunFigure5(e, w); return err },
		"fig6":   func() error { _, err := experiments.RunFigure6(e, w); return err },
		"fig7":   func() error { _, err := experiments.RunPattern(e, w, 1); return err },
		"fig8":   func() error { _, err := experiments.RunPattern(e, w, 2); return err },
		"fig9":   func() error { _, err := experiments.RunPattern(e, w, 3); return err },
		"fig10":  func() error { _, err := experiments.RunPattern(e, w, 4); return err },
		"fig11":  func() error { _, err := experiments.RunPattern(e, w, 5); return err },
		"fig12":  func() error { _, err := experiments.RunPattern(e, w, 6); return err },
		"fig13":  func() error { _, err := experiments.RunFigure13(e, w); return err },
		"fig14":  func() error { _, err := experiments.RunFigure14(e, w); return err },
		"fig15":  func() error { _, err := experiments.RunFigure15(e, w); return err },
		"fig16":  func() error { _, err := experiments.RunFigure16(e, w); return err },
		"fig17":  func() error { _, err := experiments.RunFigure17(e, w); return err },
		"classification": func() error {
			_, err := experiments.RunExtensionClassification(e, w)
			return err
		},
		"advisor":        func() error { _, err := experiments.RunExtensionTuningAdvisor(e, w); return err },
		"mpiio":          func() error { _, err := experiments.RunExtensionMPIIO(e, w); return err },
		"rules":          func() error { _, err := experiments.RunAblationRules(e, w); return err },
		"pdp":            func() error { _, err := experiments.RunAblationPDP(e, w); return err },
		"cross-platform": func() error { _, err := experiments.RunAblationCrossPlatform(e, w); return err },
		"treeshap":       func() error { _, err := experiments.RunAblationTreeSHAP(e, w); return err },
		"unseen":         func() error { _, err := experiments.RunAblationUnseenApp(e, w); return err },
		"all":            func() error { return experiments.RunAll(e, w) },
	}
	fn, ok := run[*id]
	if !ok {
		return fmt.Errorf("experiment: unknown id %q", *id)
	}
	return fn()
}
