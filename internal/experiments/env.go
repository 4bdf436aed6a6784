// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 4) on the simulated substrate. Each experiment is a
// function that runs the workloads, produces a structured result for
// assertions and benchmarks, and renders a text report (the figure/table
// analogue) to an io.Writer.
//
// The per-experiment index lives in DESIGN.md; EXPERIMENTS.md records
// paper-reported versus measured values.
package experiments

import (
	"fmt"
	"io"
	"sync"

	"github.com/hpc-repro/aiio/internal/core"
	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/features"
	"github.com/hpc-repro/aiio/internal/iosim"
	"github.com/hpc-repro/aiio/internal/logdb"
	"github.com/hpc-repro/aiio/internal/workload"
)

// Env is the shared environment of an experiment run: the simulated file
// system, the generated log database and the trained ensemble, built once
// and reused.
type Env struct {
	// Fast selects the reduced-scale configuration used by tests and the
	// default benchmarks; full scale matches the paper's workload sizes
	// more closely and takes minutes.
	Fast bool
	// Seed drives the database, the training split and the explainers.
	Seed int64
	// Params is the simulated file system (noise disabled for tuned-vs-
	// untuned comparisons to be crisp).
	Params iosim.Params
	// DBJobs is the log-database size.
	DBJobs int
	// DiagOpts is the diagnosis configuration.
	DiagOpts core.DiagnoseOptions

	mu     sync.Mutex
	ds     *darshan.Dataset
	frame  *features.Frame
	ens    *core.Ensemble
	report *core.TrainReport
	err    error
}

// NewEnv returns a ready environment. fast=true keeps every experiment
// under a few seconds; fast=false runs closer to paper scale.
func NewEnv(fast bool) *Env {
	params := iosim.DefaultParams()
	params.NoiseSigma = 0
	diag := core.DefaultDiagnoseOptions()
	e := &Env{
		Fast:     fast,
		Seed:     1,
		Params:   params,
		DiagOpts: diag,
	}
	if fast {
		e.DBJobs = 1000
		e.DiagOpts.SHAP.MaxExact = 10
		e.DiagOpts.SHAP.NSamples = 1024
	} else {
		e.DBJobs = 4000 // the SHAP defaults stand: exact to 12 counters, auto budget
	}
	return e
}

// Data returns the generated log database and its feature frame.
func (e *Env) Data() (*darshan.Dataset, *features.Frame, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ds == nil {
		e.ds = logdb.Generate(logdb.GenConfig{Jobs: e.DBJobs, Seed: e.Seed, Params: e.Params})
		e.frame = features.Build(e.ds)
	}
	return e.ds, e.frame, nil
}

// Ensemble returns the five-model ensemble trained on the database.
func (e *Env) Ensemble() (*core.Ensemble, *core.TrainReport, error) {
	if _, _, err := e.Data(); err != nil {
		return nil, nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ens == nil && e.err == nil {
		opts := core.DefaultTrainOptions()
		opts.Seed = e.Seed
		opts.Fast = e.Fast
		e.ens, e.report, e.err = core.TrainEnsemble(e.frame, opts)
	}
	return e.ens, e.report, e.err
}

// patternScale reduces the Section 4.1 workloads in fast mode: 256 procs is
// the paper's scale, 16 keeps tests quick.
func (e *Env) patternScale() (procDiv, blockDiv int) {
	if e.Fast {
		return 16, 4
	}
	return 1, 1
}

// scalePattern applies the environment's scale to a pattern config.
func (e *Env) scalePattern(cfg workload.IORConfig) workload.IORConfig {
	pd, bd := e.patternScale()
	return cfg.Scale(pd, bd)
}

// runIOR executes a config on the environment's file system.
func (e *Env) runIOR(cfg workload.IORConfig, name string, jobID, seed int64) (*darshan.Record, iosim.Result) {
	return cfg.Run(name, jobID, seed, e.Params)
}

// diagnose runs the merged diagnosis of a record.
func (e *Env) diagnose(rec *darshan.Record) (*core.Diagnosis, error) {
	ens, _, err := e.Ensemble()
	if err != nil {
		return nil, err
	}
	return ens.Diagnose(rec, e.DiagOpts)
}

// diagnoseBatch diagnoses many records on the engine's bounded worker pool
// (the experiments leave DiagOpts.Parallelism at 0 = GOMAXPROCS).
func (e *Env) diagnoseBatch(recs []*darshan.Record) ([]*core.Diagnosis, error) {
	ens, _, err := e.Ensemble()
	if err != nil {
		return nil, err
	}
	return ens.DiagnoseBatch(recs, e.DiagOpts)
}

// containsCounter reports whether id appears within the first n factors.
func containsCounter(fs []core.Factor, id darshan.CounterID, n int) bool {
	for i, f := range fs {
		if n > 0 && i >= n {
			break
		}
		if f.Counter == id {
			return true
		}
	}
	return false
}

// fprintHeader writes a section header.
func fprintHeader(w io.Writer, title string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
}
