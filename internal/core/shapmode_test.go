package core

import (
	"math"
	"testing"

	"github.com/hpc-repro/aiio/internal/darshan"
)

// sparseJob builds a record with few non-zero counters, so its transformed
// vector has an active set small enough for the exact Kernel enumerator.
func sparseJob() *darshan.Record {
	rec := &darshan.Record{JobID: 7, App: "sparse", PerfMiBps: 120}
	rec.Counters[darshan.NProcs] = 8
	rec.Counters[darshan.PosixOpens] = 8
	rec.Counters[darshan.PosixWrites] = 4096
	rec.Counters[darshan.PosixBytesWritten] = 4096 * 1024
	rec.Counters[darshan.PosixSeqWrites] = 4000
	rec.Counters[darshan.PosixFileNotAligned] = 512
	return rec
}

func activeCount(rec *darshan.Record) int {
	n := 0
	for _, c := range rec.Counters {
		if c != 0 {
			n++
		}
	}
	return n
}

// TestSHAPModeAutoMatchesExactKernel is the acceptance check of the auto
// dispatcher: for a job whose active set fits the exact Kernel enumerator,
// routing the tree models through TreeSHAP must reproduce the enumerator's
// Shapley values to 1e-9, and both paths must keep the Section 3.3
// robustness property.
func TestSHAPModeAutoMatchesExactKernel(t *testing.T) {
	_, ens, _ := fixture(t)
	rec := sparseJob()
	if m := activeCount(rec); m > DefaultDiagnoseOptions().SHAP.MaxExact {
		t.Fatalf("sparse job has %d active counters, exceeds MaxExact", m)
	}

	auto := DefaultDiagnoseOptions()
	auto.Explainer = ExplainerAuto
	kernel := DefaultDiagnoseOptions()
	kernel.Explainer = ExplainerKernel

	da, err := ens.Diagnose(rec, auto)
	if err != nil {
		t.Fatal(err)
	}
	dk, err := ens.Diagnose(rec, kernel)
	if err != nil {
		t.Fatal(err)
	}
	for i := range da.PerModel {
		a, k := da.PerModel[i], dk.PerModel[i]
		if a.Failed() || k.Failed() {
			t.Fatalf("model %s failed: %q / %q", a.Name, a.Err, k.Err)
		}
		for j := range a.Contributions {
			if d := math.Abs(a.Contributions[j] - k.Contributions[j]); d > 1e-9 {
				t.Errorf("%s phi[%d]: auto %v vs kernel %v (|Δ|=%g)",
					a.Name, j, a.Contributions[j], k.Contributions[j], d)
			}
		}
		if a.AdditivityErr > 1e-9 {
			t.Errorf("%s: tree-path additivity error %v", a.Name, a.AdditivityErr)
		}
	}
	if !da.IsRobust() || !dk.IsRobust() {
		t.Error("robustness property violated by auto or kernel mode")
	}
}

// TestSHAPModeUnknownRejected: an invalid explainer fails fast, before any
// model work.
func TestSHAPModeUnknownRejected(t *testing.T) {
	_, ens, _ := fixture(t)
	opts := fastDiagOpts()
	opts.Explainer = "fourier"
	if _, err := ens.Diagnose(slowJob(t), opts); err == nil {
		t.Fatal("unknown explainer accepted")
	}
}

// TestParseExplainer: the three flag values parse to themselves, the empty
// string to auto, and anything else (the removed tree mode too) is refused.
func TestParseExplainer(t *testing.T) {
	for s, want := range map[string]Explainer{
		"":       ExplainerAuto,
		"auto":   ExplainerAuto,
		"kernel": ExplainerKernel,
		"lime":   ExplainerLIME,
	} {
		got, err := ParseExplainer(s)
		if err != nil || got != want {
			t.Errorf("ParseExplainer(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"fourier", "tree", "shap", "treeshap"} {
		if _, err := ParseExplainer(s); err == nil {
			t.Errorf("ParseExplainer accepted %q", s)
		}
	}
}

// TestUnsolvableKernelSHAPDegrades: when Kernel SHAP's least-squares system
// cannot be solved (a NaN ridge poisons the normal matrix), the neural models
// are skipped and the diagnosis is Degraded over the tree survivors. The
// estimator used to report success with f(x) − f(0) spread evenly over the
// active counters.
func TestUnsolvableKernelSHAPDegrades(t *testing.T) {
	_, ens, _ := fixture(t)
	opts := fastDiagOpts()
	opts.SHAP.Ridge = math.NaN()
	rec := slowJob(t)
	if m := activeCount(rec); m <= opts.SHAP.MaxExact {
		t.Fatalf("job has %d active counters, want more than MaxExact so the sampled estimator runs", m)
	}
	d, err := ens.Diagnose(rec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Degraded {
		t.Fatal("diagnosis not marked Degraded")
	}
	for i := range d.PerModel {
		md := &d.PerModel[i]
		if neural := ens.Models[i].Kind() != "gbdt"; md.Failed() != neural {
			t.Errorf("%s: failed=%v (%s), want %v", md.Name, md.Failed(), md.Err, neural)
		}
	}
	if !d.IsRobust() || d.Average.AdditivityErr > 1e-9 {
		t.Errorf("merge over the survivors: robust=%v additivity=%v", d.IsRobust(), d.Average.AdditivityErr)
	}
}
