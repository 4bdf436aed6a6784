package core

import (
	"strconv"
	"testing"

	"github.com/hpc-repro/aiio/internal/darshan"
)

// assertDiagnosisBitwiseEqual fails unless every numeric field of two
// diagnoses is bitwise identical — the guarantee the parallel engine makes
// against the sequential path.
func assertDiagnosisBitwiseEqual(t *testing.T, label string, seq, par *Diagnosis) {
	t.Helper()
	if len(seq.PerModel) != len(par.PerModel) {
		t.Fatalf("%s: %d vs %d per-model diagnoses", label, len(seq.PerModel), len(par.PerModel))
	}
	eqModel := func(name string, a, b *ModelDiagnosis) {
		if a.Name != b.Name {
			t.Fatalf("%s: %s: name %q vs %q", label, name, a.Name, b.Name)
		}
		if a.Predicted != b.Predicted || a.Base != b.Base || a.AdditivityErr != b.AdditivityErr ||
			a.PredictedMiBps != b.PredictedMiBps {
			t.Errorf("%s: %s: scalar fields differ", label, name)
		}
		if len(a.Contributions) != len(b.Contributions) {
			t.Fatalf("%s: %s: contribution lengths differ", label, name)
		}
		for j := range a.Contributions {
			if a.Contributions[j] != b.Contributions[j] {
				t.Errorf("%s: %s: contribution %d: %v vs %v (not bitwise identical)",
					label, name, j, a.Contributions[j], b.Contributions[j])
			}
		}
	}
	for i := range seq.PerModel {
		eqModel(seq.PerModel[i].Name, &seq.PerModel[i], &par.PerModel[i])
	}
	if seq.ClosestIndex != par.ClosestIndex {
		t.Errorf("%s: closest index %d vs %d", label, seq.ClosestIndex, par.ClosestIndex)
	}
	for i := range seq.Weights {
		if seq.Weights[i] != par.Weights[i] {
			t.Errorf("%s: weight %d differs", label, i)
		}
	}
	eqModel("closest", &seq.Closest, &par.Closest)
	eqModel("average", &seq.Average, &par.Average)
}

// TestDiagnoseParallelDeterminism asserts that the parallel per-model path
// produces bitwise-identical output to the sequential path for every
// explainer: each model's explainer is independently seeded and slot i of
// PerModel is owned by exactly one worker, so no reduction order depends on
// scheduling.
func TestDiagnoseParallelDeterminism(t *testing.T) {
	_, ens, _ := fixture(t)
	rec := slowJob(t)

	for _, explainer := range []Explainer{ExplainerKernel, ExplainerAuto, ExplainerLIME} {
		opts := fastDiagOpts()
		opts.Explainer = explainer

		seqOpts := opts
		seqOpts.Parallelism = 1
		seq, err := ens.Diagnose(rec, seqOpts)
		if err != nil {
			t.Fatalf("%s: sequential: %v", explainer, err)
		}
		for _, workers := range []int{2, 4, 16} {
			parOpts := opts
			parOpts.Parallelism = workers
			par, err := ens.Diagnose(rec, parOpts)
			if err != nil {
				t.Fatalf("%s: parallel(%d): %v", explainer, workers, err)
			}
			assertDiagnosisBitwiseEqual(t,
				string(explainer)+"/workers="+strconv.Itoa(workers), seq, par)
		}
	}
}

// TestDiagnoseBatchMatchesSequential asserts that DiagnoseBatch returns, in
// input order, exactly the diagnoses a per-record sequential Diagnose loop
// would produce.
func TestDiagnoseBatchMatchesSequential(t *testing.T) {
	_, ens, _ := fixture(t)
	base := slowJob(t)
	recs := []*darshan.Record{base, base, base, base, base}

	seqOpts := fastDiagOpts()
	seqOpts.Parallelism = 1
	want := make([]*Diagnosis, len(recs))
	for i, rec := range recs {
		var err error
		want[i], err = ens.Diagnose(rec, seqOpts)
		if err != nil {
			t.Fatal(err)
		}
	}

	for _, workers := range []int{0, 1, 2, 7} {
		opts := fastDiagOpts()
		opts.Parallelism = workers
		got, err := ens.DiagnoseBatch(recs, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d diagnoses, want %d", workers, len(got), len(want))
		}
		for i := range got {
			assertDiagnosisBitwiseEqual(t, "batch job "+strconv.Itoa(i), want[i], got[i])
		}
	}
}

// TestDiagnoseBatchEmptyAndErrors covers the degenerate inputs.
func TestDiagnoseBatchEmptyAndErrors(t *testing.T) {
	_, ens, _ := fixture(t)
	if out, err := ens.DiagnoseBatch(nil, fastDiagOpts()); err != nil || out != nil {
		t.Errorf("empty batch: got (%v, %v)", out, err)
	}
	opts := fastDiagOpts()
	opts.Explainer = "nonsense"
	if _, err := ens.DiagnoseBatch([]*darshan.Record{slowJob(t)}, opts); err == nil {
		t.Error("unknown explainer did not error")
	}
	empty := &Ensemble{}
	if _, err := empty.DiagnoseBatch([]*darshan.Record{slowJob(t)}, fastDiagOpts()); err == nil {
		t.Error("empty ensemble did not error")
	}
}
