package core

import (
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
)

// TestConcurrentFitsMatchSequential pins the concurrent ensemble fit to the
// models each family produces when trained alone: bit-equal predictions and
// eval RMSE, with the ensemble and report in the requested order whatever
// order the fits finish in.
func TestConcurrentFitsMatchSequential(t *testing.T) {
	frame, _, _ := fixture(t)
	opts := DefaultTrainOptions()
	opts.Fast = true
	opts.Models = ModelNames()
	slices.Reverse(opts.Models)
	ens, report, err := TrainEnsemble(frame, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ens.Models) != len(opts.Models) || len(report.Models) != len(opts.Models) {
		t.Fatalf("%d models, %d reports, want %d", len(ens.Models), len(report.Models), len(opts.Models))
	}
	for i, name := range opts.Models {
		if ens.Models[i].Name() != name || report.Models[i].Name != name {
			t.Fatalf("slot %d holds model %q / report %q, want %q", i, ens.Models[i].Name(), report.Models[i].Name, name)
		}
		alone := opts
		alone.Models = []string{name}
		want, wantReport, err := TrainEnsemble(frame, alone)
		if err != nil {
			t.Fatal(err)
		}
		got, exp := ens.Models[i].PredictBatch(frame.X), want.Models[0].PredictBatch(frame.X)
		for r := range got {
			if math.Float64bits(got[r]) != math.Float64bits(exp[r]) {
				t.Fatalf("%s row %d: %v trained with the ensemble, %v alone", name, r, got[r], exp[r])
			}
		}
		if report.Models[i] != wantReport.Models[0] {
			t.Fatalf("%s report %+v, alone %+v", name, report.Models[i], wantReport.Models[0])
		}
	}
}

// cancelAfterFirstCheck is a context that turns cancelled right after its
// first Err call: exactly one fit starts, and the context is cancelled
// while that fit is in flight.
type cancelAfterFirstCheck struct {
	context.Context
	calls atomic.Int32
}

func (c *cancelAfterFirstCheck) Err() error {
	if c.calls.Add(1) > 1 {
		return context.Canceled
	}
	return nil
}

// TestTrainCancelledMidFitReturnsNoEnsemble cancels training while the one
// fit that starts is in flight. The error must name the first model, in
// model order, that never started. With all five models, the fit that
// starts must be a network: the fits start longest first. In the reversed
// order a network comes first, so the error names TabNet unless TabNet is
// the fit that started.
func TestTrainCancelledMidFitReturnsNoEnsemble(t *testing.T) {
	frame, _, _ := fixture(t)
	reversed := ModelNames()
	slices.Reverse(reversed)
	for _, models := range [][]string{
		{NameXGBoost, NameLightGBM, NameCatBoost},
		ModelNames(),
		reversed,
	} {
		opts := DefaultTrainOptions()
		opts.Fast = true
		opts.Models = models
		started := startOrder(models)[0]
		if len(models) == len(ModelNames()) && models[started] != NameTabNet && models[started] != NameMLP {
			t.Fatalf("%v: the fit that starts first is %s, want a network", models, models[started])
		}
		neverRan := 0
		if started == 0 {
			neverRan = 1
		}
		ctx := &cancelAfterFirstCheck{Context: context.Background()}
		ens, report, err := TrainEnsembleContext(ctx, frame, opts)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: err = %v, want one wrapping context.Canceled", models, err)
		}
		if want := "training cancelled before " + models[neverRan]; !strings.Contains(err.Error(), want) {
			t.Fatalf("%v: err = %q, want it to name the first model that never ran (%q)", models, err, want)
		}
		if ens != nil || report != nil {
			t.Fatalf("%v: cancelled training returned a partial ensemble (%v, %v)", models, ens, report)
		}
	}
}

// TestTrainUnknownModelNameFails: an unknown name, or a name given twice,
// is refused before any fit starts (the context is never consulted), and
// CheckModels refuses the same lists.
func TestTrainUnknownModelNameFails(t *testing.T) {
	frame, _, _ := fixture(t)
	for _, tc := range []struct {
		models []string
		want   string
	}{
		{[]string{"bogus", NameXGBoost, NameCatBoost}, `unknown model name "bogus"`},
		{[]string{NameXGBoost, "bogus", NameCatBoost}, `unknown model name "bogus"`},
		{[]string{NameXGBoost, NameCatBoost, "bogus"}, `unknown model name "bogus"`},
		{[]string{NameMLP, NameMLP}, `model name "mlp" given twice`},
		{[]string{NameXGBoost, NameCatBoost, NameXGBoost}, `model name "xgboost" given twice`},
	} {
		opts := DefaultTrainOptions()
		opts.Fast = true
		opts.Models = tc.models
		ctx := &cancelAfterFirstCheck{Context: context.Background()}
		ens, report, err := TrainEnsembleContext(ctx, frame, opts)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%v: err = %v, want %s", tc.models, err, tc.want)
		}
		if ens != nil || report != nil {
			t.Fatalf("%v: failed training returned a partial ensemble", tc.models)
		}
		if n := ctx.calls.Load(); n != 0 {
			t.Fatalf("%v: context checked %d times, want no fit started", tc.models, n)
		}
		if CheckModels(tc.models) == nil {
			t.Fatalf("%v: CheckModels accepted the list", tc.models)
		}
	}
	if err := CheckModels(ModelNames()); err != nil {
		t.Fatalf("CheckModels(all five) = %v", err)
	}
}
