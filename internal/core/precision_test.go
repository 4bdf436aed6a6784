package core

import (
	"context"
	"math"
	"slices"
	"sync"
	"testing"

	"github.com/hpc-repro/aiio/internal/features"
	"github.com/hpc-repro/aiio/internal/linalg"
	"github.com/hpc-repro/aiio/internal/logdb"
	"github.com/hpc-repro/aiio/internal/shap"
)

// The float32 coalition path (DESIGN.md §8): the networks' Kernel SHAP
// coalition batches run through PredictBatch32, everything a diagnosis
// reports as a prediction through PredictBatch. These tests hold it to the
// precision rule on the networks the benchmark serves — mlp and tabnet at
// default budgets on the 3 000-job database — and on held-out jobs of
// another seed.

var (
	netsOnce sync.Once
	netsEns  *Ensemble
	netsErr  error
	heldOut  [][]float64
)

// netsFixture trains mlp and tabnet at default budgets on the benchmark's
// training database and draws 200 held-out jobs (logdb seed 99).
func netsFixture(t testing.TB) (*Ensemble, [][]float64) {
	t.Helper()
	netsOnce.Do(func() {
		opts := DefaultTrainOptions()
		opts.Models = []string{NameMLP, NameTabNet}
		netsEns, _, netsErr = TrainEnsemble(features.Build(logdb.Generate(logdb.GenConfig{Jobs: 3000, Seed: 1})), opts)
		for _, rec := range logdb.Generate(logdb.GenConfig{Jobs: 200, Seed: 99}).Records {
			heldOut = append(heldOut, features.TransformRecord(rec))
		}
	})
	if netsErr != nil {
		t.Fatal(netsErr)
	}
	return netsEns, heldOut
}

// explainBoth explains x with the model's float64-only Kernel explainer and
// with the float32-coalition one the diagnosis uses.
func explainBoth(t testing.TB, m Model, x []float64) (e64, e32 shap.Explanation) {
	t.Helper()
	f32, ok := Float32Predictor(m)
	if !ok {
		t.Fatalf("%s has no float32 predictor", m.Name())
	}
	cfg := DefaultDiagnoseOptions().SHAP
	return shap.New(m.PredictBatch, nil, cfg).Explain(x), shap.NewCoalitions(m.PredictBatch, f32, nil, cfg).Explain(x)
}

// TestFloat32CoalitionBatches runs the coalition batches of 64 held-out
// jobs through both predictors: every float32 prediction is within 1e-4 of
// the float64 one, and bitwise the same whether the batch is evaluated in
// one call, in EvalChunked's 512-row chunks, or row range by row range.
func TestFloat32CoalitionBatches(t *testing.T) {
	ens, jobs := netsFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, m := range ens.Models {
		f32, _ := Float32Predictor(m)
		worst, rows := 0.0, 0
		check := func(x *linalg.Matrix) []float64 {
			got := f32(x)
			for i, p := range m.PredictBatch(x) {
				worst = math.Max(worst, math.Abs(got[i]-p))
			}
			rows += x.Rows
			chunked, err := shap.EvalChunked(ctx, f32, x)
			if err != nil {
				t.Fatal(err)
			}
			half := x.Rows / 2
			lo := f32(&linalg.Matrix{Rows: half, Cols: x.Cols, Data: x.Data[:half*x.Cols]})
			hi := f32(&linalg.Matrix{Rows: x.Rows - half, Cols: x.Cols, Data: x.Data[half*x.Cols:]})
			split := append(lo, hi...)
			for i, v := range got {
				if math.Float64bits(chunked[i]) != math.Float64bits(v) || math.Float64bits(split[i]) != math.Float64bits(v) {
					t.Fatalf("%s: row %d of %d: one call %v, 512-row chunks %v, halves %v", m.Name(), i, x.Rows, v, chunked[i], split[i])
				}
			}
			return got
		}
		// Explain hands check each batch whole; check chunks it itself.
		ex := shap.NewCoalitions(m.PredictBatch, check, nil, DefaultDiagnoseOptions().SHAP)
		for _, x := range jobs[:64] {
			ex.Explain(x)
		}
		t.Logf("%s: %d coalition rows, max |float32 - float64| %.3g", m.Name(), rows, worst)
		if worst > 1e-4 {
			t.Errorf("%s: float32 coalition prediction off by %.3g, want <= 1e-4", m.Name(), worst)
		}
	}
}

// TestFloat32AttributionAgreement compares the float32-coalition
// explanations with float64-only ones on 200 held-out jobs: the top-1
// bottleneck counter (most negative contribution) agrees on at least 99 %
// of jobs, Base and FX are the float64 values exactly, additivity holds to
// 1e-6, and a counter at the background still gets exactly zero. On the
// exact path — each job cut to its 10 largest counters — every
// contribution is within 1e-4.
func TestFloat32AttributionAgreement(t *testing.T) {
	ens, jobs := netsFixture(t)
	bottlenecks := func(phi []float64, k int) []int {
		idx := make([]int, len(phi))
		for j := range idx {
			idx[j] = j
		}
		slices.SortStableFunc(idx, func(a, b int) int { return cmpFloat(phi[a], phi[b]) })
		return idx[:k]
	}
	for _, m := range ens.Models {
		top1, top3, worstExact := 0, 0, 0.0
		for _, x := range jobs {
			e64, e32 := explainBoth(t, m, x)
			if e32.Base != e64.Base || e32.FX != e64.FX {
				t.Fatalf("%s: Base/FX %v/%v, float64 %v/%v", m.Name(), e32.Base, e32.FX, e64.Base, e64.FX)
			}
			if a := e32.AdditivityError(); a > 1e-6 {
				t.Fatalf("%s: additivity error %.3g", m.Name(), a)
			}
			for j, v := range x {
				if v == 0 && e32.Phi[j] != 0 {
					t.Fatalf("%s: zero counter %d got contribution %v", m.Name(), j, e32.Phi[j])
				}
			}
			b64, b32 := bottlenecks(e64.Phi, 3), bottlenecks(e32.Phi, 3)
			if b64[0] == b32[0] {
				top1++
			}
			if slices.Equal(b64, b32) {
				top3++
			}

			cut := make([]float64, len(x))
			for _, j := range bottlenecks(negAbs(x), 10) {
				cut[j] = x[j]
			}
			c64, c32 := explainBoth(t, m, cut)
			if !c32.Exact {
				t.Fatalf("%s: a 10-counter job took the sampled path", m.Name())
			}
			for j := range cut {
				worstExact = math.Max(worstExact, math.Abs(c32.Phi[j]-c64.Phi[j]))
			}
		}
		t.Logf("%s: top-1 bottleneck agrees on %d/%d jobs, top-3 (in order) on %d; exact path max |φ32 - φ64| %.3g",
			m.Name(), top1, len(jobs), top3, worstExact)
		if top1*100 < 99*len(jobs) {
			t.Errorf("%s: top-1 agreement %d/%d, want >= 99 %%", m.Name(), top1, len(jobs))
		}
		if worstExact > 1e-4 {
			t.Errorf("%s: exact-path contributions differ by %.3g, want <= 1e-4", m.Name(), worstExact)
		}
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// negAbs returns -|x|, so the smallest entries are x's largest magnitudes.
func negAbs(x []float64) []float64 {
	out := make([]float64, len(x))
	for j, v := range x {
		out[j] = -math.Abs(v)
	}
	return out
}

// TestDiagnosisPredictionsStayFloat64: whatever precision the coalition
// batches run in, every per-model Predicted and Base of a diagnosis is
// PredictBatch's float64 value on the job and on the zero background,
// bit for bit, under both Kernel SHAP and TreeSHAP.
func TestDiagnosisPredictionsStayFloat64(t *testing.T) {
	frame, ens, _ := fixture(t)
	for _, kind := range []Explainer{ExplainerAuto, ExplainerKernel} {
		opts := fastDiagOpts()
		opts.Explainer = kind
		for _, rec := range frame.Records[:4] {
			d, err := ens.Diagnose(rec, opts)
			if err != nil {
				t.Fatal(err)
			}
			x := features.TransformRecord(rec)
			pair := linalg.FromRows([][]float64{make([]float64, len(x)), x})
			for i, m := range ens.Models {
				want := m.PredictBatch(pair)
				md := d.PerModel[i]
				if math.Float64bits(md.Base) != math.Float64bits(want[0]) || math.Float64bits(md.Predicted) != math.Float64bits(want[1]) {
					t.Fatalf("%s %s: Base/Predicted %v/%v, PredictBatch %v/%v", kind, m.Name(), md.Base, md.Predicted, want[0], want[1])
				}
			}
		}
	}
}

// BenchmarkExplainNets is one Kernel SHAP explanation of a held-out job per
// network, with every row in float64 and with the float32 coalition path —
// the work behind shap.kernel_us.{mlp,tabnet} of the diagnosis.
func BenchmarkExplainNets(b *testing.B) {
	ens, jobs := netsFixture(b)
	cfg := DefaultDiagnoseOptions().SHAP
	for _, m := range ens.Models {
		f32, _ := Float32Predictor(m)
		for _, p := range []struct {
			name string
			ex   *shap.Explainer
		}{{"float64", shap.New(m.PredictBatch, nil, cfg)}, {"float32", shap.NewCoalitions(m.PredictBatch, f32, nil, cfg)}} {
			b.Run(m.Name()+"/"+p.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					p.ex.Explain(jobs[i%len(jobs)])
				}
			})
		}
	}
}
