package mlp

import (
	"math"
	"testing"

	"github.com/hpc-repro/aiio/internal/linalg"
)

// referencePredict replays the pre-flattening inference path — per-layer
// denseForward, eval-mode batch norm via bnForwardEval, scalar ReLU —
// against which the fused forward hot path must agree.
func referencePredict(m *Model, x *linalg.Matrix) []float64 {
	xs := linalg.NewMatrix(x.Rows, x.Cols)
	for i := 0; i < x.Rows; i++ {
		row, orow := x.Row(i), xs.Row(i)
		for j, v := range row {
			s := m.Std[j]
			if !(s > 0) || math.IsInf(s, 1) {
				s = 1
			}
			orow[j] = (v - m.Mean[j]) / s
		}
	}
	h := xs
	nHidden := len(m.Config.Hidden)
	for l := 0; l < nHidden; l++ {
		h = denseForward(&m.Dense[l], h)
		if l > 0 {
			h = bnForwardEval(&m.BN[l-1], h)
		}
		for i := range h.Data {
			if h.Data[i] < 0 {
				h.Data[i] = 0
			}
		}
	}
	out := denseForward(&m.Dense[nHidden], h)
	pred := make([]float64, x.Rows)
	for i := range pred {
		pred[i] = out.At(i, 0)*m.YStd + m.YMean
	}
	return pred
}

func maxRelDiff(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		d := math.Abs(a[i]-b[i]) / math.Max(1, math.Max(math.Abs(a[i]), math.Abs(b[i])))
		if d > worst {
			worst = d
		}
	}
	return worst
}

// TestInferenceParityWithReference pins the flattening refactor: the
// buffered/vectorized batch path, the pooled single-row Predict, and the
// layer-by-layer reference implementation must agree within 1e-9 relative.
func TestInferenceParityWithReference(t *testing.T) {
	x, y := synth(400, 9, 21)
	cfg := smallConfig()
	cfg.Epochs = 8
	m, err := Train(cfg, x, y, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	want := referencePredict(m, x)
	got := m.PredictBatch(x)
	if d := maxRelDiff(got, want); d > 1e-9 {
		t.Errorf("PredictBatch deviates from reference path by %g (> 1e-9)", d)
	}
	// A row count that is not a multiple of four exercises the kernel's
	// row-tail block.
	sub := &linalg.Matrix{Rows: 7, Cols: x.Cols, Data: x.Data[:7*x.Cols]}
	got7 := m.PredictBatch(sub)
	if d := maxRelDiff(got7, want[:7]); d > 1e-9 {
		t.Errorf("odd-size PredictBatch deviates by %g", d)
	}
	for i := 0; i < 16; i++ {
		p := m.Predict(x.Row(i))
		if d := maxRelDiff([]float64{p}, []float64{want[i]}); d > 1e-9 {
			t.Errorf("Predict row %d deviates by %g", i, d)
		}
	}
}

// TestConstantColumnsRecorded pins the zero-variance guard: constant
// training columns must be recorded, their Std clamped to 1, and inference
// on perturbed values of those columns must stay finite.
func TestConstantColumnsRecorded(t *testing.T) {
	x, y := synth(200, 5, 7)
	for i := 0; i < x.Rows; i++ {
		x.Set(i, 1, 4.25) // constant non-zero
		x.Set(i, 3, 0)    // constant zero (sparsity)
	}
	cfg := smallConfig()
	cfg.Epochs = 4
	m, err := Train(cfg, x, y, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.ConstantCols) != 2 || m.ConstantCols[0] != 1 || m.ConstantCols[1] != 3 {
		t.Fatalf("ConstantCols = %v, want [1 3]", m.ConstantCols)
	}
	for _, j := range m.ConstantCols {
		if m.Std[j] != 1 {
			t.Errorf("Std[%d] = %v, want clamp to 1", j, m.Std[j])
		}
	}
	probe := append([]float64(nil), x.Row(0)...)
	probe[1] = 1e9
	probe[3] = -1e9
	if p := m.Predict(probe); math.IsNaN(p) || math.IsInf(p, 0) {
		t.Errorf("perturbed constant columns produced non-finite prediction %v", p)
	}
}

// bnForwardEval normalizes with running statistics.
func bnForwardEval(bn *BNState, x *linalg.Matrix) *linalg.Matrix {
	out := linalg.NewMatrix(x.Rows, bn.Dim)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		orow := out.Row(i)
		for j, v := range row {
			xhat := (v - bn.Mean[j]) / math.Sqrt(bn.Var[j]+1e-5)
			orow[j] = bn.Gamma[j]*xhat + bn.Beta[j]
		}
	}
	return out
}
