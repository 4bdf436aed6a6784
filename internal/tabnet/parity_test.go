package tabnet

import (
	"math"
	"math/rand"
	"testing"

	"github.com/hpc-repro/aiio/internal/linalg"
)

// TestInferenceParityWithTrainingPath pins the flattened inference path
// (transposed-shared axpy walk, vectorized sparsemax scan, fused GLU and
// packed dense layers) against forwardSample, the allocation-per-call
// training forward that serves as the reference implementation.
func TestInferenceParityWithTrainingPath(t *testing.T) {
	x, y := synth(300, 8, 17)
	cfg := smallConfig()
	cfg.Epochs = 6
	m, err := Train(cfg, x, y, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	xs := m.scale.Into(new(linalg.Matrix), x, m.Mean, m.Std)
	want := make([]float64, x.Rows)
	for i := range want {
		want[i] = m.forwardSample(xs.Row(i), nil)*m.YStd + m.YMean
	}

	for _, rows := range []int{x.Rows, 7, 1} { // full blocks, a 3-row tail, single
		sub := &linalg.Matrix{Rows: rows, Cols: x.Cols, Data: x.Data[:rows*x.Cols]}
		got := m.PredictBatch(sub)
		for i := range got {
			d := math.Abs(got[i]-want[i]) / math.Max(1, math.Max(math.Abs(got[i]), math.Abs(want[i])))
			if d > 1e-9 {
				t.Fatalf("rows=%d: PredictBatch[%d] = %v, reference %v (rel diff %g)", rows, i, got[i], want[i], d)
			}
		}
	}
	for i := 0; i < 8; i++ {
		p := m.Predict(x.Row(i))
		d := math.Abs(p-want[i]) / math.Max(1, math.Abs(want[i]))
		if d > 1e-9 {
			t.Fatalf("Predict row %d = %v, reference %v (rel diff %g)", i, p, want[i], d)
		}
	}
}

// TestSparsemaxTauScaledMatchesReference checks the vectorized fused
// scale+max+mask scan against the O(n) reference projection for random
// logit/prior pairs, including ties and fully-uniform inputs.
func TestSparsemaxTauScaledMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(60)
		v := make([]float64, n)
		prior := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64() * 2
			prior[i] = rng.Float64()
		}
		if trial%10 == 0 {
			for i := range v {
				v[i] = 0.5 // uniform logits: full support
			}
		}
		scaled := make([]float64, n)
		for i := range scaled {
			scaled[i] = v[i] * prior[i]
		}
		refOut, _ := sparsemax(append([]float64(nil), scaled...))

		work := append([]float64(nil), v...)
		tau, _, idx := sparsemaxTauScaled(work, prior, nil, nil)
		got := make([]float64, n)
		for _, ii := range idx {
			if w := work[ii] - tau; w > 0 {
				got[ii] = w
			}
		}
		sum := 0.0
		for i := range got {
			d := math.Abs(got[i] - refOut[i])
			if d > 1e-12 {
				t.Fatalf("trial %d n=%d: out[%d] = %v, reference %v", trial, n, i, got[i], refOut[i])
			}
			sum += got[i]
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("trial %d: projection sums to %v, want 1", trial, sum)
		}
	}
}

// TestConstantColumnsRecorded mirrors the mlp guard: zero-variance training
// columns are recorded, clamped to unit scale, and never produce NaN.
func TestConstantColumnsRecorded(t *testing.T) {
	x, y := synth(200, 6, 9)
	for i := 0; i < x.Rows; i++ {
		x.Set(i, 0, -2.5)
		x.Set(i, 4, 0)
	}
	cfg := smallConfig()
	cfg.Epochs = 3
	m, err := Train(cfg, x, y, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.ConstantCols) != 2 || m.ConstantCols[0] != 0 || m.ConstantCols[1] != 4 {
		t.Fatalf("ConstantCols = %v, want [0 4]", m.ConstantCols)
	}
	for _, j := range m.ConstantCols {
		if m.Std[j] != 1 {
			t.Errorf("Std[%d] = %v, want clamp to 1", j, m.Std[j])
		}
	}
	probe := append([]float64(nil), x.Row(0)...)
	probe[0] = 1e9
	probe[4] = -1e9
	if p := m.Predict(probe); math.IsNaN(p) || math.IsInf(p, 0) {
		t.Errorf("perturbed constant columns produced non-finite prediction %v", p)
	}
}
