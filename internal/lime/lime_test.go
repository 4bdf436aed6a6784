package lime

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/hpc-repro/aiio/internal/linalg"
	"github.com/hpc-repro/aiio/internal/shap"
)

// explain fits the surrogate around x without a deadline.
func explain(e *Explainer, x []float64) Explanation {
	out, err := e.ExplainContext(context.Background(), x)
	if err != nil {
		panic(err)
	}
	return out
}

func linearF(c0 float64, w []float64) shap.PredictFunc {
	return func(x *linalg.Matrix) []float64 {
		out := make([]float64, x.Rows)
		for i := range out {
			out[i] = c0 + linalg.Dot(w, x.Row(i))
		}
		return out
	}
}

func TestLIMERecoversLinearContributions(t *testing.T) {
	w := []float64{2, -3, 0, 1}
	x := []float64{1, 2, 5, 0} // feature 3 inactive
	cfg := DefaultConfig()
	cfg.NSamples = 2000
	ex := explain(New(linearF(4, w), nil, cfg), x)
	wants := []float64{2, -6, 0, 0}
	for j, want := range wants {
		if math.Abs(ex.Phi[j]-want) > 0.15*(1+math.Abs(want)) {
			t.Errorf("phi[%d] = %v, want ~%v", j, ex.Phi[j], want)
		}
	}
	if math.Abs(ex.Intercept-4) > 0.2 {
		t.Errorf("intercept = %v, want ~4", ex.Intercept)
	}
	if ex.FitRMSE > 1e-4 {
		t.Errorf("linear model local fit RMSE = %v, want ~0", ex.FitRMSE)
	}
}

func TestLIMEZeroFeaturesGetZero(t *testing.T) {
	f := func(m *linalg.Matrix) []float64 {
		out := make([]float64, m.Rows)
		for i := range out {
			r := m.Row(i)
			out[i] = r[0]*r[1] + r[2]
		}
		return out
	}
	x := []float64{2, 0, 3}
	ex := explain(New(f, nil, DefaultConfig()), x)
	if ex.Phi[1] != 0 {
		t.Errorf("inactive feature got phi %v", ex.Phi[1])
	}
}

func TestLIMEAllZeroInput(t *testing.T) {
	ex := explain(New(linearF(7, []float64{1, 2}), nil, DefaultConfig()), []float64{0, 0})
	if ex.FX != 7 || ex.Intercept != 7 {
		t.Errorf("FX/intercept = %v/%v", ex.FX, ex.Intercept)
	}
	for _, p := range ex.Phi {
		if p != 0 {
			t.Errorf("phi = %v", ex.Phi)
		}
	}
}

func TestLIMESignAgreement(t *testing.T) {
	// For a monotone nonlinear model, the sign of each contribution must
	// match the direction of the feature's effect.
	f := func(m *linalg.Matrix) []float64 {
		out := make([]float64, m.Rows)
		for i := range out {
			r := m.Row(i)
			out[i] = 5*r[0] - 4*math.Sqrt(r[1]+1) + 0.1*r[2]*r[2]
		}
		return out
	}
	x := []float64{2, 3, 4}
	ex := explain(New(f, nil, DefaultConfig()), x)
	if ex.Phi[0] <= 0 {
		t.Errorf("phi[0] = %v, want > 0", ex.Phi[0])
	}
	if ex.Phi[1] >= 0 {
		t.Errorf("phi[1] = %v, want < 0", ex.Phi[1])
	}
	if ex.Phi[2] <= 0 {
		t.Errorf("phi[2] = %v, want > 0", ex.Phi[2])
	}
}

func TestLIMEDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := make([]float64, 10)
	x := make([]float64, 10)
	for j := range w {
		w[j] = rng.NormFloat64()
		x[j] = rng.Float64() + 0.1
	}
	cfg := DefaultConfig()
	cfg.NSamples = 500
	a := explain(New(linearF(0, w), nil, cfg), x)
	b := explain(New(linearF(0, w), nil, cfg), x)
	for j := range a.Phi {
		if a.Phi[j] != b.Phi[j] {
			t.Fatal("same seed, different LIME values")
		}
	}
}

func TestLIMENonZeroBackground(t *testing.T) {
	bg := []float64{1, 1}
	x := []float64{1, 3}
	cfg := DefaultConfig()
	cfg.NSamples = 800
	ex := explain(New(linearF(0, []float64{10, 2}), bg, cfg), x)
	if ex.Phi[0] != 0 {
		t.Errorf("feature at background value got phi %v", ex.Phi[0])
	}
	// Switching feature 1 on moves f by 2*(3-1) = 4.
	if math.Abs(ex.Phi[1]-4) > 0.5 {
		t.Errorf("phi[1] = %v, want ~4", ex.Phi[1])
	}
}
