package pdp

import (
	"math"
	"math/rand"
	"testing"

	"github.com/hpc-repro/aiio/internal/linalg"
)

// linearF is f(x) = 3x0 - 2x1 (+0·x2).
func linearF(x *linalg.Matrix) []float64 {
	out := make([]float64, x.Rows)
	for i := range out {
		r := x.Row(i)
		out[i] = 3*r[0] - 2*r[1]
	}
	return out
}

func randBG(n, d int, sparsity float64, seed int64) *linalg.Matrix {
	rng := rand.New(rand.NewSource(seed))
	bg := linalg.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		row := bg.Row(i)
		for j := range row {
			if rng.Float64() < sparsity {
				row[j] = 0
			} else {
				row[j] = rng.Float64() * 10
			}
		}
	}
	return bg
}

func TestPDPRecoversLinearSlopes(t *testing.T) {
	bg := randBG(400, 3, 0.2, 1)
	e, err := New(linearF, bg, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// For an additive model, PD_j is linear with the true slope; the
	// centered attribution at x_j = mean+1 should be ~slope.
	x := []float64{5, 5, 5}
	phi := e.Explain(x)
	// Signs must match the true effects.
	if phi[0] <= 0 {
		t.Errorf("phi[0] = %v, want > 0", phi[0])
	}
	if phi[1] >= 0 {
		t.Errorf("phi[1] = %v, want < 0", phi[1])
	}
	if math.Abs(phi[2]) > 1e-9 {
		t.Errorf("inactive feature phi = %v", phi[2])
	}
}

func TestPDPIsNotRobust(t *testing.T) {
	// The documented flaw: zero-valued features receive non-zero
	// attribution because PD_j(0) != mean(PD_j).
	bg := randBG(400, 2, 0.2, 2)
	e, err := New(linearF, bg, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	phi := e.Explain([]float64{0, 3})
	if phi[0] == 0 {
		t.Error("expected PDP to assign non-zero attribution to the zero feature (the non-robustness AIIO avoids)")
	}
	if phi[0] >= 0 {
		t.Errorf("zero x0 under positive slope should look 'below average': %v", phi[0])
	}
}

func TestPDPInterpolation(t *testing.T) {
	bg := randBG(300, 2, 0, 3)
	e, err := New(linearF, bg, Config{GridPoints: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Monotone model -> monotone interpolated PD along feature 0.
	prev := math.Inf(-1)
	for v := 0.0; v <= 10; v += 0.5 {
		cur := e.pdAt(0, v)
		if cur < prev-1e-9 {
			t.Fatalf("PD not monotone at %v: %v < %v", v, cur, prev)
		}
		prev = cur
	}
	// Out-of-range values clamp.
	if e.pdAt(0, -5) != e.pd[0][0] {
		t.Error("below-range value should clamp to first grid point")
	}
	if e.pdAt(0, 99) != e.pd[0][len(e.pd[0])-1] {
		t.Error("above-range value should clamp to last grid point")
	}
}

func TestPDPRequiresBackground(t *testing.T) {
	if _, err := New(linearF, nil, DefaultConfig()); err == nil {
		t.Error("nil background accepted")
	}
	if _, err := New(linearF, linalg.NewMatrix(0, 3), DefaultConfig()); err == nil {
		t.Error("empty background accepted")
	}
}

func TestLinearSurrogate(t *testing.T) {
	bg := randBG(500, 3, 0.2, 4)
	y := linearF(bg)
	l, err := FitLinear(bg, y, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l.Beta[0]-3) > 0.05 || math.Abs(l.Beta[1]+2) > 0.05 {
		t.Errorf("beta = %v, want [3 -2 0]", l.Beta)
	}
	x := []float64{2, 0, 5}
	if math.Abs(l.Predict(x)-linearF(linalg.FromRows([][]float64{x}))[0]) > 0.2 {
		t.Error("surrogate prediction far off on a linear model")
	}
}

func TestLinearSurrogateUnderfitsNonlinear(t *testing.T) {
	// The paper's "atypical results" claim: a global linear model cannot
	// represent thresholds; its residual stays large.
	rng := rand.New(rand.NewSource(5))
	bg := randBG(600, 2, 0, 6)
	y := make([]float64, bg.Rows)
	for i := range y {
		r := bg.Row(i)
		if r[0] > 5 {
			y[i] = 10
		}
		y[i] += rng.NormFloat64() * 0.01
	}
	l, err := FitLinear(bg, y, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	sse := 0.0
	for i := 0; i < bg.Rows; i++ {
		d := l.Predict(bg.Row(i)) - y[i]
		sse += d * d
	}
	rmse := math.Sqrt(sse / float64(bg.Rows))
	if rmse < 1 {
		t.Errorf("linear surrogate RMSE %v suspiciously low for a step function", rmse)
	}
}
