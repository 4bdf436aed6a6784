package tabnet

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/hpc-repro/aiio/internal/linalg"
)

func synth(n, d int, seed int64) (*linalg.Matrix, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x := linalg.NewMatrix(n, d)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for j := range row {
			row[j] = rng.Float64() * 4
		}
		y[i] = 3*row[0] - 2*row[1%d] + rng.NormFloat64()*0.05
	}
	return x, y
}

// Train is a cold TrainSeeded.
func Train(cfg Config, x *linalg.Matrix, y []float64, evalX *linalg.Matrix, evalY []float64) (*Model, error) {
	return TrainSeeded(cfg, x, y, evalX, evalY, nil)
}

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Epochs = 80
	cfg.EarlyStoppingRounds = 20
	return cfg
}

func rmseOf(pred, y []float64) float64 {
	s := 0.0
	for i := range y {
		d := pred[i] - y[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(y)))
}

func TestSparsemaxProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 || len(raw) > 32 {
			return true
		}
		v := make([]float64, len(raw))
		for i, r := range raw {
			if math.IsNaN(r) || math.IsInf(r, 0) {
				return true
			}
			v[i] = math.Mod(r, 100)
		}
		out, support := sparsemax(v)
		sum := 0.0
		for i, o := range out {
			if o < 0 {
				return false
			}
			if (o > 0) != support[i] {
				return false
			}
			sum += o
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSparsemaxSelectsMax(t *testing.T) {
	out, _ := sparsemax([]float64{10, 0, -5})
	if out[0] != 1 || out[1] != 0 || out[2] != 0 {
		t.Errorf("sparsemax([10,0,-5]) = %v, want one-hot", out)
	}
	out, _ = sparsemax([]float64{1, 1})
	if math.Abs(out[0]-0.5) > 1e-9 || math.Abs(out[1]-0.5) > 1e-9 {
		t.Errorf("sparsemax of ties = %v", out)
	}
}

func TestSparsemaxBackwardZeroOffSupport(t *testing.T) {
	_, support := sparsemax([]float64{10, 0, -5})
	g := sparsemaxBackward([]float64{1, 2, 3}, support)
	if g[1] != 0 || g[2] != 0 {
		t.Errorf("gradient leaked off support: %v", g)
	}
	// On-support gradients are centered: single support element -> zero.
	if g[0] != 0 {
		t.Errorf("singleton support gradient = %v, want 0", g[0])
	}
}

func TestGLUGradientNumerically(t *testing.T) {
	z := []float64{0.5, -1, 2, 0.3}
	gout := []float64{1, 2}
	gz := gluBackward(z, gout)
	eps := 1e-6
	for i := range z {
		zp := append([]float64(nil), z...)
		zm := append([]float64(nil), z...)
		zp[i] += eps
		zm[i] -= eps
		op, om := glu(zp), glu(zm)
		num := 0.0
		for k := range gout {
			num += gout[k] * (op[k] - om[k]) / (2 * eps)
		}
		if math.Abs(num-gz[i]) > 1e-5 {
			t.Errorf("GLU grad[%d] = %v, numeric %v", i, gz[i], num)
		}
	}
}

func TestTabNetLearnsRegression(t *testing.T) {
	x, y := synth(1000, 6, 1)
	ex, ey := synth(300, 6, 2)
	m, err := Train(smallConfig(), x, y, ex, ey)
	if err != nil {
		t.Fatal(err)
	}
	mean := linalg.Mean(ey)
	baseline := 0.0
	for _, v := range ey {
		baseline += (v - mean) * (v - mean)
	}
	baseline = math.Sqrt(baseline / float64(len(ey)))
	e := rmseOf(m.PredictBatch(ex), ey)
	if e > baseline*0.7 {
		t.Errorf("TabNet eval RMSE %.4f not < 0.7x baseline %.4f", e, baseline)
	}
}

func TestTabNetDeterministic(t *testing.T) {
	x, y := synth(300, 5, 3)
	cfg := smallConfig()
	cfg.Epochs = 5
	a, _ := Train(cfg, x, y, nil, nil)
	b, _ := Train(cfg, x, y, nil, nil)
	pa, pb := a.PredictBatch(x), b.PredictBatch(x)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("same seed, different predictions")
		}
	}
}

func TestTabNetPredictMatchesBatch(t *testing.T) {
	x, y := synth(200, 4, 5)
	cfg := smallConfig()
	cfg.Epochs = 3
	m, _ := Train(cfg, x, y, nil, nil)
	batch := m.PredictBatch(x)
	for i := 0; i < x.Rows; i += 31 {
		if math.Abs(m.Predict(x.Row(i))-batch[i]) > 1e-9 {
			t.Fatalf("row %d single/batch mismatch", i)
		}
	}
}

func TestTabNetSaveLoad(t *testing.T) {
	x, y := synth(200, 4, 6)
	cfg := smallConfig()
	cfg.Epochs = 3
	m, _ := Train(cfg, x, y, nil, nil)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := m.PredictBatch(x), got.PredictBatch(x)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("loaded model predicts differently")
		}
	}
}

func TestTabNetEmptyErrors(t *testing.T) {
	if _, err := Train(DefaultConfig(), linalg.NewMatrix(0, 4), nil, nil, nil); err == nil {
		t.Error("Train accepted empty dataset")
	}
}

func TestTabNetEarlyStopping(t *testing.T) {
	x, y := synth(500, 5, 7)
	ex, ey := synth(200, 5, 8)
	cfg := smallConfig()
	cfg.Epochs = 400
	cfg.EarlyStoppingRounds = 5
	m, err := Train(cfg, x, y, ex, ey)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.EvalLoss) == 400 {
		t.Error("early stopping never triggered")
	}
}
