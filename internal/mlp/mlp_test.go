package mlp

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

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
		y[i] = 2*row[0] - row[1%d] + math.Sin(row[2%d]) + rng.NormFloat64()*0.05
	}
	return x, y
}

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Hidden = []int{32, 16, 8}
	cfg.Epochs = 60
	cfg.EarlyStoppingRounds = 15
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

func TestMLPLearnsRegression(t *testing.T) {
	x, y := synth(1200, 5, 1)
	ex, ey := synth(300, 5, 2)
	m, err := Train(smallConfig(), x, y, ex, ey)
	if err != nil {
		t.Fatal(err)
	}
	baseline := 0.0
	mean := linalg.Mean(ey)
	for _, v := range ey {
		baseline += (v - mean) * (v - mean)
	}
	baseline = math.Sqrt(baseline / float64(len(ey)))
	e := rmseOf(m.PredictBatch(ex), ey)
	if e > baseline*0.5 {
		t.Errorf("MLP eval RMSE %.4f not < half of baseline %.4f", e, baseline)
	}
	if len(m.EvalLoss) == 0 {
		t.Error("eval loss curve not recorded")
	}
}

func TestMLPDefaultArchitectureIsTable5(t *testing.T) {
	want := []int{90, 89, 69, 49, 29, 9}
	got := DefaultConfig().Hidden
	if len(got) != len(want) {
		t.Fatalf("Hidden = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Hidden = %v, want %v (Table 5)", got, want)
		}
	}
}

func TestMLPPredictSingleMatchesBatch(t *testing.T) {
	x, y := synth(400, 4, 3)
	cfg := smallConfig()
	cfg.Epochs = 10
	m, err := Train(cfg, x, y, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	batch := m.PredictBatch(x)
	for i := 0; i < x.Rows; i += 53 {
		single := m.Predict(x.Row(i))
		if math.Abs(single-batch[i]) > 1e-9 {
			t.Fatalf("row %d: single %.9f vs batch %.9f", i, single, batch[i])
		}
	}
}

func TestMLPDeterministicForSeed(t *testing.T) {
	x, y := synth(300, 4, 4)
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

func TestMLPEarlyStoppingRestoresBest(t *testing.T) {
	x, y := synth(600, 5, 5)
	ex, ey := synth(200, 5, 6)
	cfg := smallConfig()
	cfg.Epochs = 500
	cfg.EarlyStoppingRounds = 5
	m, err := Train(cfg, x, y, ex, ey)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.EvalLoss) == 500 {
		t.Error("early stopping never triggered")
	}
	// Restored weights must reproduce (approximately) the best recorded
	// eval RMSE, not the last one.
	best := math.Inf(1)
	for _, e := range m.EvalLoss {
		if e < best {
			best = e
		}
	}
	got := rmseOf(m.PredictBatch(ex), ey)
	if math.Abs(got-best) > 1e-6 {
		t.Errorf("restored eval RMSE %.6f != best recorded %.6f", got, best)
	}
}

func TestMLPHandlesConstantFeatures(t *testing.T) {
	x, y := synth(200, 3, 7)
	for i := 0; i < x.Rows; i++ {
		x.Set(i, 2, 0) // constant zero column (sparsity)
	}
	cfg := smallConfig()
	cfg.Epochs = 5
	m, err := Train(cfg, x, y, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := m.Predict(x.Row(0))
	if math.IsNaN(p) || math.IsInf(p, 0) {
		t.Fatalf("prediction is not finite: %v", p)
	}
}

func TestMLPEmptyTrainingSetErrors(t *testing.T) {
	if _, err := Train(DefaultConfig(), linalg.NewMatrix(0, 3), nil, nil, nil); err == nil {
		t.Error("Train accepted an empty dataset")
	}
}

func TestMLPSaveLoadRoundTrip(t *testing.T) {
	x, y := synth(300, 4, 8)
	cfg := smallConfig()
	cfg.Epochs = 5
	m, err := Train(cfg, x, y, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
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

func BenchmarkMLPTrainEpoch(b *testing.B) {
	x, y := synth(1000, 10, 1)
	cfg := smallConfig()
	cfg.Epochs = 1
	cfg.EarlyStoppingRounds = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(cfg, x, y, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}
