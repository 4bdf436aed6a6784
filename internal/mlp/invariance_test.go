package mlp

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"github.com/hpc-repro/aiio/internal/linalg"
)

// warmRestored trains a default-architecture network (45 inputs, every
// layer width off the kernel's 16-column tile) and warm-starts it on fresh
// data until early stopping restores an epoch that is neither the seed nor
// the last one run, so the weights the model ends with were overwritten by
// the best-epoch restore after the final evaluation. It returns that model
// and its gob round-tripped copy, which has never predicted anything.
func warmRestored(t *testing.T) (m, decoded *Model) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Epochs = 6
	x, y := synth(500, 45, 71)
	ex, ey := synth(150, 45, 72)
	prev, err := Train(cfg, x, y, ex, ey)
	if err != nil {
		t.Fatal(err)
	}
	warmCfg := cfg
	warmCfg.Epochs = 40
	warmCfg.LearningRate = 3e-3
	warmCfg.EarlyStoppingRounds = 3
	x2, y2 := synth(500, 45, 73)
	m, err = TrainWarm(warmCfg, x2, y2, ex, ey, prev)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("warm fit restored epoch %d of %d", m.BestEpoch, len(m.EvalLoss))
	if m.BestEpoch < 0 || m.BestEpoch >= len(m.EvalLoss)-1 {
		t.Fatalf("fixture: BestEpoch %d of %d epochs; want a restored epoch between the seed and the last",
			m.BestEpoch, len(m.EvalLoss))
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if decoded, err = Load(&buf); err != nil {
		t.Fatal(err)
	}
	return m, decoded
}

// batchSizes spans the unsharded and sharded PredictBatch paths
// (predictParallelMinRows is 64) and every tail of the kernel's four-row
// blocks; 2179 is the Kernel SHAP auto budget's coalition count for m = 45.
var batchSizes = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 2179}

// TestPredictBatchRowsMatchPredict: every row of PredictBatch(X) equals
// Predict(X[i]) bitwise, for every batch size, on the trained model and on
// its decoded copy alike.
func TestPredictBatchRowsMatchPredict(t *testing.T) {
	m, decoded := warmRestored(t)
	x, _ := synth(2179, 45, 74)
	want := make([]float64, x.Rows)
	for i := range want {
		want[i] = m.Predict(x.Row(i))
	}
	for _, model := range []struct {
		name string
		m    *Model
	}{{"trained", m}, {"decoded", decoded}} {
		for _, n := range batchSizes {
			sub := &linalg.Matrix{Rows: n, Cols: x.Cols, Data: x.Data[:n*x.Cols]}
			for i, got := range model.m.PredictBatch(sub) {
				if math.Float64bits(got) != math.Float64bits(want[i]) {
					t.Fatalf("%s model, batch of %d: row %d = %v, Predict %v", model.name, n, i, got, want[i])
				}
			}
		}
	}
}

// TestNoStalePackAfterWarmRestore: a model that came out of TrainWarm and
// its best-epoch restore predicts bitwise like its gob round-tripped copy,
// so no packed weights built during training survive into the returned
// model.
func TestNoStalePackAfterWarmRestore(t *testing.T) {
	m, decoded := warmRestored(t)
	x, _ := synth(300, 45, 75)
	got, want := m.PredictBatch(x), decoded.PredictBatch(x)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("row %d: trained model %v, decoded copy %v", i, got[i], want[i])
		}
	}
	for i := 0; i < 8; i++ {
		if a, b := m.Predict(x.Row(i)), decoded.Predict(x.Row(i)); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("Predict row %d: trained model %v, decoded copy %v", i, a, b)
		}
	}
}

// TestConcurrentFirstUse: goroutines racing to a decoded model's first
// predictions all build on, and read, one pack, and get the same bits as a
// sequential pass. Run it under -race.
func TestConcurrentFirstUse(t *testing.T) {
	m, _ := warmRestored(t)
	x, _ := synth(70, 45, 76)
	want := m.PredictBatch(x)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	fresh, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w%2 == 0 {
				for i, got := range fresh.PredictBatch(x) {
					if math.Float64bits(got) != math.Float64bits(want[i]) {
						t.Errorf("worker %d: PredictBatch row %d = %v, want %v", w, i, got, want[i])
						return
					}
				}
				return
			}
			for i := 0; i < x.Rows; i++ {
				if got := fresh.Predict(x.Row(i)); math.Float64bits(got) != math.Float64bits(want[i]) {
					t.Errorf("worker %d: Predict row %d = %v, want %v", w, i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
