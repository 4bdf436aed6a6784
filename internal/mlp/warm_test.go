package mlp

import (
	"testing"

	"github.com/hpc-repro/aiio/internal/linalg"
)

// TrainWarm gates prev with CanWarmStart, as core does before a warm fit,
// then trains seeded from it, or cold when the gate refuses it.
func TrainWarm(cfg Config, x *linalg.Matrix, y []float64, evalX *linalg.Matrix, evalY []float64, prev *Model) (*Model, error) {
	if ok, _ := CanWarmStart(prev, cfg, x, y); !ok {
		prev = nil
	}
	return TrainSeeded(cfg, x, y, evalX, evalY, prev)
}

func TestWarmStartConvergesFasterThanCold(t *testing.T) {
	cfg := smallConfig()
	x, y := synth(1200, 5, 41)
	ex, ey := synth(300, 5, 42)
	prev, err := Train(cfg, x, y, ex, ey)
	if err != nil {
		t.Fatal(err)
	}
	coldRMSE := rmseOf(prev.PredictBatch(ex), ey)

	// Fresh draw from the same distribution: a warm start on a fraction of
	// the epoch budget must match the full cold fit (+ epsilon).
	x2, y2 := synth(1200, 5, 43)
	warmCfg := cfg
	warmCfg.Epochs = cfg.Epochs / 4
	warm, err := TrainWarm(warmCfg, x2, y2, ex, ey, prev)
	if err != nil {
		t.Fatal(err)
	}
	warmRMSE := rmseOf(warm.PredictBatch(ex), ey)
	if warmRMSE > coldRMSE*1.15+0.05 {
		t.Fatalf("warm start on 1/4 budget did not hold the line: warm RMSE %v vs cold %v", warmRMSE, coldRMSE)
	}
}

func TestWarmStartNeverWorseThanSeed(t *testing.T) {
	cfg := smallConfig()
	x, y := synth(800, 5, 44)
	ex, ey := synth(200, 5, 45)
	prev, err := Train(cfg, x, y, ex, ey)
	if err != nil {
		t.Fatal(err)
	}
	seedRMSE := rmseOf(prev.PredictBatch(ex), ey)

	// Even a hostile warm run (huge LR, tiny budget) must restore the seed
	// weights via the pre-epoch early-stopping baseline.
	warmCfg := cfg
	warmCfg.Epochs = 2
	warmCfg.LearningRate = 0.5
	warmCfg.EarlyStoppingRounds = 1
	x2, y2 := synth(800, 5, 46)
	warm, err := TrainWarm(warmCfg, x2, y2, ex, ey, prev)
	if err != nil {
		t.Fatal(err)
	}
	warmRMSE := rmseOf(warm.PredictBatch(ex), ey)
	if warmRMSE > seedRMSE*1.01+1e-9 {
		t.Fatalf("diverging warm run shipped worse weights than its seed: %v vs %v (BestEpoch=%d)",
			warmRMSE, seedRMSE, warm.BestEpoch)
	}
}

func TestCanWarmStartRejections(t *testing.T) {
	cfg := smallConfig()
	x, y := synth(400, 5, 47)
	prev, err := Train(cfg, x, y, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	if ok, _ := CanWarmStart(nil, cfg, x, y); ok {
		t.Fatal("nil prev accepted")
	}
	if ok, reason := CanWarmStart(prev, cfg, x, y); !ok {
		t.Fatalf("same-schema same-data warm start rejected: %s", reason)
	}

	archCfg := cfg
	archCfg.Hidden = []int{8, 4}
	if ok, reason := CanWarmStart(prev, archCfg, x, y); ok || reason == "" {
		t.Fatalf("architecture change accepted (%q)", reason)
	}

	wide := linalg.NewMatrix(x.Rows, x.Cols+2)
	if ok, reason := CanWarmStart(prev, cfg, wide, y); ok || reason == "" {
		t.Fatalf("schema change accepted (%q)", reason)
	}

	// Shift every feature far beyond the drift tolerance.
	shifted := x.Clone()
	for i := range shifted.Data {
		shifted.Data[i] += 1e6
	}
	if ok, reason := CanWarmStart(prev, cfg, shifted, y); ok || reason == "" {
		t.Fatalf("drifted inputs accepted (%q)", reason)
	}

	// TrainWarm on drifted data must fall back to a cold start and still
	// produce a valid model (fresh standardizer fitted to the new data).
	coldCfg := cfg
	coldCfg.Epochs = 2
	m, err := TrainWarm(coldCfg, shifted, y, nil, nil, prev)
	if err != nil {
		t.Fatal(err)
	}
	if m.Mean[0] == prev.Mean[0] {
		t.Fatal("fallback cold start reused the stale standardizer")
	}
}
