package gbdt

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/hpc-repro/aiio/internal/linalg"
)

// TrainWarm checks prev with CheckWarmStart and continues boosting from it
// through TrainSeeded, cold-starting when the check rejects it.
func TrainWarm(cfg Config, x *linalg.Matrix, y []float64, evalX *linalg.Matrix, evalY []float64, prev *Model) (*Model, error) {
	seed, _ := CheckWarmStart(prev, cfg, x, y)
	return TrainSeeded(cfg, x, y, evalX, evalY, seed)
}

// TestSelectTopAbsGradMatchesSort pins the quickselect against a full sort
// under the same total order (|grad| desc, index asc), including heavy
// gradient ties where only the index tiebreak makes the top-k set unique.
func TestSelectTopAbsGradMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(400)
		grad := make([]float64, n)
		for i := range grad {
			// Quantized values force many exact |grad| ties.
			grad[i] = float64(rng.Intn(9)-4) / 2
		}
		k := 1 + rng.Intn(n-1)

		want := make([]int32, n)
		for i := range want {
			want[i] = int32(i)
		}
		sort.Slice(want, func(i, j int) bool { return gossBefore(grad, want[i], want[j]) })

		got := make([]int32, n)
		for i := range got {
			got[i] = int32(i)
		}
		selectTopAbsGrad(got, grad, k)

		wantSet := map[int32]bool{}
		for _, i := range want[:k] {
			wantSet[i] = true
		}
		for _, i := range got[:k] {
			if !wantSet[i] {
				t.Fatalf("trial %d n=%d k=%d: quickselect kept row %d (|g|=%v), not in the sorted top-k",
					trial, n, k, i, math.Abs(grad[i]))
			}
			delete(wantSet, i)
		}
		if len(wantSet) != 0 {
			t.Fatalf("trial %d: quickselect missed rows %v", trial, wantSet)
		}
	}
}

// TestGOSSSamplingDeterministic runs the full GOSS row sampling twice with
// identical gradients (with ties) and seeds; the selected index sets must be
// identical — the index tiebreak plus the ascending-index sweep make the
// procedure a pure function of (grad, seed).
func TestGOSSSamplingDeterministic(t *testing.T) {
	cfg := DefaultConfig(LeafWise)
	sample := func() []int32 {
		n := 1000
		tr := &trainer{
			cfg:  cfg,
			y:    make([]float64, n),
			grad: make([]float64, n),
			hess: make([]float64, n),
			rng:  rand.New(rand.NewSource(99)),
		}
		rng := rand.New(rand.NewSource(5))
		for i := range tr.grad {
			tr.grad[i] = float64(rng.Intn(7)-3) / 4 // tie-heavy
			tr.hess[i] = 1
		}
		tr.sampleRows()
		return append([]int32(nil), tr.idx...)
	}
	a, b := sample(), sample()
	if len(a) != len(b) {
		t.Fatalf("sample sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("idx[%d] differs: %d vs %d", i, a[i], b[i])
		}
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] }) {
		t.Fatal("sampled rows are not in ascending index order")
	}
}

func TestWarmStartContinuesBoosting(t *testing.T) {
	for _, v := range []Variant{LevelWise, LeafWise, Oblivious} {
		t.Run(v.String(), func(t *testing.T) {
			cfg := DefaultConfig(v)
			cfg.Rounds = 60
			x, y := synth(1500, 6, 71)
			xt, yt, xe, ye := trainTestSplit(x, y, 0.8, 72)
			prev, err := Train(cfg, xt, yt, xe, ye)
			if err != nil {
				t.Fatal(err)
			}
			coldRMSE := rmse(prev.PredictBatch(xe), ye)

			// Fresh window from the same distribution: continued boosting on a
			// quarter of the budget must hold the cold-fit quality line.
			x2, y2 := synth(1500, 6, 73)
			warmCfg := cfg
			warmCfg.Rounds = cfg.Rounds / 4
			warm, err := TrainWarm(warmCfg, x2, y2, xe, ye, prev)
			if err != nil {
				t.Fatal(err)
			}
			if len(warm.Trees) < len(prev.Trees) {
				t.Fatalf("warm model dropped prior trees: %d vs %d", len(warm.Trees), len(prev.Trees))
			}
			for i := range prev.Trees {
				if warm.Trees[i] != prev.Trees[i] {
					t.Fatalf("warm tree %d is not the prior tree (prefix must be shared)", i)
				}
			}
			warmRMSE := rmse(warm.PredictBatch(xe), ye)
			if warmRMSE > coldRMSE*1.15+0.05 {
				t.Fatalf("warm start on 1/4 budget did not hold the line: warm RMSE %v vs cold %v", warmRMSE, coldRMSE)
			}
			if err := warm.Validate(); err != nil {
				t.Fatalf("warm model failed validation: %v", err)
			}
		})
	}
}

func TestWarmStartNeverWorseThanSeed(t *testing.T) {
	cfg := DefaultConfig(LevelWise)
	cfg.Rounds = 40
	x, y := synth(1000, 6, 74)
	xt, yt, xe, ye := trainTestSplit(x, y, 0.8, 75)
	prev, err := Train(cfg, xt, yt, xe, ye)
	if err != nil {
		t.Fatal(err)
	}
	seedRMSE := rmse(prev.PredictBatch(xe), ye)

	// A hostile continuation (few rounds, huge learning rate) must be
	// trimmed back to the seed trees by the eval baseline.
	warmCfg := cfg
	warmCfg.Rounds = 3
	warmCfg.LearningRate = 5
	warmCfg.EarlyStoppingRounds = 1
	x2, y2 := synth(1000, 6, 76)
	warm, err := TrainWarm(warmCfg, x2, y2, xe, ye, prev)
	if err != nil {
		t.Fatal(err)
	}
	warmRMSE := rmse(warm.PredictBatch(xe), ye)
	if warmRMSE > seedRMSE*1.01+1e-9 {
		t.Fatalf("diverging warm run shipped worse trees than its seed: %v vs %v (%d trees, seed %d)",
			warmRMSE, seedRMSE, len(warm.Trees), len(prev.Trees))
	}
}

func TestCanWarmStartRejections(t *testing.T) {
	cfg := DefaultConfig(LevelWise)
	cfg.Rounds = 20
	x, y := synth(600, 6, 77)
	prev, err := Train(cfg, x, y, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	if seed, _ := CheckWarmStart(nil, cfg, x, y); seed != nil {
		t.Fatal("nil prev accepted")
	}
	if seed, reason := CheckWarmStart(prev, cfg, x, y); seed == nil {
		t.Fatalf("same-schema same-data warm start rejected: %s", reason)
	}

	varCfg := DefaultConfig(LeafWise)
	if seed, reason := CheckWarmStart(prev, varCfg, x, y); seed != nil || reason == "" {
		t.Fatalf("variant change accepted (%q)", reason)
	}

	wide := linalg.NewMatrix(x.Rows, x.Cols+2)
	if seed, reason := CheckWarmStart(prev, cfg, wide, y); seed != nil || reason == "" {
		t.Fatalf("schema change accepted (%q)", reason)
	}

	// Rescaling every feature rewrites the quantile structure wholesale.
	scaled := linalg.NewMatrix(x.Rows, x.Cols)
	for i := range scaled.Data {
		scaled.Data[i] = x.Data[i]*1e3 + 7
	}
	if seed, reason := CheckWarmStart(prev, cfg, scaled, y); seed != nil || reason == "" {
		t.Fatalf("rebinned inputs accepted (%q)", reason)
	}

	// TrainWarm on drifted data falls back to a cold start: no shared trees.
	coldCfg := cfg
	coldCfg.Rounds = 5
	m, err := TrainWarm(coldCfg, scaled, y, nil, nil, prev)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Trees) > coldCfg.Rounds {
		t.Fatalf("fallback cold start kept %d trees, budget was %d", len(m.Trees), coldCfg.Rounds)
	}
	if m.Trees[0] == prev.Trees[0] {
		t.Fatal("fallback cold start shares trees with the rejected seed")
	}
}
