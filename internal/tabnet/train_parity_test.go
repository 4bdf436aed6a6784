package tabnet

import (
	"math"
	"testing"
)

// The kernelized training path (forwardTrain/backwardBatch) must track the
// scalar reference path (Config.ReferenceKernels) to FP-reassociation
// accuracy. Training draws no RNG inside the batch loop, so with the same
// seed both paths see the same shuffles; divergence is limited to rounding
// from the fused GLU polynomial exp and the dense kernels' fused
// multiply-adds, compounded through Adam. The documented training-parity
// tolerance is 1e-6 relative on predictions after a 5-epoch fit — the same
// contract BENCH_training.json records for the end-to-end diagnose parity.
const trainParityTol = 1e-6

func trainBothPaths(t *testing.T, cfg Config, epochs int) (fast, ref *Model) {
	t.Helper()
	x, y := synth(500, 8, 51)
	ex, ey := synth(120, 8, 52)
	cfg.Epochs = epochs
	cfg.EarlyStoppingRounds = 0

	cfg.ReferenceKernels = false
	fast, err := Train(cfg, x, y, ex, ey)
	if err != nil {
		t.Fatalf("fast train: %v", err)
	}
	cfg.ReferenceKernels = true
	ref, err = Train(cfg, x, y, ex, ey)
	if err != nil {
		t.Fatalf("reference train: %v", err)
	}
	return fast, ref
}

func TestTrainFastMatchesReference(t *testing.T) {
	cfg := smallConfig()
	fast, ref := trainBothPaths(t, cfg, 5)

	px, _ := synth(150, 8, 53)
	pf := fast.PredictBatch(px)
	pr := ref.PredictBatch(px)
	for i := range pf {
		rel := math.Abs(pf[i]-pr[i]) / math.Max(1, math.Abs(pr[i]))
		if rel > trainParityTol {
			t.Fatalf("prediction %d diverged: fast=%v ref=%v rel=%.3g (tol %g)",
				i, pf[i], pr[i], rel, trainParityTol)
		}
	}
	// The learned tensors themselves must agree too, not just their
	// composition into predictions.
	check := func(name string, a, b []float64) {
		t.Helper()
		for i := range a {
			if math.Abs(a[i]-b[i]) > trainParityTol*math.Max(1, math.Abs(b[i])) {
				t.Fatalf("%s[%d] diverged: fast=%v ref=%v", name, i, a[i], b[i])
			}
		}
	}
	check("Shared.W", fast.Shared.W, ref.Shared.W)
	check("Out.W", fast.Out.W, ref.Out.W)
	for s := range fast.StepFC {
		check("StepFC.W", fast.StepFC[s].W, ref.StepFC[s].W)
		check("AttFC.W", fast.AttFC[s].W, ref.AttFC[s].W)
	}
}

func TestTrainFastConvergesLikeReference(t *testing.T) {
	// Over a realistic budget the FP drift makes elementwise comparison
	// meaningless (a single sparsemax support flip cascades), but both
	// paths must land at the same quality.
	cfg := smallConfig()
	cfg.Epochs = 30
	x, y := synth(800, 8, 54)
	ex, ey := synth(200, 8, 55)
	fast, err := Train(cfg, x, y, ex, ey)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ReferenceKernels = true
	ref, err := Train(cfg, x, y, ex, ey)
	if err != nil {
		t.Fatal(err)
	}
	ef := rmseOf(fast.PredictBatch(ex), ey)
	er := rmseOf(ref.PredictBatch(ex), ey)
	if ef > er*1.25+0.05 {
		t.Fatalf("fast path converged worse: fast RMSE %v vs reference %v", ef, er)
	}
}
