package mlp

import (
	"math"
	"math/rand"
	"testing"

	"github.com/hpc-repro/aiio/internal/linalg"
)

// The blocked training path (batchStep) must track the scalar reference
// path (referenceStep, reference_test.go) to FP-reassociation accuracy.
// Both paths consume the rng identically (one dropout draw per element), so
// with the same seed they see the same shuffles and the same dropout masks;
// the only divergence is rounding from paired rows and fused multiply-adds,
// which compounds through Adam over epochs. The documented training-parity
// tolerance is 1e-6 relative on predictions after a 5-epoch fit, on plain
// rows and on the zeroed-counter rows Kernel SHAP evaluates.
const trainParityTol = 1e-6

func trainBothPaths(t *testing.T, cfg Config, epochs int) (fast, ref *Model) {
	t.Helper()
	x, y := synth(600, 5, 31)
	ex, ey := synth(150, 5, 32)
	cfg.Epochs = epochs
	cfg.EarlyStoppingRounds = 0

	fast, err := Train(cfg, x, y, ex, ey)
	if err != nil {
		t.Fatalf("fast train: %v", err)
	}
	ref, err = fit(cfg, x, y, ex, ey, nil, referenceStep)
	if err != nil {
		t.Fatalf("reference train: %v", err)
	}
	return fast, ref
}

// zeroedSubsets returns a copy of x in which each row has a random subset
// of its counters set to zero: the coalition rows Kernel SHAP feeds a model,
// absent counters taking the zero baseline.
func zeroedSubsets(x *linalg.Matrix, seed int64) *linalg.Matrix {
	rng := rand.New(rand.NewSource(seed))
	z := linalg.NewMatrix(x.Rows, x.Cols)
	for i, v := range x.Data {
		if rng.Intn(2) == 0 {
			z.Data[i] = v
		}
	}
	return z
}

// requirePredictionsClose fails unless fast and ref predict every row of x,
// and of its zeroed-subset copy, within trainParityTol.
func requirePredictionsClose(t *testing.T, fast, ref *Model, x *linalg.Matrix) {
	t.Helper()
	for _, rows := range []struct {
		name string
		x    *linalg.Matrix
	}{{"row", x}, {"zeroed-subset row", zeroedSubsets(x, 37)}} {
		pf, pr := fast.PredictBatch(rows.x), ref.PredictBatch(rows.x)
		for i := range pf {
			if rel := math.Abs(pf[i]-pr[i]) / math.Max(1, math.Abs(pr[i])); rel > trainParityTol {
				t.Fatalf("%s %d diverged: fast=%v ref=%v rel=%.3g (tol %g)",
					rows.name, i, pf[i], pr[i], rel, trainParityTol)
			}
		}
	}
}

func TestTrainFastMatchesReference(t *testing.T) {
	cfg := smallConfig()
	fast, ref := trainBothPaths(t, cfg, 5)

	px, _ := synth(200, 5, 33)
	requirePredictionsClose(t, fast, ref, px)
	// The learned tensors themselves must agree too, not just their
	// composition into predictions.
	for li := range fast.Dense {
		for wi := range fast.Dense[li].W {
			a, b := fast.Dense[li].W[wi], ref.Dense[li].W[wi]
			if math.Abs(a-b) > trainParityTol*math.Max(1, math.Abs(b)) {
				t.Fatalf("dense[%d].W[%d] diverged: fast=%v ref=%v", li, wi, a, b)
			}
		}
	}
}

func TestTrainFastMatchesReferenceWithoutDropout(t *testing.T) {
	// Dropout off exercises the pure GEMM forward/backward equivalence with
	// no mask interplay.
	cfg := smallConfig()
	cfg.Dropout = 0
	fast, ref := trainBothPaths(t, cfg, 5)
	px, _ := synth(100, 5, 34)
	requirePredictionsClose(t, fast, ref, px)
}

func TestTrainFastConvergesLikeReference(t *testing.T) {
	// Over a realistic budget the FP drift makes bitwise comparison
	// meaningless, but both paths must land at the same quality.
	cfg := smallConfig()
	x, y := synth(1200, 5, 35)
	ex, ey := synth(300, 5, 36)
	fast, err := Train(cfg, x, y, ex, ey)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := fit(cfg, x, y, ex, ey, nil, referenceStep)
	if err != nil {
		t.Fatal(err)
	}
	ef := rmseOf(fast.PredictBatch(ex), ey)
	er := rmseOf(ref.PredictBatch(ex), ey)
	if ef > er*1.25+0.05 {
		t.Fatalf("fast path converged worse: fast RMSE %v vs reference %v", ef, er)
	}
}
