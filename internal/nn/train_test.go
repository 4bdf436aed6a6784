package nn

import (
	"math/rand"
	"testing"
)

// line fits y = w·x by mini-batch Adam through a Loop, seeded at w0 when
// seeded is set; the eval rows are the training rows.
func line(w0, lr float64, epochs, rounds int, seeded bool) (w float64, evalLoss []float64, best int) {
	xs := []float64{-2, -1, 0.5, 1, 3}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2 * x
	}
	param, grad := []float64{w0}, []float64{0}
	l := Loop{
		Epochs: epochs, BatchSize: 2, EarlyStoppingRounds: rounds, LearningRate: lr,
		Rng:    rand.New(rand.NewSource(1)),
		Params: [][]float64{param}, Grads: [][]float64{grad}, State: [][]float64{param},
		Step: func(batch []int) {
			for _, i := range batch {
				grad[0] += (param[0]*xs[i] - ys[i]) * xs[i] / float64(len(batch))
			}
		},
		Eval: func() []float64 {
			pred := make([]float64, len(xs))
			for i, x := range xs {
				pred[i] = param[0] * x
			}
			return pred
		},
	}
	evalLoss, best, _ = l.Run(len(xs), ys, seeded)
	return param[0], evalLoss, best
}

// TestLoopKeepsAnUnbeatenSeed: a seed at the optimum trained with a step
// size that only moves away from it stops after EarlyStoppingRounds epochs
// and ships the seed bitwise, with best epoch -1.
func TestLoopKeepsAnUnbeatenSeed(t *testing.T) {
	w, evalLoss, best := line(2, 0.5, 50, 3, true)
	if w != 2 || best != -1 || len(evalLoss) != 3 {
		t.Fatalf("w = %v, best epoch %d after %d epochs; want the seed 2, -1 after 3", w, best, len(evalLoss))
	}
}

// TestLoopRestoresBestEpoch: a cold fit that converges and then stalls
// stops early and ends on the weights of its best recorded epoch, bitwise
// those of a replay that runs exactly that many epochs.
func TestLoopRestoresBestEpoch(t *testing.T) {
	w, evalLoss, best := line(0, 0.3, 200, 5, false)
	if best < 0 || best+1 >= len(evalLoss) || len(evalLoss) == 200 {
		t.Fatalf("fixture: best epoch %d of %d; want an early stop after it", best, len(evalLoss))
	}
	for _, e := range evalLoss {
		if e < evalLoss[best] {
			t.Fatalf("best epoch %d (RMSE %v) is not the minimum of %v", best, evalLoss[best], evalLoss)
		}
	}
	if replay, _, _ := line(0, 0.3, best+1, 0, false); w != replay {
		t.Fatalf("restored w = %v, weights after epoch %d = %v", w, best, replay)
	}
}

// TestCopyRejectsShapeMismatch: adopting a seed whose tensors differ in
// shape from the network's panics instead of copying a prefix.
func TestCopyRejectsShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Copy accepted a 3-value tensor into a 2-value one")
		}
	}()
	Copy([][]float64{make([]float64, 2)}, [][]float64{make([]float64, 3)})
}
