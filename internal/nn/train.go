package nn

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"

	"github.com/hpc-repro/aiio/internal/linalg"
)

// CheckTrainingSet rejects an empty training set. A row count that differs
// from the target count is a caller bug and panics.
func CheckTrainingSet(family string, x *linalg.Matrix, y []float64) error {
	if x.Rows == 0 {
		return errors.New(family + ": empty training set")
	}
	if x.Rows != len(y) {
		panic(fmt.Sprintf("%s: %d rows vs %d targets", family, x.Rows, len(y)))
	}
	return nil
}

// Loop is one fit's training schedule: the paper's recipe for both
// networks — mini-batch Adam on the squared loss, early stopping on the eval
// RMSE after EarlyStoppingRounds stale epochs with the best epoch's weights
// restored — plus this repository's warm-start rule: a seeded fit scores its
// seed first as the early-stopping baseline, so it never ships weights worse
// than it started from.
type Loop struct {
	Epochs, BatchSize, EarlyStoppingRounds int
	LearningRate                           float64
	// Rng shuffles the training rows each epoch. It is the family's fit
	// rng, so the step may draw from it too (dropout).
	Rng *rand.Rand
	// Params lists the tensors Adam trains and Grads their gradients,
	// index-aligned. State is what the best-epoch snapshot holds: Params
	// plus any tensor training updates outside Adam (batch-norm running
	// statistics).
	Params, Grads, State [][]float64
	// Step accumulates one mini-batch's gradients into Grads, which the
	// loop zeroes before each call. batch indexes the training rows.
	Step func(batch []int)
	// Eval returns the current weights' predictions for the eval rows, in
	// target units. Nil trains the whole Epochs budget.
	Eval func() []float64
}

// Run trains on rows training rows and returns the eval RMSE against evalY
// after each epoch and the epoch whose weights the fit ends with. A seeded
// fit scores its starting weights before the first epoch and keeps them
// (best epoch -1) unless an epoch beats them. Without Eval the best epoch
// is the last.
func (l *Loop) Run(rows int, evalY []float64, seeded bool) (evalLoss []float64, bestEpoch int) {
	opt := newAdam(l.Params)
	best := math.Inf(1)
	sinceBest := 0
	var snapshot [][]float64
	if seeded && l.Eval != nil {
		best = rmse(l.Eval(), evalY)
		bestEpoch = -1
		snapshot = clone(l.State)
	}
	order := make([]int, rows)
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < l.Epochs; epoch++ {
		l.Rng.Shuffle(rows, func(i, j int) { order[i], order[j] = order[j], order[i] })
		for lo := 0; lo < rows; lo += l.BatchSize {
			for _, g := range l.Grads {
				clear(g)
			}
			l.Step(order[lo:min(lo+l.BatchSize, rows)])
			opt.step(l.Params, l.Grads, l.LearningRate)
		}
		if l.Eval == nil {
			bestEpoch = epoch
			continue
		}
		e := rmse(l.Eval(), evalY)
		evalLoss = append(evalLoss, e)
		if e < best-1e-12 {
			best, bestEpoch, sinceBest = e, epoch, 0
			snapshot = clone(l.State)
			continue
		}
		if sinceBest++; l.EarlyStoppingRounds > 0 && sinceBest >= l.EarlyStoppingRounds {
			break
		}
	}
	if snapshot != nil {
		Copy(l.State, snapshot)
	}
	return evalLoss, bestEpoch
}

// adam is the optimizer state of an ordered tensor list.
type adam struct {
	m, v [][]float64
	t    int
}

func newAdam(params [][]float64) *adam {
	a := &adam{m: make([][]float64, len(params)), v: make([][]float64, len(params))}
	for k, w := range params {
		a.m[k] = make([]float64, len(w))
		a.v[k] = make([]float64, len(w))
	}
	return a
}

// step applies one Adam update to every tensor through linalg.AdamStep,
// whose oracle is the textbook scalar loop of TestAdamStepMatchesNaive.
func (a *adam) step(params, grads [][]float64, lr float64) {
	a.t++
	b1, b2, eps := 0.9, 0.999, 1e-8
	c1 := 1 - math.Pow(b1, float64(a.t))
	c2 := 1 - math.Pow(b2, float64(a.t))
	for k, w := range params {
		linalg.AdamStep(w, a.m[k], a.v[k], grads[k], b1, b2, c1, c2, lr, eps)
	}
}

// rmse is the root-mean-square difference of pred and y.
func rmse(pred, y []float64) float64 {
	s := 0.0
	for i := range y {
		d := pred[i] - y[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(y)))
}

// clone deep-copies a tensor list.
func clone(ts [][]float64) [][]float64 {
	cp := make([][]float64, len(ts))
	for i, t := range ts {
		cp[i] = append([]float64(nil), t...)
	}
	return cp
}

// Copy copies each tensor of src into the same-shaped tensor of dst: the
// snapshot restore, and a warm start adopting its seed's weights into a
// freshly allocated network. A shape mismatch means the seed skipped the
// architecture gate, and panics.
func Copy(dst, src [][]float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("nn: copying %d tensors into %d", len(src), len(dst)))
	}
	for i := range dst {
		if len(dst[i]) != len(src[i]) {
			panic(fmt.Sprintf("nn: tensor %d has %d values, source %d", i, len(dst[i]), len(src[i])))
		}
		copy(dst[i], src[i])
	}
}

// Save gob-encodes model, a family's *Model.
func Save(w io.Writer, family string, model any) error {
	if err := gob.NewEncoder(w).Encode(model); err != nil {
		return fmt.Errorf("%s: encode model: %w", family, err)
	}
	return nil
}

// Load decodes a model written by Save.
func Load[M any](r io.Reader, family string) (*M, error) {
	m := new(M)
	if err := gob.NewDecoder(r).Decode(m); err != nil {
		return nil, fmt.Errorf("%s: decode model: %w", family, err)
	}
	return m, nil
}
