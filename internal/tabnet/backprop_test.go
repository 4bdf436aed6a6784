package tabnet

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"github.com/hpc-repro/aiio/internal/features"
	"github.com/hpc-repro/aiio/internal/linalg"
	"github.com/hpc-repro/aiio/internal/logdb"
)

// oracleStep is the per-sample step the mini-batch backward replaced, kept
// as its bitwise oracle: each sample's forward, then at once its backward,
// every weight and input gradient accumulated one fused multiply-add
// (math.FMA) per nonzero term, output unit by output unit — the chain the
// Axpy and paired-Axpy kernels built on FMA hardware — so the check holds
// on every Dense.Forward body and at any dims.
func oracleStep(m, g *Model, xs *linalg.Matrix, ys []float64) func(batch []int) {
	ts := m.newTrainScratch(min(m.Config.BatchSize, xs.Rows))
	return func(batch []int) {
		inv := 1 / float64(len(batch))
		for b, i := range batch {
			pred := m.forwardTrain(xs.Row(i), ts, b)
			m.backwardOracle(xs.Row(i), ts, b, (pred-ys[i])*inv, g)
		}
	}
}

// denseBackwardOracle accumulates layer d's bias and weight gradients for
// input x and output gradient gout into gb and gw, skipping zero terms, and
// writes dL/dx into gin when it is non-nil.
func denseBackwardOracle(d *dense, x, gout, gw, gb, gin []float64) {
	for i := range gin {
		gin[i] = 0
	}
	for o, g := range gout {
		if g == 0 {
			continue
		}
		gb[o] += g
		row := gw[o*d.In : (o+1)*d.In]
		for j, v := range x {
			row[j] = math.FMA(g, v, row[j])
		}
		if gin != nil {
			for j, w := range d.W[o*d.In : (o+1)*d.In] {
				gin[j] = math.FMA(g, w, gin[j])
			}
		}
	}
}

// backwardOracle backpropagates dL/dout for the sample whose forward state
// forwardTrain recorded in row b of ts, accumulating into g.
func (m *Model) backwardOracle(x []float64, ts *trainScratch, b int, gOut float64, g *Model) {
	steps, d, na := m.Config.Steps, m.Config.DecisionDim, m.Config.AttentionDim
	h := d + na
	h2 := 2 * h
	nf := m.NumFeatures
	in := ts.shIn[b*(steps+1)*nf : (b+1)*(steps+1)*nf]

	// Output layer.
	denseBackwardOracle(&m.Out, ts.agg[b*d:(b+1)*d], []float64{gOut}, g.Out.W, g.Out.B, nil)
	gAgg := make([]float64, d)
	for i := range gAgg {
		gAgg[i] = gOut * m.Out.W[i]
	}
	gA := make([]float64, na)
	gh := make([]float64, h)
	ghS := make([]float64, h)
	gxm := make([]float64, nf)
	for s := steps - 1; s >= 0; s-- {
		c := &ts.pass[s+1]
		hs := c.h[b*h : (b+1)*h]
		for i := 0; i < d; i++ {
			gh[i] = 0
			if hs[i] > 0 {
				gh[i] = gAgg[i]
			}
		}
		copy(gh[d:], gA)
		gz2 := gluBackward(c.stepZ[b*h2:(b+1)*h2], gh)
		denseBackwardOracle(&m.StepFC[s], c.sharedH[b*h:(b+1)*h], gz2, g.StepFC[s].W, g.StepFC[s].B, ghS)
		gz := gluBackward(c.sharedZ[b*h2:(b+1)*h2], ghS)
		xm := in[(steps-1-s)*nf : (steps-s)*nf]
		denseBackwardOracle(&m.Shared, xm, gz, g.Shared.W, g.Shared.B, gxm)

		// xm = mask ⊙ x → gradient to the mask, back through sparsemax,
		// then the constant-prior product to the raw logits.
		gMask := make([]float64, nf)
		for i := range gMask {
			gMask[i] = gxm[i] * x[i]
		}
		support := make([]bool, nf)
		for _, i := range c.sup[b*nf : b*nf+int(c.nsup[b])] {
			support[i] = true
		}
		gLogits := sparsemaxBackward(gMask, support)
		gRaw := make([]float64, nf)
		for i := range gRaw {
			gRaw[i] = gLogits[i] * c.prior[b*nf+i]
		}
		prevA := ts.pass[s].h[b*h+d : (b+1)*h]
		denseBackwardOracle(&m.AttFC[s], prevA, gRaw, g.AttFC[s].W, g.AttFC[s].B, gA)
	}

	// Step 0 attention features came from the unmasked shared pass.
	for i := 0; i < d; i++ {
		gh[i] = 0
	}
	copy(gh[d:], gA)
	gz0 := gluBackward(ts.pass[0].sharedZ[b*h2:(b+1)*h2], gh)
	denseBackwardOracle(&m.Shared, x, gz0, g.Shared.W, g.Shared.B, nil)
}

var (
	coreOnce sync.Once
	// coreFrames holds the fixture's cold and warm train/eval splits.
	coreFrames [4]*features.Frame
)

// coreFixture is the core package's training fixture — the 900-job
// simulated log database of seed 11 split 50/50 with seed 1 — plus a second
// window of 900 jobs (seed 23) for warm fits. 450 training rows make the
// default 256-row mini-batches end on a partial one of 194.
func coreFixture() (train, eval, warmTrain, warmEval *features.Frame) {
	coreOnce.Do(func() {
		frame := features.Build(logdb.Generate(logdb.GenConfig{Jobs: 900, Seed: 11}))
		coreFrames[0], coreFrames[1] = frame.Split(1, 0.5)
		next := features.Build(logdb.Generate(logdb.GenConfig{Jobs: 900, Seed: 23}))
		coreFrames[2], coreFrames[3] = next.Split(1, 0.5)
	})
	return coreFrames[0], coreFrames[1], coreFrames[2], coreFrames[3]
}

// requireSameBits fails unless a and b hold the same bits everywhere.
func requireSameBits(t *testing.T, what string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d values vs the oracle's %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s[%d] = %v, oracle %v", what, i, a[i], b[i])
		}
	}
}

// requireSameModel fails unless every trained tensor, the standardizer, the
// eval-loss curve and the best epoch of got are bitwise those of want.
func requireSameModel(t *testing.T, got, want *Model) {
	t.Helper()
	gp, wp := got.params(), want.params()
	for k := range gp {
		requireSameBits(t, fmt.Sprintf("tensor %d", k), gp[k], wp[k])
	}
	requireSameBits(t, "Mean", got.Mean, want.Mean)
	requireSameBits(t, "Std", got.Std, want.Std)
	requireSameBits(t, "YMean/YStd", []float64{got.YMean, got.YStd}, []float64{want.YMean, want.YStd})
	requireSameBits(t, "EvalLoss", got.EvalLoss, want.EvalLoss)
	if got.BestEpoch != want.BestEpoch || !slices.Equal(got.ConstantCols, want.ConstantCols) {
		t.Fatalf("BestEpoch %d, constant columns %v; oracle %d, %v",
			got.BestEpoch, got.ConstantCols, want.BestEpoch, want.ConstantCols)
	}
}

// TestBatchStepMatchesOracle runs single mini-batches through the batched
// step and the oracle from the same weights: full, partial and 1–3 row
// batches (Dense's four-row blocks and tails), with every third sample's
// target set to its prediction so its output gradient is exactly zero.
// Every gradient tensor must match bit for bit.
func TestBatchStepMatchesOracle(t *testing.T) {
	train, eval, _, _ := coreFixture()
	cfg := DefaultConfig()
	cfg.Epochs = 2
	m, err := TrainSeeded(cfg, train.X, train.Y, eval.X, eval.Y, nil)
	if err != nil {
		t.Fatal(err)
	}
	xs := m.scale.Into(new(linalg.Matrix), train.X, m.Mean, m.Std)
	ys := m.standardizer().Targets(train.Y)
	ts := m.newTrainScratch(xs.Rows)
	for _, rows := range []int{256, 194, 7, 3, 2, 1} {
		batch := make([]int, rows)
		for b := range batch {
			batch[b] = (b*37 + rows) % xs.Rows
		}
		zero := 0
		for b, i := range batch {
			if b%3 == 0 {
				ys[i] = m.forwardTrain(xs.Row(i), ts, 0)
				zero++
			}
		}
		got, want := newNet(m.Config, m.NumFeatures), newNet(m.Config, m.NumFeatures)
		m.batchStep(got, xs, ys)(batch)
		oracleStep(m, want, xs, ys)(batch)
		for k, p := range got.params() {
			requireSameBits(t, fmt.Sprintf("%d rows: gradient %d", rows, k), p, want.params()[k])
		}
		if zero == 0 {
			t.Fatalf("%d rows: no sample with a zero output gradient", rows)
		}
	}
}

// TestTrainMatchesOracle fits TabNet on the core fixture with the batched
// step and with the oracle, cold and then warm from the cold fit on a new
// window, at seeds 1–3. Every epoch's mini-batches end on a partial one.
// The two fits must agree bit for bit: tensors, standardizer, EvalLoss and
// BestEpoch.
func TestTrainMatchesOracle(t *testing.T) {
	train, eval, wTrain, wEval := coreFixture()
	for seed := int64(1); seed <= 3; seed++ {
		cfg := DefaultConfig()
		cfg.Seed, cfg.Epochs = seed, 6
		cold, err := fit(cfg, train.X, train.Y, eval.X, eval.Y, nil, (*Model).batchStep)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fit(cfg, train.X, train.Y, eval.X, eval.Y, nil, oracleStep)
		if err != nil {
			t.Fatal(err)
		}
		requireSameModel(t, cold, want)

		cfg.Epochs = 3
		if ok, why := CanWarmStart(cold, cfg, wTrain.X, wTrain.Y); !ok {
			t.Fatalf("seed %d: warm start refused: %s", seed, why)
		}
		warm, err := fit(cfg, wTrain.X, wTrain.Y, wEval.X, wEval.Y, cold, (*Model).batchStep)
		if err != nil {
			t.Fatal(err)
		}
		want, err = fit(cfg, wTrain.X, wTrain.Y, wEval.X, wEval.Y, cold, oracleStep)
		if err != nil {
			t.Fatal(err)
		}
		requireSameModel(t, warm, want)
		t.Logf("seed %d: cold best epoch %d of %d, warm best epoch %d of %d",
			seed, cold.BestEpoch, len(cold.EvalLoss), warm.BestEpoch, len(warm.EvalLoss))
	}
}
