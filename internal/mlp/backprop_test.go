package mlp

import (
	"math"
	"math/rand"
	"testing"

	"github.com/hpc-repro/aiio/internal/linalg"
)

// gemmTA and gemm are the weight- and input-gradient kernels the mini-batch
// backward ran before it moved onto linalg.Dense, kept as the bitwise
// oracles of trainScratch.denseBackward. Both walk the summed dimension in
// order, one fused multiply-add (math.FMA) per nonzero term, and skip zero
// coefficients — the chain the old kernels built on FMA hardware — so the
// check holds on every Dense.Forward body.

// gemmTA accumulates dst += aᵀ·b for row-major a (m x p) and b (m x n),
// writing into the row-major p x n dst: the weight gradient dW += Gᵀ·X.
func gemmTA(dst, a, b []float64, m, p, n int) {
	for i := 0; i < m; i++ {
		brow := b[i*n : i*n+n]
		for o, g := range a[i*p : i*p+p] {
			if g == 0 {
				continue
			}
			drow := dst[o*n : o*n+n]
			for j, v := range brow {
				drow[j] = math.FMA(g, v, drow[j])
			}
		}
	}
}

// gemm computes dst = a·b (overwriting dst) for row-major a (m x k) and
// b (k x n), dst m x n: the input gradient dX = G·W.
func gemm(dst, a, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		drow := dst[i*n : i*n+n]
		clear(drow)
		for o, g := range a[i*k : i*k+k] {
			if g == 0 {
				continue
			}
			for j, v := range b[o*n : o*n+n] {
				drow[j] = math.FMA(g, v, drow[j])
			}
		}
	}
}

func randSlice(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Abs(b))
}

// oracleShapes covers odd and even sizes, with sparse coefficients for the
// zero skips.
var oracleShapes = [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 4, 8}, {7, 9, 11}, {16, 45, 45}, {33, 8, 90}}

func sparseCoefficients(rng *rand.Rand, n int) []float64 {
	a := randSlice(rng, n)
	for i := range a {
		if rng.Intn(3) == 0 {
			a[i] = 0
		}
	}
	return a
}

func TestGemmTAOracleMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, dims := range oracleShapes {
		m, p, n := dims[0], dims[1], dims[2]
		a := sparseCoefficients(rng, m*p)
		b := randSlice(rng, m*n)
		dst := randSlice(rng, p*n)
		want := append([]float64(nil), dst...)
		for i := 0; i < m; i++ {
			for o := 0; o < p; o++ {
				for j := 0; j < n; j++ {
					want[o*n+j] += a[i*p+o] * b[i*n+j]
				}
			}
		}
		gemmTA(dst, a, b, m, p, n)
		for i := range dst {
			if !relClose(dst[i], want[i], 1e-11) {
				t.Fatalf("m=%d p=%d n=%d dst[%d]=%v want %v", m, p, n, i, dst[i], want[i])
			}
		}
	}
}

func TestGemmOracleMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, dims := range oracleShapes {
		m, k, n := dims[0], dims[1], dims[2]
		a := sparseCoefficients(rng, m*k)
		b := randSlice(rng, k*n)
		dst := randSlice(rng, m*n) // gemm must overwrite, not accumulate
		want := make([]float64, m*n)
		for i := 0; i < m; i++ {
			for o := 0; o < k; o++ {
				for j := 0; j < n; j++ {
					want[i*n+j] += a[i*k+o] * b[o*n+j]
				}
			}
		}
		gemm(dst, a, b, m, k, n)
		for i := range dst {
			if !relClose(dst[i], want[i], 1e-11) {
				t.Fatalf("m=%d k=%d n=%d dst[%d]=%v want %v", m, k, n, i, dst[i], want[i])
			}
		}
	}
}

// TestDenseBackwardMatchesGemmOracles pins the backward contract: dW = Gᵀ·X
// and dX = G·W on the packed Dense kernel are bitwise equal to the gemmTA
// (from zero, as every mini-batch starts) and gemm oracles, on every layer
// shape of the default architecture and on batch sizes that hit Dense's
// four-row blocks and its 1–3 row tails. The gradient rows carry
// ReLU-dead zeros and -0 entries, the inputs post-ReLU zeros.
func TestDenseBackwardMatchesGemmOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	m := &Model{Config: DefaultConfig()}
	m.Dense, m.BN = newLayers(45, m.Config.Hidden)
	for l := range m.Dense {
		heInit(&m.Dense[l], rng)
		m.Dense[l].B = randSlice(rng, m.Dense[l].Out)
	}
	ts := newTrainScratch(m, 64, 45, packLayers[float64](nil, m.Dense))
	ts.pack(m)

	for _, rows := range []int{64, 5, 3, 2, 1} {
		for l := range m.Dense {
			d := &m.Dense[l]
			x := &linalg.Matrix{Rows: rows, Cols: d.In, Data: randSlice(rng, rows*d.In)}
			for i, v := range x.Data {
				x.Data[i] = math.Max(v, 0)
			}
			g := &linalg.Matrix{Rows: rows, Cols: d.Out, Data: randSlice(rng, rows*d.Out)}
			for i := range g.Data {
				switch rng.Intn(4) {
				case 0:
					g.Data[i] = 0
				case 1:
					g.Data[i] = math.Copysign(0, -1)
				}
			}

			gw := randSlice(rng, d.Out*d.In) // must be overwritten
			gb := make([]float64, d.Out)
			var gin *linalg.Matrix
			if l > 0 {
				gin = &linalg.Matrix{Rows: rows, Cols: d.In, Data: randSlice(rng, rows*d.In)}
			}
			ts.denseBackward(l, d, x, g, gw, gb, gin)

			wantW := make([]float64, d.Out*d.In)
			gemmTA(wantW, g.Data, x.Data, rows, d.Out, d.In)
			for k := range wantW {
				if math.Float64bits(gw[k]) != math.Float64bits(wantW[k]) {
					t.Fatalf("layer %d (%d→%d) rows=%d: dW[%d] = %v, gemmTA %v", l, d.In, d.Out, rows, k, gw[k], wantW[k])
				}
			}
			if gin == nil {
				continue
			}
			wantX := make([]float64, rows*d.In)
			gemm(wantX, g.Data, d.W, rows, d.Out, d.In)
			for k := range wantX {
				if math.Float64bits(gin.Data[k]) != math.Float64bits(wantX[k]) {
					t.Fatalf("layer %d (%d→%d) rows=%d: dX[%d] = %v, gemm %v", l, d.In, d.Out, rows, k, gin.Data[k], wantX[k])
				}
			}
		}
	}
}

// TestTrainOneRowLastBatchAllocFree fits 1 537 rows in mini-batches of 64,
// so every epoch ends on a one-row batch, and checks that the extra epochs
// of a longer fit allocate less than once per mini-batch: the scratch slabs
// and packed layers serve every batch size without reallocating.
func TestTrainOneRowLastBatchAllocFree(t *testing.T) {
	x, y := synth(1537, 6, 41)
	cfg := smallConfig()
	cfg.BatchSize = 64
	cfg.EarlyStoppingRounds = 0
	batches := (x.Rows + cfg.BatchSize - 1) / cfg.BatchSize
	fit := func(epochs int) float64 {
		cfg.Epochs = epochs
		var m *Model
		allocs := testing.AllocsPerRun(2, func() {
			var err error
			if m, err = Train(cfg, x, y, nil, nil); err != nil {
				t.Fatal(err)
			}
		})
		for i, p := range m.PredictBatch(x) {
			if math.IsNaN(p) || math.IsInf(p, 0) {
				t.Fatalf("prediction %d is %v after %d epochs", i, p, epochs)
			}
		}
		return allocs
	}
	short, long := fit(2), fit(6)
	perEpoch := (long - short) / 4
	t.Logf("%d mini-batches per epoch; %.0f allocs for 2 epochs, %.0f for 6: %.2f per epoch", batches, short, long, perEpoch)
	if perEpoch >= float64(batches) {
		t.Fatalf("%.2f allocs per epoch of %d mini-batches: a mini-batch allocates", perEpoch, batches)
	}
}
