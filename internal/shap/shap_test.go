package shap

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/hpc-repro/aiio/internal/linalg"
)

// linearF builds a PredictFunc for f(x) = c0 + Σ w_j x_j.
func linearF(c0 float64, w []float64) PredictFunc {
	return func(x *linalg.Matrix) []float64 {
		out := make([]float64, x.Rows)
		for i := range out {
			out[i] = c0 + linalg.Dot(w, x.Row(i))
		}
		return out
	}
}

func TestExactLinearModelRecoversWeights(t *testing.T) {
	// For a linear model with zero background, phi_j = w_j * x_j exactly.
	w := []float64{2, -3, 0.5, 0, 7}
	x := []float64{1, 2, 0, 4, -1} // feature 2 is zero -> inactive
	e := New(linearF(10, w), nil, DefaultConfig())
	ex := e.Explain(x)
	if !ex.Exact {
		t.Fatal("expected exact path for 4 active features")
	}
	for j := range x {
		want := w[j] * x[j]
		if math.Abs(ex.Phi[j]-want) > 1e-9 {
			t.Errorf("phi[%d] = %v, want %v", j, ex.Phi[j], want)
		}
	}
	if ex.Base != 10 {
		t.Errorf("base = %v, want 10", ex.Base)
	}
	if err := ex.AdditivityError(); err > 1e-9 {
		t.Errorf("additivity error %v", err)
	}
}

func TestZeroFeaturesGetExactlyZero(t *testing.T) {
	// The robustness property (Section 3.3): zero counters must receive
	// exactly zero contribution under any model, including interactions.
	f := func(x *linalg.Matrix) []float64 {
		out := make([]float64, x.Rows)
		for i := range out {
			r := x.Row(i)
			out[i] = r[0]*r[1] + math.Sin(r[2]) + r[3]*r[3]
		}
		return out
	}
	x := []float64{1.5, 0, 2.5, 0}
	ex := New(f, nil, DefaultConfig()).Explain(x)
	if ex.Phi[1] != 0 || ex.Phi[3] != 0 {
		t.Errorf("zero features got contributions: %v", ex.Phi)
	}
	if err := ex.AdditivityError(); err > 1e-9 {
		t.Errorf("additivity error %v", err)
	}
}

func TestSymmetryAxiom(t *testing.T) {
	// Two features with identical roles must get identical Shapley values.
	f := func(x *linalg.Matrix) []float64 {
		out := make([]float64, x.Rows)
		for i := range out {
			r := x.Row(i)
			out[i] = (r[0] + r[1]) * r[2]
		}
		return out
	}
	x := []float64{3, 3, 2}
	ex := New(f, nil, DefaultConfig()).Explain(x)
	if math.Abs(ex.Phi[0]-ex.Phi[1]) > 1e-9 {
		t.Errorf("symmetric features differ: %v vs %v", ex.Phi[0], ex.Phi[1])
	}
}

func TestSingleActiveFeature(t *testing.T) {
	w := []float64{5, 1}
	x := []float64{2, 0}
	ex := New(linearF(1, w), nil, DefaultConfig()).Explain(x)
	if math.Abs(ex.Phi[0]-10) > 1e-12 || ex.Phi[1] != 0 {
		t.Errorf("phi = %v", ex.Phi)
	}
}

func TestNoActiveFeatures(t *testing.T) {
	x := []float64{0, 0, 0}
	ex := New(linearF(4, []float64{1, 1, 1}), nil, DefaultConfig()).Explain(x)
	for j, p := range ex.Phi {
		if p != 0 {
			t.Errorf("phi[%d] = %v, want 0", j, p)
		}
	}
	if ex.Base != 4 || ex.FX != 4 {
		t.Errorf("base/fx = %v/%v", ex.Base, ex.FX)
	}
}

func TestNonZeroBackground(t *testing.T) {
	// Features equal to a non-zero background are inactive.
	w := []float64{1, 1}
	bg := []float64{5, 5}
	x := []float64{5, 7}
	ex := New(linearF(0, w), bg, DefaultConfig()).Explain(x)
	if ex.Phi[0] != 0 {
		t.Errorf("feature equal to background got phi %v", ex.Phi[0])
	}
	if math.Abs(ex.Phi[1]-2) > 1e-9 {
		t.Errorf("phi[1] = %v, want 2", ex.Phi[1])
	}
}

func TestSampledMatchesExactOnLinearModel(t *testing.T) {
	// Force the sampling path with MaxExact=2 on a 20-feature linear model;
	// Kernel SHAP must still recover w_j x_j closely.
	rng := rand.New(rand.NewSource(5))
	n := 20
	w := make([]float64, n)
	x := make([]float64, n)
	for j := range w {
		w[j] = rng.NormFloat64()
		x[j] = rng.Float64()*3 + 0.5
	}
	cfg := DefaultConfig()
	cfg.MaxExact = 2
	cfg.NSamples = 6000
	ex := New(linearF(2, w), nil, cfg).Explain(x)
	if ex.Exact {
		t.Fatal("expected sampled path")
	}
	for j := range x {
		want := w[j] * x[j]
		if math.Abs(ex.Phi[j]-want) > 0.02*(1+math.Abs(want)) {
			t.Errorf("phi[%d] = %v, want %v", j, ex.Phi[j], want)
		}
	}
	if err := ex.AdditivityError(); err > 1e-6 {
		t.Errorf("additivity error %v", err)
	}
}

func TestSampledAdditivityOnNonlinearModel(t *testing.T) {
	f := func(x *linalg.Matrix) []float64 {
		out := make([]float64, x.Rows)
		for i := range out {
			r := x.Row(i)
			s := 0.0
			for j := 0; j < len(r)-1; j++ {
				s += r[j] * r[j+1]
			}
			out[i] = s + math.Exp(-r[0])
		}
		return out
	}
	rng := rand.New(rand.NewSource(6))
	x := make([]float64, 18)
	for j := range x {
		x[j] = rng.Float64() * 2
	}
	cfg := DefaultConfig()
	cfg.MaxExact = 4
	cfg.NSamples = 3000
	ex := New(f, nil, cfg).Explain(x)
	if err := ex.AdditivityError(); err > 1e-6 {
		t.Errorf("additivity error %v", err)
	}
}

func TestExplainDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := make([]float64, 16)
	w := make([]float64, 16)
	for j := range x {
		x[j] = rng.Float64()
		w[j] = rng.NormFloat64()
	}
	cfg := DefaultConfig()
	cfg.MaxExact = 2
	cfg.NSamples = 500
	a := New(linearF(0, w), nil, cfg).Explain(x)
	b := New(linearF(0, w), nil, cfg).Explain(x)
	for j := range a.Phi {
		if a.Phi[j] != b.Phi[j] {
			t.Fatal("same seed, different SHAP values")
		}
	}
}

func TestBinomAndSubsets(t *testing.T) {
	if binom(5, 2) != 10 || binom(6, 0) != 1 || binom(4, 5) != 0 {
		t.Error("binom wrong")
	}
	count := 0
	forEachSubset(5, 2, func(idx []int) {
		count++
		if len(idx) != 2 || idx[0] >= idx[1] {
			t.Errorf("bad subset %v", idx)
		}
	})
	if count != 10 {
		t.Errorf("enumerated %d subsets of C(5,2), want 10", count)
	}
}

func TestEfficiencyPropertyQuick(t *testing.T) {
	// Property: for random small inputs, base + sum(phi) == f(x).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		w := make([]float64, n)
		x := make([]float64, n)
		for j := range w {
			w[j] = rng.NormFloat64()
			if rng.Float64() < 0.3 {
				x[j] = 0
			} else {
				x[j] = rng.Float64() * 5
			}
		}
		model := func(m *linalg.Matrix) []float64 {
			out := make([]float64, m.Rows)
			for i := range out {
				r := m.Row(i)
				out[i] = linalg.Dot(w, r) + r[0]*r[n-1]
			}
			return out
		}
		ex := New(model, nil, DefaultConfig()).Explain(x)
		return ex.AdditivityError() < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkExplainExact12(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	w := make([]float64, 12)
	x := make([]float64, 12)
	for j := range w {
		w[j] = rng.NormFloat64()
		x[j] = rng.Float64()
	}
	e := New(linearF(0, w), nil, DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Explain(x)
	}
}

// sampled30 is the sampled estimator on 30 active features with a
// 2048-coalition budget, and the point it explains.
func sampled30() (*Explainer, []float64) {
	rng := rand.New(rand.NewSource(1))
	w := make([]float64, 30)
	x := make([]float64, 30)
	for j := range w {
		w[j] = rng.NormFloat64()
		x[j] = rng.Float64()
	}
	cfg := DefaultConfig()
	cfg.NSamples = 2048
	return New(linearF(0, w), nil, cfg), x
}

func BenchmarkExplainSampled30(b *testing.B) {
	e, x := sampled30()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Explain(x)
	}
}

// TestExplainSampled30AllocCeiling is BenchmarkExplainSampled30's
// allocation ceiling. With the coalition plan cached an Explain makes 6
// allocations (Phi, two model output batches, two matrix headers, the
// solution vector). Per-explain masks, design matrices or normal equations
// come back in the dozens (the pre-plan path made 28), so a ceiling of 10
// catches them.
func TestExplainSampled30AllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation ceiling; skipped under -short")
	}
	e, x := sampled30()
	e.Explain(x) // build the plan
	// The quietest of several single runs: under -race sync.Pool drops some
	// of what is put back, which is the detector's cost, not the explainer's.
	best := testing.AllocsPerRun(1, func() { e.Explain(x) })
	for i := 0; i < 10; i++ {
		best = min(best, testing.AllocsPerRun(1, func() { e.Explain(x) }))
	}
	t.Logf("a sampled Explain on 30 features makes %.0f allocations (ceiling 10)", best)
	if best > 10 {
		t.Errorf("a sampled Explain on 30 features makes %.0f allocations, want ≤ 10", best)
	}
}

func TestExplainContextCancellation(t *testing.T) {
	// 20 active features forces the sampled path (2088 coalition rows, five
	// evaluation chunks), so cancellation must be observed between chunks.
	w := make([]float64, 20)
	x := make([]float64, 20)
	for j := range w {
		w[j] = float64(j%5) - 2
		x[j] = float64(j + 1)
	}
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	f := func(m *linalg.Matrix) []float64 {
		calls++
		if calls == 2 {
			cancel() // cancel mid-evaluation, after the first chunk
		}
		return linearF(1, w)(m)
	}
	_, err := New(f, nil, DefaultConfig()).ExplainContext(ctx, x)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The batch must not have been evaluated to completion: 1 pair call + a
	// prefix of the 5 chunks.
	if calls > 3 {
		t.Errorf("%d model calls after cancellation at call 2", calls)
	}

	// Pre-cancelled context: no model call at all.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	before := calls
	if _, err := New(f, nil, DefaultConfig()).ExplainContext(ctx2, x); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled err = %v", err)
	}
	if calls != before {
		t.Errorf("model evaluated on a pre-cancelled context")
	}
}

func TestExplainContextChunkedMatchesSingleBatch(t *testing.T) {
	// A live (cancellable) context forces chunked evaluation; the result
	// must be bitwise-identical to the single-batch Background path, on both
	// the exact (few active) and sampled (many active) estimators.
	for _, m := range []int{8, 20} {
		w := make([]float64, m)
		x := make([]float64, m)
		for j := range w {
			w[j] = math.Sin(float64(j) + 1)
			x[j] = float64(j%7) + 0.25
		}
		f := func(mat *linalg.Matrix) []float64 {
			out := make([]float64, mat.Rows)
			for i := range out {
				r := mat.Row(i)
				out[i] = 0.5 + linalg.Dot(w, r) + 0.1*r[0]*r[m-1]
			}
			return out
		}
		plain := New(f, nil, DefaultConfig()).Explain(x)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		chunked, err := New(f, nil, DefaultConfig()).ExplainContext(ctx, x)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if plain.Base != chunked.Base || plain.FX != chunked.FX {
			t.Fatalf("m=%d: base/fx differ between chunked and single-batch", m)
		}
		for j := range plain.Phi {
			if plain.Phi[j] != chunked.Phi[j] {
				t.Fatalf("m=%d: phi[%d] differs: %v vs %v", m, j, plain.Phi[j], chunked.Phi[j])
			}
		}
	}
}
