package shap

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestParseMode(t *testing.T) {
	for s, want := range map[string]Mode{
		"":       ModeAuto,
		"auto":   ModeAuto,
		"kernel": ModeKernel,
		"tree":   ModeTree,
	} {
		got, err := ParseMode(s)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseMode("fourier"); err == nil {
		t.Error("ParseMode accepted an unknown mode")
	}
}

func TestForModelDispatch(t *testing.T) {
	m, _ := trainSmallGBDT(t, 300, 5, 8, 9)
	cfg := DefaultConfig()

	// Tree model: auto and tree pick the exact tree path, kernel the
	// model-agnostic one.
	for mode, wantTree := range map[Mode]bool{ModeAuto: true, ModeTree: true, ModeKernel: false, "": true} {
		att, err := ForModel(m.PredictBatch, m, nil, mode, cfg)
		if err != nil {
			t.Fatalf("mode %q: %v", mode, err)
		}
		_, isTree := att.(*TreeExplainer)
		if isTree != wantTree {
			t.Errorf("mode %q on tree model: tree path %v, want %v", mode, isTree, wantTree)
		}
	}

	// Neural (no tree structure): auto falls back to kernel, tree errors.
	f := linearF(1, []float64{1, 2, 3, 4, 5})
	att, err := ForModel(f, nil, nil, ModeAuto, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, isKernel := att.(*Explainer); !isKernel {
		t.Error("auto on a non-tree model must pick the kernel explainer")
	}
	if _, err := ForModel(f, nil, nil, ModeTree, cfg); err == nil {
		t.Error("tree mode on a non-tree model must error")
	}
	if _, err := ForModel(f, nil, nil, "fourier", cfg); err == nil {
		t.Error("unknown mode must error")
	}
}

// TestAttributeAgreesWithExplain: the Attributor face returns exactly what
// the estimators' native entry points return.
func TestAttributeAgreesWithExplain(t *testing.T) {
	m, x := trainSmallGBDT(t, 300, 6, 10, 10)
	row := x.Row(3)
	ctx := context.Background()

	tree := NewTree(m)
	at, err := tree.Attribute(ctx, row)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewTree(m).Explain(row, nil)
	for j := range at.Phi {
		if at.Phi[j] != ex.Phi[j] {
			t.Fatalf("tree Attribute phi[%d] %v != Explain %v", j, at.Phi[j], ex.Phi[j])
		}
	}

	kernel := New(m.PredictBatch, nil, DefaultConfig())
	ak, err := kernel.Attribute(ctx, row)
	if err != nil {
		t.Fatal(err)
	}
	ek := New(m.PredictBatch, nil, DefaultConfig()).Explain(row)
	for j := range ak.Phi {
		if ak.Phi[j] != ek.Phi[j] {
			t.Fatalf("kernel Attribute phi[%d] %v != Explain %v", j, ak.Phi[j], ek.Phi[j])
		}
	}

	// Cancellation short-circuits both.
	done, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tree.Attribute(done, row); err == nil {
		t.Error("tree Attribute ignored a cancelled context")
	}
	if _, err := kernel.Attribute(done, row); err == nil {
		t.Error("kernel Attribute ignored a cancelled context")
	}
}

// TestTreeSHAPParityAt45Counters is the satellite parity check at AIIO's
// schema width: a 45-feature model, inputs with at most MaxExact active
// features, TreeSHAP vs the exact Kernel enumerator within 1e-9, and the
// zero-background robustness property on both.
func TestTreeSHAPParityAt45Counters(t *testing.T) {
	const d = 45
	m, _ := trainSmallGBDT(t, 800, d, 20, 11)
	cfg := DefaultConfig()
	tree := NewTree(m)
	kernel := New(m.PredictBatch, nil, cfg)

	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 8; trial++ {
		// A sparse input: exactly MaxExact (or fewer) active features.
		x := make([]float64, d)
		for k := 0; k < cfg.MaxExact; k++ {
			x[rng.Intn(d)] = rng.Float64() * 10
		}
		a := tree.Explain(x, nil)
		b := kernel.Explain(x)
		if !b.Exact {
			t.Fatalf("trial %d: kernel path not exact", trial)
		}
		for j := range a.Phi {
			if diff := math.Abs(a.Phi[j] - b.Phi[j]); diff > 1e-9 {
				t.Fatalf("trial %d phi[%d]: tree %v vs kernel %v", trial, j, a.Phi[j], b.Phi[j])
			}
			if x[j] == 0 && (a.Phi[j] != 0 || b.Phi[j] != 0) {
				t.Fatalf("trial %d: zero feature %d attributed (tree %v, kernel %v)",
					trial, j, a.Phi[j], b.Phi[j])
			}
		}
		if a.AdditivityError() > 1e-9 || b.AdditivityError() > 1e-9 {
			t.Fatalf("trial %d: additivity %v / %v", trial, a.AdditivityError(), b.AdditivityError())
		}
	}
}

// TestScratchReuseAllocationLean pins the allocation budget of the sampled
// path: with the coalition plan cached and the scratch slab warm, an Explain
// allocates the Phi slice, the model's two output batches, their matrix
// headers and the solution vector — no masks, no design matrix, no normal
// equations.
func TestScratchReuseAllocationLean(t *testing.T) {
	m := 30
	w := make([]float64, m)
	x := make([]float64, m)
	for j := range w {
		w[j] = float64(j%5) - 2
		x[j] = float64(j + 1)
	}
	cfg := DefaultConfig()
	cfg.MaxExact = 2
	cfg.NSamples = 512
	e := New(linearF(1, w), nil, cfg)
	e.Explain(x) // build the plan, warm the scratch
	allocs := testing.AllocsPerRun(5, func() { e.Explain(x) })
	if allocs > 10 {
		t.Errorf("sampled Explain makes %v allocs/op after warm-up, want <= 10", allocs)
	}

	tm, xm := trainSmallGBDT(t, 400, 12, 20, 13)
	te := NewTree(tm)
	row := xm.Row(0)
	te.Explain(row, nil)
	allocs = testing.AllocsPerRun(5, func() { te.Explain(row, nil) })
	// Phi + the zero background; the fold state is reused.
	if allocs > 4 {
		t.Errorf("TreeSHAP Explain makes %v allocs/op after warm-up, want <= 4", allocs)
	}
}

// TestExplainerConcurrentUse: an explainer holds no per-call state — the
// plan is immutable, the scratch is borrowed per call — so one shared by
// goroutines stays correct on the exact and the sampled path alike; the tree
// explainer serializes on its mutex (run under -race in CI).
func TestExplainerConcurrentUse(t *testing.T) {
	m, xm := trainSmallGBDT(t, 300, 8, 10, 14)
	te := NewTree(m)
	row := xm.Row(0)
	wantTree := te.Explain(row, nil)
	t.Run("exact", func(t *testing.T) {
		explainConcurrently(t, New(m.PredictBatch, nil, DefaultConfig()), row, te, wantTree)
	})
	t.Run("sampled", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.MaxExact = 2
		e := New(m.PredictBatch, nil, cfg)
		if e.Explain(row).Exact {
			t.Fatal("expected the sampled path")
		}
		explainConcurrently(t, e, row, te, wantTree)
	})
}

func explainConcurrently(t *testing.T, e *Explainer, row []float64, te *TreeExplainer, wantTree Explanation) {
	want := e.Explain(row)

	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 10; i++ {
				got := e.Explain(row)
				for j := range got.Phi {
					if got.Phi[j] != want.Phi[j] {
						done <- fmt.Errorf("kernel phi[%d] drifted under concurrency", j)
						return
					}
				}
				gt := te.Explain(row, nil)
				for j := range gt.Phi {
					if gt.Phi[j] != wantTree.Phi[j] {
						done <- fmt.Errorf("tree phi[%d] drifted under concurrency", j)
						return
					}
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
