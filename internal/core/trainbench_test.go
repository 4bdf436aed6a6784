package core

import (
	"context"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"github.com/hpc-repro/aiio/internal/gbdt"
	"github.com/hpc-repro/aiio/internal/joblog"
	"github.com/hpc-repro/aiio/internal/mlp"
	"github.com/hpc-repro/aiio/internal/tabnet"
)

// Training-path benchmarks behind BENCH_training.json: the per-family cold
// fit and the full incremental retrain cycle cold vs warm. The net
// families' pre-kernelization reference paths are benchmarked beside their
// kernel paths in the mlp and tabnet packages. Early stopping is disabled
// so every iteration does identical work and allocs/op is a steady-state
// number, not an early-exit artifact.

// perFamilyFits are BenchmarkTrainPerFamily's sub-benchmarks, in order.
// "gbdt" is the level-wise (xgboost) variant; the name predates the other
// two tree families and BENCH_training.json rows are keyed on it.
var perFamilyFits = []string{"gbdt", "lightgbm", "catboost", "mlp", "tabnet"}

// familyFit returns one cold fit of the named family on the 900-job
// fixture frame: the trees at 60 rounds, the nets at their full cold
// topology (the paper's 6-layer MLP, default TabNet) with the epoch budget
// cut so a fit stays CI-sized — per-epoch cost is what the kernels change,
// so the ratio is budget-independent. Early stopping is off.
func familyFit(tb testing.TB, name string) func() error {
	frame, _, _ := fixture(tb)
	train, eval := frame.Split(1, 0.75)
	variants := map[string]gbdt.Variant{"gbdt": gbdt.LevelWise, "lightgbm": gbdt.LeafWise, "catboost": gbdt.Oblivious}
	if v, ok := variants[name]; ok {
		cfg := gbdt.DefaultConfig(v)
		cfg.Rounds = 60
		cfg.EarlyStoppingRounds = 0
		return func() error {
			_, err := gbdt.Train(cfg, train.X, train.Y, eval.X, eval.Y)
			return err
		}
	}
	switch name {
	case "mlp":
		cfg := mlp.DefaultConfig()
		cfg.Epochs = 15
		cfg.EarlyStoppingRounds = 0
		return func() error {
			_, err := mlp.Train(cfg, train.X, train.Y, eval.X, eval.Y)
			return err
		}
	case "tabnet":
		cfg := tabnet.DefaultConfig()
		cfg.Epochs = 10
		cfg.EarlyStoppingRounds = 0
		return func() error {
			_, err := tabnet.TrainSeeded(cfg, train.X, train.Y, eval.X, eval.Y, nil)
			return err
		}
	}
	tb.Fatalf("no family fit %q", name)
	return nil
}

// BenchmarkTrainPerFamily measures one cold fit per model family (see
// familyFit). The mlp and tabnet packages' BenchmarkTrainPerFamily run the
// same two fits beside their reference paths.
func BenchmarkTrainPerFamily(b *testing.B) {
	for _, name := range perFamilyFits {
		b.Run(name, func(b *testing.B) {
			fit := familyFit(b, name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := fit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestTrainPerFamilyAllocCeilings are BenchmarkTrainPerFamily's allocation
// ceilings. The training hot path reuses per-epoch scratch slabs and pooled
// gbdt histograms, so steady-state mini-batches allocate nothing:
//
//   - the mlp cold fit makes ~790 allocations (the scalar reference path
//     ~20k). A ceiling of 10 000 catches any reintroduced per-mini-batch
//     allocation, which comes back in multiples of epochs × batches;
//   - TabNet runs its forward per sample and its backward per mini-batch,
//     both on one scratch allocated once per fit: ~600 allocations (the
//     reference path ~575k). One reintroduced per-sample allocation adds
//     epochs × rows = 6 750, so its ceiling is 5 000;
//   - the oblivious (catboost) split search scans one pooled histogram per
//     leaf: ~1.4 MB. Copying every leaf's histogram per level, as the
//     quadratic scan did, costs ~83 MB; bytes, not allocations, are what
//     that copy moves, so its ceiling is 8 MB.
func TestTrainPerFamilyAllocCeilings(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation ceilings; skipped under -short")
	}
	for _, c := range []struct {
		name          string
		allocs, bytes uint64 // 0: not gated
	}{
		{name: "mlp", allocs: 10000},
		{name: "tabnet", allocs: 5000},
		{name: "catboost", bytes: 8_000_000},
	} {
		within := func(allocs, bytes uint64) bool {
			return (c.allocs == 0 || allocs <= c.allocs) && (c.bytes == 0 || bytes <= c.bytes)
		}
		allocs, bytes := quietestAllocs(t, 2, within, nil, familyFit(t, c.name))
		t.Logf("%s cold fit: %d allocations, %d bytes", c.name, allocs, bytes)
		if c.allocs > 0 && allocs > c.allocs {
			t.Errorf("%s cold fit makes %d allocations, want ≤ %d", c.name, allocs, c.allocs)
		}
		if c.bytes > 0 && bytes > c.bytes {
			t.Errorf("%s cold fit allocates %d bytes, want ≤ %d", c.name, bytes, c.bytes)
		}
	}
}

// copyTree recursively copies the directory tree at src into dst (which
// must exist). go.mod targets go 1.22, so no os.CopyFS.
func copyTree(tb testing.TB, src, dst string) {
	tb.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			if rel == "." {
				return nil
			}
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		tb.Fatal(err)
	}
}

// resetDir restores dir to the snapshot in pristine.
func resetDir(tb testing.TB, dir, pristine string) {
	tb.Helper()
	if err := os.RemoveAll(dir); err != nil {
		tb.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		tb.Fatal(err)
	}
	copyTree(tb, pristine, dir)
}

// incrementalCycle is BenchmarkRunIncremental's steady state: one full
// retrain cycle — drain the backlog, blend the window, train, validate,
// commit a generation — on an xgboost+mlp ensemble, cold or warm (seeded
// from the previous generation on the reduced budget). A priming cycle
// incorporates the first 300 jobs and commits the generation the warm mode
// seeds from; the resulting joblog and model store are snapshotted, and
// reset restores both before ingesting the same fresh 300-job backlog.
// Each cycle therefore does the identical work: without the resets, gbdt's
// continued boosting grows the ensemble every generation and the window
// reservoir's full-log scan grows with total ingested history.
type incrementalCycle struct {
	logDir, storeDir, pristineLog, pristineStore string
	store                                        *Store
	opts                                         IncrementalOptions
	jl                                           *joblog.Store
}

func newIncrementalCycle(tb testing.TB, warm bool) *incrementalCycle {
	c := &incrementalCycle{logDir: tb.TempDir(), storeDir: tb.TempDir(), pristineLog: tb.TempDir(), pristineStore: tb.TempDir()}
	jl, err := joblog.Open(c.logDir, joblog.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	c.store = OpenStore(c.storeDir)
	// Explicit mid-scale budgets rather than Fast: Fast also swaps the MLP
	// to a shrunken test topology, and the retrain cost being measured is
	// the production one — the paper's 6-layer net.
	c.opts = IncrementalOptions{
		MiniBatch: 64,
		Window:    300,
		Train: TrainOptions{
			Models:     []string{NameXGBoost, NameMLP},
			gbdtRounds: 60,
			nnEpochs:   30,
			Seed:       1,
			WarmStart:  warm,
		},
	}
	fillLog(tb, jl, 0, 300)
	if _, err := RunIncremental(context.Background(), jl, c.store, c.opts); err != nil {
		tb.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		tb.Fatal(err)
	}
	copyTree(tb, c.logDir, c.pristineLog)
	copyTree(tb, c.storeDir, c.pristineStore)
	return c
}

// reset closes the previous cycle's job log, restores the snapshots and
// ingests the fresh backlog.
func (c *incrementalCycle) reset(tb testing.TB) {
	c.close(tb)
	resetDir(tb, c.logDir, c.pristineLog)
	resetDir(tb, c.storeDir, c.pristineStore)
	jl, err := joblog.Open(c.logDir, joblog.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	fillLog(tb, jl, 300, 600)
	c.jl = jl
}

// run is the measured cycle.
func (c *incrementalCycle) run() error {
	_, err := RunIncremental(context.Background(), c.jl, c.store, c.opts)
	return err
}

// close closes the cycle's job log, if one is open.
func (c *incrementalCycle) close(tb testing.TB) {
	if c.jl == nil {
		return
	}
	if err := c.jl.Close(); err != nil {
		tb.Fatal(err)
	}
	c.jl = nil
}

// BenchmarkRunIncremental measures one incrementalCycle, cold and warm,
// with the resets outside the timer.
func BenchmarkRunIncremental(b *testing.B) {
	for _, mode := range []string{"cold", "warm"} {
		b.Run(mode, func(b *testing.B) {
			c := newIncrementalCycle(b, mode == "warm")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c.reset(b)
				b.StartTimer()
				err := c.run()
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
			}
			c.close(b)
		})
	}
}

// TestRunIncrementalWarmAllocCeiling is BenchmarkRunIncremental/warm's
// allocation ceiling. The warm cycle makes ~10k allocations (see
// BENCH_training.json); a ceiling of 25 000 catches any reintroduced
// per-mini-batch allocation, which comes back in multiples of epochs ×
// batches.
func TestRunIncrementalWarmAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation ceiling; skipped under -short")
	}
	c := newIncrementalCycle(t, true)
	defer c.close(t)
	within := func(allocs, _ uint64) bool { return allocs <= 25000 }
	allocs, _ := quietestAllocs(t, 2, within, func() { c.reset(t) }, c.run)
	t.Logf("a warm retrain cycle makes %d allocations (ceiling 25000)", allocs)
	if allocs > 25000 {
		t.Errorf("a warm retrain cycle makes %d allocations, want ≤ 25000", allocs)
	}
}
