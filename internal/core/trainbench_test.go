package core

import (
	"context"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/gbdt"
	"github.com/hpc-repro/aiio/internal/joblog"
	"github.com/hpc-repro/aiio/internal/logdb"
	"github.com/hpc-repro/aiio/internal/mlp"
	"github.com/hpc-repro/aiio/internal/tabnet"
)

// Training-path benchmarks behind BENCH_training.json: the per-family cold
// fit (with the pre-kernelization reference path as the baseline subbench
// for the net families) and the full incremental retrain cycle cold vs
// warm. Early stopping is disabled so every iteration does identical work
// and allocs/op is a steady-state number, not an early-exit artifact.

// BenchmarkTrainPerFamily measures one cold fit per model family on the
// 900-job fixture frame: the trees at the Fast round budget, the nets at
// their full cold topology (the paper's 6-layer MLP, default TabNet) with
// the epoch budget cut so an iteration stays CI-sized — per-epoch cost is
// what the kernels change, so the ratio is budget-independent. The
// mlp/reference and tabnet/reference subbenches run the same fit through
// Config.ReferenceKernels — the original per-row scalar loops — so the
// kernel-path speedup is one benchstat comparison away.
func BenchmarkTrainPerFamily(b *testing.B) {
	frame, _, _ := fixture(b)
	train, eval := frame.Split(1, 0.75)

	// "gbdt" is the level-wise (xgboost) variant; the name predates the
	// other two subbenches and BENCH_training.json rows are keyed on it.
	for _, fam := range []struct {
		name    string
		variant gbdt.Variant
	}{{"gbdt", gbdt.LevelWise}, {"lightgbm", gbdt.LeafWise}, {"catboost", gbdt.Oblivious}} {
		b.Run(fam.name, func(b *testing.B) {
			cfg := gbdt.DefaultConfig(fam.variant)
			cfg.Rounds = 60
			cfg.EarlyStoppingRounds = 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := gbdt.Train(cfg, train.X, train.Y, eval.X, eval.Y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	mlpCfg := func(ref bool) mlp.Config {
		cfg := mlp.DefaultConfig()
		cfg.Epochs = 15
		cfg.EarlyStoppingRounds = 0
		cfg.ReferenceKernels = ref
		return cfg
	}
	for _, ref := range []bool{false, true} {
		name := "mlp"
		if ref {
			name = "mlp-reference"
		}
		b.Run(name, func(b *testing.B) {
			cfg := mlpCfg(ref)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mlp.Train(cfg, train.X, train.Y, eval.X, eval.Y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	tabCfg := func(ref bool) tabnet.Config {
		cfg := tabnet.DefaultConfig()
		cfg.Epochs = 10
		cfg.EarlyStoppingRounds = 0
		cfg.ReferenceKernels = ref
		return cfg
	}
	for _, ref := range []bool{false, true} {
		name := "tabnet"
		if ref {
			name = "tabnet-reference"
		}
		b.Run(name, func(b *testing.B) {
			cfg := tabCfg(ref)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tabnet.TrainSeeded(cfg, train.X, train.Y, eval.X, eval.Y, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// copyTree recursively copies the directory tree at src into dst (which
// must exist). go.mod targets go 1.22, so no os.CopyFS.
func copyTree(b *testing.B, src, dst string) {
	b.Helper()
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
		b.Fatal(err)
	}
}

// resetDir restores dir to the snapshot in pristine.
func resetDir(b *testing.B, dir, pristine string) {
	b.Helper()
	if err := os.RemoveAll(dir); err != nil {
		b.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		b.Fatal(err)
	}
	copyTree(b, pristine, dir)
}

// benchFill appends jobs [lo, hi) from the synthetic stream (fillLog's TB
// twin, usable from benchmarks).
func benchFill(b *testing.B, jl *joblog.Store, lo, hi int) {
	b.Helper()
	cfg := logdb.DefaultGenConfig()
	cfg.Jobs = hi
	i := 0
	logdb.GenerateStream(cfg, func(rec *darshan.Record) bool {
		if i >= lo {
			if _, err := jl.Append(rec); err != nil {
				b.Fatalf("append job %d: %v", i, err)
			}
		}
		i++
		return true
	})
	if err := jl.Sync(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRunIncremental measures one full retrain cycle — drain the
// backlog, blend the window, train, validate, commit a generation — on a
// gbdt+mlp ensemble in three modes: cold-reference (scalar training loops,
// no warm start — the pre-kernelization baseline), cold (kernelized), and
// warm (kernelized + seeded from the previous generation on the reduced
// budget). A priming cycle incorporates the first 300 jobs and commits the
// generation the warm mode seeds from; the resulting joblog and model store
// are snapshotted, and every measured iteration restores both (outside the
// timer) before ingesting the same fresh 300-job backlog. Each iteration
// therefore measures the identical steady-state cycle: without the resets,
// gbdt's continued boosting grows the ensemble every generation and the
// window reservoir's full-log scan grows with total ingested history, so
// ns/op would scale with b.N instead of measuring the retrain cost.
func BenchmarkRunIncremental(b *testing.B) {
	for _, mode := range []string{"cold-reference", "cold", "warm"} {
		b.Run(mode, func(b *testing.B) {
			warm := mode == "warm"
			logDir := b.TempDir()
			jl, err := joblog.Open(logDir, joblog.Options{})
			if err != nil {
				b.Fatal(err)
			}
			storeDir := b.TempDir()
			store := OpenStore(storeDir)
			// Explicit mid-scale budgets rather than Fast: Fast also swaps the
			// MLP to a shrunken test topology, and the retrain cost being
			// measured is the production one — the paper's 6-layer net.
			opts := IncrementalOptions{
				MiniBatch: 64,
				Window:    300,
				Train: TrainOptions{
					Models:           []string{NameXGBoost, NameMLP},
					GBDTRounds:       60,
					NNEpochs:         30,
					Seed:             1,
					WarmStart:        warm,
					ReferenceKernels: mode == "cold-reference",
				},
			}
			benchFill(b, jl, 0, 300)
			if _, err := RunIncremental(context.Background(), jl, store, opts); err != nil {
				b.Fatal(err)
			}
			if err := jl.Close(); err != nil {
				b.Fatal(err)
			}
			pristineLog := b.TempDir()
			pristineStore := b.TempDir()
			copyTree(b, logDir, pristineLog)
			copyTree(b, storeDir, pristineStore)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				resetDir(b, logDir, pristineLog)
				resetDir(b, storeDir, pristineStore)
				jl, err := joblog.Open(logDir, joblog.Options{})
				if err != nil {
					b.Fatal(err)
				}
				benchFill(b, jl, 300, 600)
				b.StartTimer()
				_, err = RunIncremental(context.Background(), jl, store, opts)
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				if err := jl.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
