package mlp

import (
	"testing"

	"github.com/hpc-repro/aiio/internal/features"
	"github.com/hpc-repro/aiio/internal/logdb"
)

// BenchmarkTrainPerFamily pits the blocked training path against the
// scalar reference path (reference_test.go) on the core package's fixture
// frame (900 simulated jobs of seed 11, split 75/25 with seed 1): the
// paper's 6-layer net, early stopping off, the epoch budget cut so an
// iteration stays CI-sized. Per-epoch cost is what the kernels change, so
// the ratio is budget-independent. The mlp subbench is the same fit as
// core's BenchmarkTrainPerFamily/mlp.
func BenchmarkTrainPerFamily(b *testing.B) {
	frame := features.Build(logdb.Generate(logdb.GenConfig{Jobs: 900, Seed: 11}))
	train, eval := frame.Split(1, 0.75)
	cfg := DefaultConfig()
	cfg.Epochs = 15
	cfg.EarlyStoppingRounds = 0
	for _, path := range []struct {
		name string
		step stepper
	}{{"mlp", (*Model).batchStep}, {"mlp-reference", referenceStep}} {
		b.Run(path.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := fit(cfg, train.X, train.Y, eval.X, eval.Y, nil, path.step); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
