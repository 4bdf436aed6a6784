package shap_test

import (
	"flag"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/hpc-repro/aiio/internal/core"
	"github.com/hpc-repro/aiio/internal/features"
	"github.com/hpc-repro/aiio/internal/logdb"
	"github.com/hpc-repro/aiio/internal/shap"
)

var fullTable = flag.Bool("table", false,
	"TestKernelErrorTable: use DESIGN.md §8's sample sizes (12 jobs per bucket, 4 seeds, 8 reference runs; about 40 s) and print its table")

// TestKernelErrorTable measures the sampled estimator's error on the models
// it serves: mlp and tabnet trained at default budgets on the benchmark's
// 3 000-job database, explained on held-out jobs bucketed by active-counter
// count. Truth is exact enumeration up to 16 active counters and the mean of
// several 65 536-row estimates above, all in float64. It compares four
// estimators by RMS error per active counter: the one this package shipped
// before coalition plans at its default of 4096 rows, the current one at its
// default (the auto budget, 2m+2048 rows), the same with its coalition
// batches on the network's float32 predictor (what a diagnosis runs,
// DESIGN.md §8), and the current one at 4096 rows. Per model, over the
// buckets together, the current default must not be worse than the old one
// — half the rows may not cost accuracy — and the float32 coalitions must
// stay within 1 % of the float64 default's error.
//
//	go test ./internal/shap -run TestKernelErrorTable -table -v
//
// regenerates the table in DESIGN.md §8. Without -table the same check runs
// in a few seconds on fast-trained models and a quarter of the samples.
func TestKernelErrorTable(t *testing.T) {
	jobsPerBucket, seeds, refs := 3, 2, 2
	if *fullTable {
		jobsPerBucket, seeds, refs = 12, 4, 8
	}
	buckets := []struct{ lo, hi int }{{13, 16}, {17, 20}, {21, 30}}

	frame := features.Build(logdb.Generate(logdb.GenConfig{Jobs: 3000, Seed: 1}))
	opts := core.DefaultTrainOptions()
	opts.Models = []string{core.NameMLP, core.NameTabNet}
	opts.Fast = !*fullTable
	ens, _, err := core.TrainEnsemble(frame, opts)
	if err != nil {
		t.Fatal(err)
	}

	activeCount := func(x []float64) int {
		m := 0
		for _, v := range x {
			if v != 0 {
				m++
			}
		}
		return m
	}
	jobs := make([][][]float64, len(buckets))
	for _, rec := range logdb.Generate(logdb.GenConfig{Jobs: 600, Seed: 2}).Records {
		x := features.TransformRecord(rec)
		m := activeCount(x)
		for b, bk := range buckets {
			if m >= bk.lo && m <= bk.hi && len(jobs[b]) < jobsPerBucket {
				jobs[b] = append(jobs[b], x)
			}
		}
	}

	var table strings.Builder
	table.WriteString("| model | m | before (greedy, unpaired, 4 096) | shap rule + paired, `2m+2048` | same, float32 coalitions | same, 4 096 | RMS \\|φ\\| |\n|---|---|---|---|---|---|---|\n")
	for _, model := range ens.Models {
		f := shap.PredictFunc(model.PredictBatch)
		f32, ok := core.Float32Predictor(model)
		if !ok {
			t.Fatalf("%s has no float32 predictor", model.Name())
		}
		var modelOld, modelAuto, model32, modelN float64
		for b, bk := range buckets {
			if len(jobs[b]) < jobsPerBucket {
				t.Fatalf("only %d held-out jobs with %d–%d active counters", len(jobs[b]), bk.lo, bk.hi)
			}
			var old, auto, auto32, at4096, mag, n float64
			for _, x := range jobs[b] {
				m := activeCount(x)
				truth := make([]float64, len(x))
				if m <= 16 {
					truth = shap.New(f, nil, shap.Config{MaxExact: m}).Explain(x).Phi
				} else {
					for r := 0; r < refs; r++ {
						ref := shap.New(f, nil, shap.Config{NSamples: 1 << 16, Seed: int64(1000 + r)}).Explain(x)
						for j, p := range ref.Phi {
							truth[j] += p / float64(refs)
						}
					}
				}
				sqErr := func(phi []float64) float64 {
					sq := 0.0
					for j, p := range phi {
						sq += (p - truth[j]) * (p - truth[j])
					}
					return sq
				}
				bg := make([]float64, len(x))
				for seed := int64(1); seed <= int64(seeds); seed++ {
					old += sqErr(shap.GreedyUnpairedOracle(f, x, bg, 4096, seed, shap.DefaultConfig().Ridge))
					auto += sqErr(shap.New(f, nil, shap.Config{Seed: seed}).Explain(x).Phi)
					auto32 += sqErr(shap.NewCoalitions(f, f32, nil, shap.Config{Seed: seed}).Explain(x).Phi)
					at4096 += sqErr(shap.New(f, nil, shap.Config{NSamples: 4096, Seed: seed}).Explain(x).Phi)
					n += float64(m)
				}
				for _, p := range truth {
					mag += p * p * float64(seeds)
				}
			}
			fmt.Fprintf(&table, "| %s | %d–%d | %.2e | **%.2e** | %.2e | %.2e | %.2f |\n", model.Name(), bk.lo, bk.hi,
				math.Sqrt(old/n), math.Sqrt(auto/n), math.Sqrt(auto32/n), math.Sqrt(at4096/n), math.Sqrt(mag/n))
			modelOld, modelAuto, model32, modelN = modelOld+old, modelAuto+auto, model32+auto32, modelN+n
		}
		old, auto, auto32 := math.Sqrt(modelOld/modelN), math.Sqrt(modelAuto/modelN), math.Sqrt(model32/modelN)
		fmt.Fprintf(&table, "| %s | all | %.2e | **%.2e** | %.2e | | |\n", model.Name(), old, auto, auto32)
		if auto > old {
			t.Errorf("%s: RMS error %.3e at the auto budget exceeds the old estimator's %.3e at 4096 rows", model.Name(), auto, old)
		}
		if math.Abs(auto32-auto) > 0.01*auto {
			t.Errorf("%s: RMS error %.3e with float32 coalitions is not within 1 %% of float64's %.3e", model.Name(), auto32, auto)
		}
	}
	t.Logf("%d jobs per bucket, %d seeds, %d reference runs\n%s", jobsPerBucket, seeds, refs, table.String())
}
