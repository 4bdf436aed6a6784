package core

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/hpc-repro/aiio/internal/darshan"
)

// The diagnosis-engine benchmarks measure the parallel speedup the engine
// is built for: run with
//
//	go test ./internal/core -bench BenchmarkDiagnose -benchtime 3x
//
// and compare the workers=1 row (sequential baseline) against workers=N.
// On a 4+-core machine the single-job diagnosis is expected to be >= 2x
// faster at workers=NumCPU than at workers=1 (five independent model
// explanations plus sharded coalition batches); a regression below that is
// a bug in the engine, not noise, because the work is identical bitwise.

// benchWorkerCounts are the pool sizes benchmarked: sequential baseline,
// a fixed mid point, and everything the machine has.
func benchWorkerCounts() []int {
	counts := []int{1, 2}
	if n := runtime.GOMAXPROCS(0); n > 2 {
		counts = append(counts, n)
	}
	return counts
}

// BenchmarkDiagnoseSingleJob measures one job's full five-model diagnosis
// (the web service's hot path) at increasing pool sizes.
func BenchmarkDiagnoseSingleJob(b *testing.B) {
	_, ens, _ := fixture(b)
	rec := slowJob(b)
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := fastDiagOpts()
			opts.Parallelism = workers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ens.Diagnose(rec, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDiagnoseSingleJobSampled forces the Kernel SHAP sampling
// estimator (the 2m+2048-row WLS batch of Eq. 4) so the PredictBatch
// sharding inside the model backends is what dominates.
func BenchmarkDiagnoseSingleJobSampled(b *testing.B) {
	_, ens, _ := fixture(b)
	rec := slowJob(b)
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := DefaultDiagnoseOptions()
			opts.SHAP.MaxExact = 1 // force the sampled estimator
			opts.Parallelism = workers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ens.Diagnose(rec, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDiagnoseBatch measures throughput over a batch of jobs, the
// DiagnoseBatch path the experiments and the batch endpoint use.
func BenchmarkDiagnoseBatch(b *testing.B) {
	frame, ens, _ := fixture(b)
	n := 16
	if n > frame.Len() {
		n = frame.Len()
	}
	recs := make([]*darshan.Record, n)
	copy(recs, frame.Records[:n])
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := fastDiagOpts()
			opts.Parallelism = workers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ens.DiagnoseBatch(recs, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(recs)), "jobs/op")
		})
	}
}

// BenchmarkPredictBatchPerFamily isolates each model family's flattened
// batch-inference path over the full fixture frame, outside the SHAP loop.
// This is the kernel-level view behind BENCH_inference.json: gbdt rides the
// flat SoA tree walk, mlp and tabnet the packed linalg.Dense kernel (and
// tabnet the fused GLU).
func BenchmarkPredictBatchPerFamily(b *testing.B) {
	frame, ens, _ := fixture(b)
	for _, m := range ens.Models {
		b.Run(m.Name(), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := m.PredictBatch(frame.X)
				if len(out) != frame.X.Rows {
					b.Fatalf("got %d predictions", len(out))
				}
			}
			b.ReportMetric(float64(frame.X.Rows), "rows/op")
		})
	}
}

// BenchmarkPredictSingleRowPerFamily measures the pooled single-row Predict
// used by the web service's point queries (cached scratch, no per-call
// standardization buffers).
func BenchmarkPredictSingleRowPerFamily(b *testing.B) {
	frame, ens, _ := fixture(b)
	row := frame.X.Row(0)
	for _, m := range ens.Models {
		b.Run(m.Name(), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = m.Predict(row)
			}
		})
	}
}
