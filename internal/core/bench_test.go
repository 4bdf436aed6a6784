package core

import (
	"fmt"
	"math"
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

// diagnoseBatch returns one DiagnoseBatch over 16 fixture jobs at the
// given pool size, the unit of BenchmarkDiagnoseBatch.
func diagnoseBatch(tb testing.TB, workers int) (op func() error, jobs int) {
	frame, ens, _ := fixture(tb)
	n := min(16, frame.Len())
	recs := make([]*darshan.Record, n)
	copy(recs, frame.Records[:n])
	opts := fastDiagOpts()
	opts.Parallelism = workers
	return func() error {
		_, err := ens.DiagnoseBatch(recs, opts)
		return err
	}, n
}

// BenchmarkDiagnoseBatch measures throughput over a batch of jobs, the
// DiagnoseBatch path the experiments and the batch endpoint use.
func BenchmarkDiagnoseBatch(b *testing.B) {
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			op, jobs := diagnoseBatch(b, workers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := op(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(jobs), "jobs/op")
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

// TestDiagnoseBatchAllocCeiling is BenchmarkDiagnoseBatch/workers=2's
// allocation ceiling. The flattened path makes a few hundred allocations
// for the 16 jobs (676k before the buffer-reuse work, see
// BENCH_inference.json). A ceiling of 40 000 leaves room for fixture drift
// while catching any reintroduced per-row or per-coalition allocation:
// those come back in multiples of NSamples = 1024 and blow straight past
// it.
func TestDiagnoseBatchAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation ceiling; skipped under -short")
	}
	op, _ := diagnoseBatch(t, 2)
	allocs, _ := quietestAllocs(t, 3, func(allocs, _ uint64) bool { return allocs <= 40000 }, nil, op)
	t.Logf("DiagnoseBatch of 16 jobs at workers=2 makes %d allocations (ceiling 40000)", allocs)
	if allocs > 40000 {
		t.Errorf("DiagnoseBatch of 16 jobs at workers=2 makes %d allocations, want ≤ 40000", allocs)
	}
}

// quietestAllocs runs op up to the given number of times, each after
// prepare (nil for none), and returns the fewest heap allocations and bytes
// one run of op made. The first run pays for warm-up (plan caches, pools),
// and under -race sync.Pool drops some of what is put back, which is the
// detector's cost, not the code's: the quietest run is the code's own. It
// stops at the first run that within accepts, so a ceiling that holds costs
// one run and only a run over it is repeated.
func quietestAllocs(tb testing.TB, runs int, within func(allocs, bytes uint64) bool, prepare func(), op func() error) (allocs, bytes uint64) {
	tb.Helper()
	allocs, bytes = math.MaxUint64, math.MaxUint64
	var before, after runtime.MemStats
	for i := 0; i < runs && !within(allocs, bytes); i++ {
		if prepare != nil {
			prepare()
		}
		runtime.ReadMemStats(&before)
		err := op()
		runtime.ReadMemStats(&after)
		if err != nil {
			tb.Fatal(err)
		}
		allocs = min(allocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return allocs, bytes
}
