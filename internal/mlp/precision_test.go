package mlp

import (
	"math"
	"testing"

	"github.com/hpc-repro/aiio/internal/linalg"
)

// TestPredictBatch32 pins the float32 path against the float64 one on the
// default architecture: every row within 1e-4 (log10 units) of
// PredictBatch, and every value bitwise independent of the batch it is
// in, whether the batch is sharded or not, on the trained model and its
// decoded copy alike.
func TestPredictBatch32(t *testing.T) {
	m, decoded := warmRestored(t)
	x, _ := synth(2179, 45, 79)
	want := m.PredictBatch32(x)
	worst := 0.0
	for i, p := range m.PredictBatch(x) {
		worst = math.Max(worst, math.Abs(want[i]-p))
	}
	t.Logf("max |float32 - float64| over %d rows: %.3g", x.Rows, worst)
	if worst > 1e-4 {
		t.Fatalf("float32 path off by %.3g, want <= 1e-4", worst)
	}
	for _, model := range []*Model{m, decoded} {
		for _, n := range batchSizes {
			for _, lo := range []int{0, x.Rows - n} {
				sub := &linalg.Matrix{Rows: n, Cols: x.Cols, Data: x.Data[lo*x.Cols : (lo+n)*x.Cols]}
				for i, v := range model.PredictBatch32(sub) {
					if math.Float64bits(v) != math.Float64bits(want[lo+i]) {
						t.Fatalf("batch of %d at row %d: row %d = %v, in the full batch %v", n, lo, i, v, want[lo+i])
					}
				}
			}
		}
	}
}

// BenchmarkPredictBatchPrecision compares the float64 and float32 paths of
// the default architecture on one Kernel SHAP coalition batch (2179 rows,
// the auto budget at 45 active counters).
func BenchmarkPredictBatchPrecision(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Epochs = 2
	x, y := synth(500, 45, 71)
	m, err := Train(cfg, x, y, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	batch, _ := synth(2179, 45, 79)
	for _, p := range []struct {
		name string
		f    func(*linalg.Matrix) []float64
	}{{"float64", m.PredictBatch}, {"float32", m.PredictBatch32}} {
		b.Run(p.name, func(b *testing.B) {
			p.f(batch)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.f(batch)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch.Rows), "ns/row")
		})
	}
}
