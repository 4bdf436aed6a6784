// Package features implements AIIO's feature engineering (Section 3.1): the
// log10(x+1) transform (Eq. 2) applied to every counter and to the
// performance tag (Eq. 1), conversion of Darshan datasets into model-ready
// matrices, the paper's shuffled 50/50 train/evaluation split, and RMSE
// (Eq. 3).
package features

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/linalg"
)

// Transform applies Eq. 2: x_new = log10(x_original + 1). It maps 0 to 0,
// preserving the sparsity semantics of the Darshan log (missing counters
// stay zero after transformation).
func Transform(v float64) float64 {
	return math.Log10(v + 1)
}

// Sanitize maps a hostile raw counter value into Transform's domain: NaN,
// ±Inf and negative values clamp to 0, the sparsity-neutral element.
// Darshan counters are non-negative and finite by construction, so the
// clamp only fires on corrupt input; it keeps one bad record from injecting
// NaN into a feature matrix or a SHAP evaluation.
func Sanitize(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return 0
	}
	return v
}

// Inverse undoes Transform.
func Inverse(v float64) float64 {
	return math.Pow(10, v) - 1
}

// TransformRecord converts a Darshan record into the 45-dimensional
// transformed feature vector used by every model. Counters are sanitized
// first (NaN/Inf/negative clamp to 0), so a corrupt record degrades to a
// sparser job instead of poisoning the diagnosis.
func TransformRecord(rec *darshan.Record) []float64 {
	out := make([]float64, darshan.NumCounters)
	for i, v := range rec.Counters {
		out[i] = Transform(Sanitize(v))
	}
	return out
}

// Frame is a model-ready dataset: transformed features, transformed
// performance targets, and back-references to the originating records.
type Frame struct {
	// X is n × NumCounters, log10(x+1)-transformed.
	X *linalg.Matrix
	// Y is the transformed performance tag, log10(MiB/s + 1).
	Y []float64
	// Records are the source records, aligned with the rows of X.
	Records []*darshan.Record
}

// Build constructs a Frame from a dataset. Counter values and performance
// tags are sanitized (NaN/Inf/negative clamp to 0) so one corrupt record
// cannot poison the whole matrix; quarantine rejects such records earlier
// when the dataset comes through darshan.ParseDatasetLenient.
func Build(ds *darshan.Dataset) *Frame {
	n := ds.Len()
	f := &Frame{
		X:       linalg.NewMatrix(n, int(darshan.NumCounters)),
		Y:       make([]float64, n),
		Records: make([]*darshan.Record, n),
	}
	for i, rec := range ds.Records {
		row := f.X.Row(i)
		for j, v := range rec.Counters {
			row[j] = Transform(Sanitize(v))
		}
		f.Y[i] = Transform(Sanitize(rec.PerfMiBps))
		f.Records[i] = rec
	}
	return f
}

// Len returns the number of samples.
func (f *Frame) Len() int { return len(f.Y) }

// Validate reports the first non-finite entry of X or Y. Build cannot
// produce one, but a Frame assembled by hand (or mutated by a fault
// injector) can; TrainEnsemble runs this guard before fitting so corrupt
// features fail fast with a location instead of silently skewing a model.
func (f *Frame) Validate() error {
	for i := 0; i < f.X.Rows; i++ {
		for j, v := range f.X.Row(i) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("features: X[%d][%d] is not finite: %v", i, j, v)
			}
		}
	}
	for i, v := range f.Y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("features: Y[%d] is not finite: %v", i, v)
		}
	}
	return nil
}

// Subset returns a new frame containing the given row indices.
func (f *Frame) Subset(idx []int) *Frame {
	out := &Frame{
		X:       linalg.NewMatrix(len(idx), f.X.Cols),
		Y:       make([]float64, len(idx)),
		Records: make([]*darshan.Record, len(idx)),
	}
	for i, j := range idx {
		if j < 0 || j >= f.Len() {
			panic(fmt.Sprintf("features: subset index %d out of range [0,%d)", j, f.Len()))
		}
		copy(out.X.Row(i), f.X.Row(j))
		out.Y[i] = f.Y[j]
		out.Records[i] = f.Records[j]
	}
	return out
}

// Split shuffles the frame with the given seed and splits it into
// train/eval parts, with frac of the rows going to train. The paper shuffles
// and splits 50/50 (frac = 0.5).
func (f *Frame) Split(seed int64, frac float64) (train, eval *Frame) {
	if frac <= 0 || frac >= 1 {
		panic(fmt.Sprintf("features: split fraction %v out of (0,1)", frac))
	}
	idx := rand.New(rand.NewSource(seed)).Perm(f.Len())
	cut := int(float64(f.Len()) * frac)
	return f.Subset(idx[:cut]), f.Subset(idx[cut:])
}
