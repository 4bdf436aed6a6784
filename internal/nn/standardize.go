// Package nn is the training scaffold the two networks share (internal/mlp
// and internal/tabnet): the input/target standardizer and its warm-start
// drift gate, the epoch loop with Adam, eval-based early stopping and the
// warm-seed baseline, the best-epoch snapshot over an ordered tensor list,
// and gob persistence. A family keeps only its architecture — layers,
// forward and backward kernels, and the order of its tensors — and hands the
// loop its mini-batch step and eval forward as function values, so the loop
// costs one indirect call per mini-batch and per evaluation, never one per
// row, and inference never goes through it.
package nn

import (
	"fmt"
	"math"
	"sync"

	"github.com/hpc-repro/aiio/internal/linalg"
)

// Standardizer is a network's input and target scaling: per-column Mean and
// Std, Std clamped to 1 on the ConstantCols whose training variance was zero
// (a no-op transform instead of a divide-by-zero NaN), and the target's YMean
// and YStd. Models keep these five as top-level exported fields of their own
// and convert to and from this value: gob names fields, so a nested
// Standardizer would decode older artefacts with a zero standardizer and no
// error.
type Standardizer struct {
	Mean, Std    []float64
	ConstantCols []int
	YMean, YStd  float64
}

// FitStandardizer fits the scaling of training inputs x and targets y.
func FitStandardizer(x *linalg.Matrix, y []float64) Standardizer {
	s := Standardizer{Mean: make([]float64, x.Cols), Std: make([]float64, x.Cols)}
	n := float64(x.Rows)
	for i := 0; i < x.Rows; i++ {
		for j, v := range x.Row(i) {
			s.Mean[j] += v
		}
	}
	for j := range s.Mean {
		s.Mean[j] /= n
	}
	for i := 0; i < x.Rows; i++ {
		for j, v := range x.Row(i) {
			d := v - s.Mean[j]
			s.Std[j] += d * d
		}
	}
	for j := range s.Std {
		s.Std[j] = math.Sqrt(s.Std[j] / n)
		if s.Std[j] < 1e-12 {
			s.Std[j] = 1
			s.ConstantCols = append(s.ConstantCols, j)
		}
	}
	s.YMean = linalg.Mean(y)
	v := 0.0
	for _, t := range y {
		d := t - s.YMean
		v += d * d
	}
	s.YStd = math.Sqrt(v / n)
	if s.YStd < 1e-12 {
		s.YStd = 1
	}
	return s
}

// Clone deep-copies s. A warm start adopts a clone: the previous generation
// may still be serving predictions from the original.
func (s Standardizer) Clone() Standardizer {
	s.Mean = append([]float64(nil), s.Mean...)
	s.Std = append([]float64(nil), s.Std...)
	s.ConstantCols = append([]int(nil), s.ConstantCols...)
	return s
}

// Targets returns y in standardized target units.
func (s Standardizer) Targets(y []float64) []float64 {
	ys := make([]float64, len(y))
	for i, v := range y {
		ys[i] = (v - s.YMean) / s.YStd
	}
	return ys
}

// DefaultWarmDriftTol is the input-drift score above which warm starting is
// rejected: an average standardized mean shift of one sigma across features
// (or on the target) means the frozen standardizer — and every layer trained
// against it — no longer describes the data.
const DefaultWarmDriftTol = 1.0

// CanSeed is the data half of a network's warm-start gate: a model scaled by
// s can seed a fit on x/y only when the feature schema matches (x has one
// column per standardizer column) and the data has not drifted past
// DefaultWarmDriftTol. The architecture half is the family's. The reason is
// empty when the seed is accepted.
func (s Standardizer) CanSeed(x *linalg.Matrix, y []float64) (bool, string) {
	if x.Cols != len(s.Mean) {
		return false, fmt.Sprintf("feature schema changed: %d columns vs %d", x.Cols, len(s.Mean))
	}
	if d := s.drift(x, y); d > DefaultWarmDriftTol {
		return false, fmt.Sprintf("input drift %.3f exceeds tolerance %.3f", d, DefaultWarmDriftTol)
	}
	return true, ""
}

// drift scores how far x/y moved from the distribution s was fit on: the
// mean over features of |mean_new - mean_prev| / std_prev (each clamped at
// 10 sigma so one wild counter cannot saturate the average alone), maxed
// with the same shift for the target. 0 means unchanged.
func (s Standardizer) drift(x *linalg.Matrix, y []float64) float64 {
	if x.Rows == 0 || x.Cols == 0 {
		return 0
	}
	n := float64(x.Rows)
	colSum := make([]float64, x.Cols)
	for i := 0; i < x.Rows; i++ {
		for j, v := range x.Row(i) {
			colSum[j] += v
		}
	}
	fdrift := 0.0
	for j, sum := range colSum {
		std := s.Std[j]
		if !(std > 1e-12) || math.IsInf(std, 1) {
			std = 1
		}
		fdrift += math.Min(math.Abs(sum/n-s.Mean[j])/std, 10)
	}
	fdrift /= float64(x.Cols)
	ystd := s.YStd
	if !(ystd > 1e-12) {
		ystd = 1
	}
	ydrift := math.Min(math.Abs(linalg.Mean(y)-s.YMean)/ystd, 10)
	return math.Max(fdrift, ydrift)
}

// Scaler standardizes raw inputs against a model's Mean and Std through a
// guarded reciprocal built once on first use: Std entries that are zero,
// negative or non-finite (artefacts that predate the fit-time clamp) scale
// by 1, so standardization can never manufacture a NaN. Its fields are
// unexported, so gob skips a model's Scaler and the zero value is ready.
type Scaler struct {
	once       sync.Once
	inv, shift []float64
}

// coeffs returns the cached reciprocal of std and the matching shift
// -mean/std, building them on the first call.
func (c *Scaler) coeffs(mean, std []float64) (inv, shift []float64) {
	c.once.Do(func() {
		c.inv = make([]float64, len(std))
		c.shift = make([]float64, len(std))
		for j, s := range std {
			if s > 0 && !math.IsInf(s, 1) {
				c.inv[j] = 1 / s
			} else {
				c.inv[j] = 1
			}
			c.shift[j] = -mean[j] * c.inv[j]
		}
	})
	return c.inv, c.shift
}

// Into writes the standardized rows of x into dst, resized as needed, and
// returns it.
func (c *Scaler) Into(dst, x *linalg.Matrix, mean, std []float64) *linalg.Matrix {
	out := Reshape(dst, x.Rows, x.Cols)
	Standardize(c, out.Data, x, mean, std)
	return out
}

// Standardize writes the standardized rows of x, row-major, into dst
// (reallocated when too small) in element type T and returns it:
// (v-mean)/std computed as v*inv + shift, one fused multiply-add per
// element in float64, rounded once to T. It is how the networks' float32
// path reads float64 inputs.
func Standardize[T linalg.Float](c *Scaler, dst []T, x *linalg.Matrix, mean, std []float64) []T {
	inv, shift := c.coeffs(mean, std)
	n := x.Rows * x.Cols
	if cap(dst) < n {
		dst = make([]T, n)
	}
	dst = dst[:n]
	for i := 0; i < x.Rows; i++ {
		linalg.ScaleShiftInto(dst[i*x.Cols:(i+1)*x.Cols], x.Row(i), inv, shift)
	}
	return dst
}

// Reshape resizes m to rows x cols, reusing its backing array when large
// enough, and returns it. Contents are unspecified after the call.
func Reshape(m *linalg.Matrix, rows, cols int) *linalg.Matrix {
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]float64, n)
	}
	m.Data = m.Data[:n]
	m.Rows, m.Cols = rows, cols
	return m
}
