package gbdt

import (
	"fmt"
	"math"

	"github.com/hpc-repro/aiio/internal/linalg"
)

// DefaultWarmDriftTol is the bin-edge drift score above which warm starting
// is rejected. Unlike the neural families there is no frozen standardizer
// to invalidate — boosting fits residuals, so target shift is absorbed by
// the new trees — but when the per-feature quantile structure of the new
// window no longer resembles the one the prior ensemble partitioned, the
// prior trees' split surfaces are stale and continuing from them wastes the
// reduced round budget correcting them.
const DefaultWarmDriftTol = 0.25

// WarmSeed is a validated warm-start decision: the prior model plus the bin
// mapper the validation fit on the new window. Passing it to TrainSeeded
// reuses those bins, so the per-feature quantile sort runs once per retrain
// cycle instead of once per check plus once per fit. A seed is tied to the
// (x, cfg.MaxBins) it was checked against.
type WarmSeed struct {
	prev *Model
	bins *BinMapper
}

// CheckWarmStart reports whether prev can seed a continued boosting run of
// cfg on x/y and returns the reusable seed, or nil plus the reason it was
// rejected: the variant must match (tree shapes and sampling differ per
// variant), the feature schema must match, and the bin edges freshly fit on
// x must not have drifted past the tolerance from the edges prev was trained
// against. y is unused — squared-loss boosting corrects any target shift
// through the residuals — and kept only for signature symmetry with the
// other model families.
func CheckWarmStart(prev *Model, cfg Config, x *linalg.Matrix, y []float64) (*WarmSeed, string) {
	_ = y
	if prev == nil {
		return nil, "no previous model"
	}
	if len(prev.Trees) == 0 {
		return nil, "previous model has no trees"
	}
	if cfg.Variant != prev.Config.Variant {
		return nil, fmt.Sprintf("variant changed: %s vs %s", cfg.Variant, prev.Config.Variant)
	}
	if prev.Bins == nil {
		return nil, "previous model has no bin mapper"
	}
	if x.Cols != len(prev.Bins.Uppers) {
		return nil, fmt.Sprintf("feature schema changed: %d columns vs %d", x.Cols, len(prev.Bins.Uppers))
	}
	maxBins := cfg.MaxBins
	if maxBins <= 0 {
		maxBins = MaxBins
	}
	fresh := FitBins(x, maxBins)
	if d := binDrift(prev.Bins, fresh); d > DefaultWarmDriftTol {
		return nil, fmt.Sprintf("bin-edge drift %.3f exceeds tolerance %.3f", d, DefaultWarmDriftTol)
	}
	return &WarmSeed{prev: prev, bins: fresh}, ""
}

// binDrift scores how far fresh quantile bin edges moved from prev's. Edges
// are quantile estimates, so the two mappers' edge curves are compared as
// quantile functions, sampled at fixed interior positions: per feature, the
// mean relative displacement of matched quantiles (each clamped at 1 so one
// unstable feature cannot saturate the average), then averaged over
// features. 0 means an identical quantile structure. Deliberately NOT
// sensitive to the bin count itself: a growing window refines coarse bins
// into finer ones without moving the underlying quantiles, and that
// refinement is exactly the benign case warm starting should survive.
func binDrift(prev, fresh *BinMapper) float64 {
	const qPoints = 9
	nf := len(prev.Uppers)
	if nf == 0 {
		return 0
	}
	total := 0.0
	for f := 0; f < nf; f++ {
		u1, u2 := prev.Uppers[f], fresh.Uppers[f]
		n1, n2 := len(u1), len(u2)
		switch {
		case n1 == 0 && n2 == 0:
			continue // feature all-zero in both windows
		case n1 == 0 || n2 == 0:
			total += 1 // feature appeared or vanished entirely
			continue
		}
		ed := 0.0
		for k := 1; k <= qPoints; k++ {
			q := float64(k) / float64(qPoints+1)
			a := u1[int(q*float64(n1-1)+0.5)]
			b := u2[int(q*float64(n2-1)+0.5)]
			den := math.Max(math.Max(math.Abs(a), math.Abs(b)), 1e-12)
			ed += math.Min(1, math.Abs(a-b)/den)
		}
		total += ed / qPoints
	}
	return total / float64(nf)
}
