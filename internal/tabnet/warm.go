package tabnet

import (
	"fmt"

	"github.com/hpc-repro/aiio/internal/linalg"
)

// CanWarmStart reports whether prev can seed a TrainSeeded fit of cfg on
// x/y, and if not, why: the architecture (steps and widths) must match, and
// the standardizer's gate (nn.Standardizer.CanSeed) must accept the new
// data — same feature schema, no drift past nn.DefaultWarmDriftTol.
func CanWarmStart(prev *Model, cfg Config, x *linalg.Matrix, y []float64) (bool, string) {
	if prev == nil {
		return false, "no previous model"
	}
	def := DefaultConfig()
	want, have := cfg, prev.Config
	if want.Steps <= 0 {
		want.Steps = def.Steps
	}
	if want.DecisionDim <= 0 {
		want.DecisionDim = def.DecisionDim
	}
	if want.AttentionDim <= 0 {
		want.AttentionDim = def.AttentionDim
	}
	if want.Steps != have.Steps {
		return false, fmt.Sprintf("architecture changed: %d steps vs %d", want.Steps, have.Steps)
	}
	if want.DecisionDim != have.DecisionDim || want.AttentionDim != have.AttentionDim {
		return false, fmt.Sprintf("architecture changed: dims %d/%d vs %d/%d",
			want.DecisionDim, want.AttentionDim, have.DecisionDim, have.AttentionDim)
	}
	return prev.standardizer().CanSeed(x, y)
}
