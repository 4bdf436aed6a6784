package mlp

import (
	"fmt"

	"github.com/hpc-repro/aiio/internal/linalg"
)

// CanWarmStart reports whether prev can seed a TrainSeeded fit of cfg on
// x/y, and if not, why: the architecture must match (same hidden widths),
// and the standardizer's gate (nn.Standardizer.CanSeed) must accept the new
// data — same feature schema, no drift past nn.DefaultWarmDriftTol.
func CanWarmStart(prev *Model, cfg Config, x *linalg.Matrix, y []float64) (bool, string) {
	if prev == nil {
		return false, "no previous model"
	}
	hidden := cfg.Hidden
	if len(hidden) == 0 {
		hidden = DefaultConfig().Hidden
	}
	ph := prev.Config.Hidden
	if len(ph) == 0 {
		ph = DefaultConfig().Hidden
	}
	if len(hidden) != len(ph) {
		return false, fmt.Sprintf("architecture changed: %d hidden layers vs %d", len(hidden), len(ph))
	}
	for i := range hidden {
		if hidden[i] != ph[i] {
			return false, fmt.Sprintf("architecture changed: hidden[%d]=%d vs %d", i, hidden[i], ph[i])
		}
	}
	return prev.standardizer().CanSeed(x, y)
}
