package drift

import (
	"fmt"
	"math"
	"time"

	"github.com/hpc-repro/aiio/internal/core"
	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/features"
)

// The canary gate: a freshly retrained ensemble is never promoted blindly.
// Before RunIncremental commits a generation, the gate shadow-evaluates
// the candidate against the currently serving ensemble on a held-out slice
// of recent labeled jobs (records the candidate did NOT train on — see
// IncrementalOptions.Holdout) and admits it only if it beats, or is within
// Tolerance of, the serving error. A retrain poisoned by bad labels fits
// the poison and fails the clean holdout; the gate blocks it and the old
// generation keeps serving.

// GateConfig tunes the canary comparison.
type GateConfig struct {
	// Tolerance is how much worse (fractionally) the candidate's holdout
	// RMSE may be than the serving ensemble's and still promote (default
	// 0.10: retrains on fresh-but-similar data jitter a few percent, and
	// blocking those forever would freeze the fleet on a stale model).
	Tolerance float64
}

// minHoldout is the smallest holdout the verdict is trusted on. A smaller
// slice waives the gate — availability over strictness; the post-promotion
// watch still guards the promotion.
const minHoldout = 20

func (c GateConfig) withDefaults() GateConfig {
	if c.Tolerance == 0 {
		c.Tolerance = 0.10
	}
	return c
}

// Gate builds a RunIncremental gate closure. serving returns the ensemble
// currently answering traffic (nil when nothing serves yet — the first
// generation has no incumbent to beat and passes trivially).
func Gate(cfg GateConfig, serving func() *core.Ensemble) func(cand *core.Ensemble, holdout []*darshan.Record) (*core.CanaryRecord, error) {
	cfg = cfg.withDefaults()
	return func(cand *core.Ensemble, holdout []*darshan.Record) (*core.CanaryRecord, error) {
		v := &core.CanaryRecord{
			Tolerance:     cfg.Tolerance,
			HoldoutJobs:   len(holdout),
			EvaluatedUnix: time.Now().Unix(),
		}
		inc := serving()
		if inc == nil || len(inc.Models) == 0 {
			v.Passed = true
			v.Reason = "no serving ensemble to beat; gate waived"
			return v, nil
		}
		if len(holdout) < minHoldout {
			v.Passed = true
			v.Reason = fmt.Sprintf("holdout %d below minimum %d; gate waived (post-promotion watch still guards)",
				len(holdout), minHoldout)
			return v, nil
		}
		v.CandidateRMSE = EvalRMSE(cand, holdout)
		v.ServingRMSE = EvalRMSE(inc, holdout)
		if math.IsInf(v.CandidateRMSE, 1) {
			v.Reason = "candidate produced non-finite holdout predictions"
			return v, fmt.Errorf("drift: canary: %s", v.Reason)
		}
		// A serving ensemble that itself fails the holdout can only be
		// improved on; any finite candidate passes.
		if math.IsInf(v.ServingRMSE, 1) || v.CandidateRMSE <= v.ServingRMSE*(1+cfg.Tolerance) {
			v.Passed = true
			v.Reason = fmt.Sprintf("candidate RMSE %.4f vs serving %.4f on %d held-out jobs (tolerance %.0f%%)",
				v.CandidateRMSE, v.ServingRMSE, len(holdout), cfg.Tolerance*100)
			return v, nil
		}
		v.Reason = fmt.Sprintf("candidate RMSE %.4f exceeds serving %.4f by more than %.0f%% on %d held-out jobs",
			v.CandidateRMSE, v.ServingRMSE, cfg.Tolerance*100, len(holdout))
		return v, fmt.Errorf("drift: canary: %s", v.Reason)
	}
}

// Sidecar is a core.IncrementalOptions.Reference: the drift reference an
// admitted generation is committed with, sketched from its training set and
// carrying the gate's held-out candidate RMSE as the baseline the
// post-promotion watch compares serving error against.
func Sidecar(training []*darshan.Record, verdict *core.CanaryRecord) []byte {
	ref := BuildReference(training)
	if verdict != nil {
		ref.BaselineRMSE = verdict.CandidateRMSE
	}
	data, _ := ref.Marshal()
	return data
}

// EvalRMSE measures an ensemble's mean-prediction RMSE over recs in the
// transformed domain (the Average Method merge, Eq. 7, without the SHAP
// work). A model that panics or returns a non-finite value poisons the
// whole evaluation to +Inf — exactly the candidate the gate must refuse.
func EvalRMSE(e *core.Ensemble, recs []*darshan.Record) (rmse float64) {
	defer func() {
		if r := recover(); r != nil {
			rmse = math.Inf(1)
		}
	}()
	if e == nil || len(e.Models) == 0 || len(recs) == 0 {
		return math.Inf(1)
	}
	frame := features.Build(&darshan.Dataset{Records: recs})
	mean := make([]float64, frame.Len())
	for _, m := range e.Models {
		pred := m.PredictBatch(frame.X)
		for i, p := range pred {
			if math.IsNaN(p) || math.IsInf(p, 0) {
				return math.Inf(1)
			}
			mean[i] += p
		}
	}
	var sum float64
	inv := 1 / float64(len(e.Models))
	for i, p := range mean {
		d := p*inv - frame.Y[i]
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(recs)))
}
