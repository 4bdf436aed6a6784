package drift_test

import (
	"math"
	"strings"
	"testing"

	"github.com/hpc-repro/aiio/internal/core"
	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/drift"
	"github.com/hpc-repro/aiio/internal/faults"
	"github.com/hpc-repro/aiio/internal/features"
)

// flatJobs builds n records with identical performance, so a constant
// model predicting the transformed tag scores RMSE 0 and every deviation
// from it is exactly measurable.
func flatJobs(n int, perf float64) []*darshan.Record {
	recs := make([]*darshan.Record, n)
	for i := range recs {
		recs[i] = &darshan.Record{JobID: int64(i + 1), App: "canary", Year: 2020, PerfMiBps: perf}
	}
	return recs
}

func constEnsemble(v float64) *core.Ensemble {
	return &core.Ensemble{Models: []core.Model{&faults.ConstantModel{Value: v}}}
}

func TestGateWaivedWithoutIncumbent(t *testing.T) {
	gate := drift.Gate(drift.GateConfig{}, func() *core.Ensemble { return nil })
	v, err := gate(constEnsemble(1), flatJobs(100, 50))
	if err != nil || !v.Passed {
		t.Fatalf("first-generation gate should waive: v=%+v err=%v", v, err)
	}
	if !strings.Contains(v.Reason, "waived") {
		t.Fatalf("waiver reason missing: %q", v.Reason)
	}
}

func TestGateWaivedOnSmallHoldout(t *testing.T) {
	serving := constEnsemble(features.Transform(50))
	gate := drift.Gate(drift.GateConfig{}, func() *core.Ensemble { return serving })
	// A terrible candidate still passes on 5 held-out jobs: too few to judge.
	v, err := gate(constEnsemble(99), flatJobs(5, 50))
	if err != nil || !v.Passed {
		t.Fatalf("small-holdout gate should waive: v=%+v err=%v", v, err)
	}
	if v.HoldoutJobs != 5 {
		t.Fatalf("HoldoutJobs = %d, want 5", v.HoldoutJobs)
	}
}

func TestGateBlocksWorseCandidate(t *testing.T) {
	y := features.Transform(50)
	serving := constEnsemble(y) // RMSE 0 on the holdout
	gate := drift.Gate(drift.GateConfig{}, func() *core.Ensemble { return serving })
	v, err := gate(constEnsemble(y+3), flatJobs(100, 50))
	if err == nil || v.Passed {
		t.Fatalf("gate admitted a candidate 3.0 RMSE worse than a perfect incumbent: %+v", v)
	}
	if math.Abs(v.CandidateRMSE-3) > 1e-9 || v.ServingRMSE != 0 {
		t.Fatalf("verdict RMSEs wrong: cand %.4f serving %.4f", v.CandidateRMSE, v.ServingRMSE)
	}
}

func TestGateAdmitsEquivalentCandidate(t *testing.T) {
	y := features.Transform(50)
	serving := constEnsemble(y + 0.5) // incumbent is off by 0.5
	gate := drift.Gate(drift.GateConfig{}, func() *core.Ensemble { return serving })
	// Candidate off by 0.52: within the 10% tolerance of 0.5.
	v, err := gate(constEnsemble(y+0.52), flatJobs(100, 50))
	if err != nil || !v.Passed {
		t.Fatalf("gate blocked a candidate within tolerance: v=%+v err=%v", v, err)
	}
	// Candidate off by 0.6: 20% worse, over tolerance.
	v, err = gate(constEnsemble(y+0.6), flatJobs(100, 50))
	if err == nil || v.Passed {
		t.Fatalf("gate admitted a candidate 20%% worse: %+v", v)
	}
}

func TestGateBlocksNonFiniteCandidate(t *testing.T) {
	serving := constEnsemble(features.Transform(50))
	gate := drift.Gate(drift.GateConfig{}, func() *core.Ensemble { return serving })
	v, err := gate(constEnsemble(math.NaN()), flatJobs(100, 50))
	if err == nil || v.Passed {
		t.Fatalf("gate admitted a NaN candidate: %+v", v)
	}
	v, err = gate(&core.Ensemble{Models: []core.Model{&faults.FaultyModel{
		Model: &faults.ConstantModel{Value: 1}, PanicOn: true,
	}}}, flatJobs(100, 50))
	if err == nil || v.Passed {
		t.Fatalf("gate admitted a panicking candidate: %+v", v)
	}
}

func TestGateAdmitsOverBrokenIncumbent(t *testing.T) {
	// A serving ensemble that cannot score the holdout (NaN) can only be
	// improved on: any finite candidate passes.
	serving := constEnsemble(math.NaN())
	gate := drift.Gate(drift.GateConfig{}, func() *core.Ensemble { return serving })
	v, err := gate(constEnsemble(features.Transform(50)+2), flatJobs(100, 50))
	if err != nil || !v.Passed {
		t.Fatalf("gate blocked the only finite option: v=%+v err=%v", v, err)
	}
}

func TestEvalRMSEEdgeCases(t *testing.T) {
	if r := drift.EvalRMSE(nil, flatJobs(5, 50)); !math.IsInf(r, 1) {
		t.Fatalf("nil ensemble RMSE = %v, want +Inf", r)
	}
	if r := drift.EvalRMSE(constEnsemble(1), nil); !math.IsInf(r, 1) {
		t.Fatalf("empty holdout RMSE = %v, want +Inf", r)
	}
	y := features.Transform(50)
	if r := drift.EvalRMSE(constEnsemble(y), flatJobs(10, 50)); r != 0 {
		t.Fatalf("perfect constant RMSE = %v, want 0", r)
	}
}
