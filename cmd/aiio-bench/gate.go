package main

import (
	"encoding/json"
	"fmt"
	"math"

	"github.com/hpc-repro/aiio/internal/core"
	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/webservice"
)

// The correctness gate. A benchmark number only counts if the answers it
// timed were right: sampled HTTP diagnoses must equal the in-process
// Diagnose on the generation the server ended the run serving, ingest must
// account for every job, and the SHAP contracts must hold on the answers.

// factorTolerance is how far one factor of an HTTP diagnosis may sit from
// the in-process one. The engine is deterministic; the slack only covers
// the JSON round trip.
const factorTolerance = 1e-9

// attributionTolerance bounds the mean SHAP additivity residual (log10
// units) of the served generation on the held-out set.
const attributionTolerance = 1e-6

// checkDiagnosis compares one HTTP diagnosis with the in-process diagnosis
// of the same job.
func checkDiagnosis(got *webservice.DiagnosisResponse, want *core.Diagnosis) error {
	rec := want.Record
	if got.App != rec.App || got.ActualMiBps != want.ActualMiBps {
		return fmt.Errorf("reply is for job (%s, %v MiB/s), want (%s, %v MiB/s)",
			got.App, got.ActualMiBps, rec.App, want.ActualMiBps)
	}
	if got.Degraded {
		return fmt.Errorf("job %d: degraded diagnosis, skipped models %v", rec.JobID, got.SkippedModels)
	}
	if !got.Robust {
		return fmt.Errorf("job %d: reply is not robust (a zero counter carries a contribution)", rec.JobID)
	}
	wantFactors := want.TopFactors(0)
	if len(got.Factors) != len(wantFactors) {
		return fmt.Errorf("job %d: %d factors, want %d", rec.JobID, len(got.Factors), len(wantFactors))
	}
	byName := make(map[string]webservice.FactorJSON, len(got.Factors))
	for _, f := range got.Factors {
		byName[f.Counter] = f
	}
	for _, w := range wantFactors {
		g, ok := byName[w.Counter.String()]
		if !ok {
			return fmt.Errorf("job %d: factor %s missing from the reply", rec.JobID, w.Counter)
		}
		if d := math.Abs(g.Contribution - w.Contribution); !(d <= factorTolerance) {
			return fmt.Errorf("job %d: factor %s is %v over HTTP, %v in process (|Δ| %.3g > %g)",
				rec.JobID, w.Counter, g.Contribution, w.Contribution, d, factorTolerance)
		}
		if g.Value == 0 {
			return fmt.Errorf("job %d: factor %s has a contribution but a zero counter", rec.JobID, w.Counter)
		}
	}
	return nil
}

// checkReply verifies the reply to one diagnose or batch request against
// the in-process diagnoses of the jobs it carried, in order.
func checkReply(path string, reply []byte, want []*core.Diagnosis) error {
	var got []*webservice.DiagnosisResponse
	if path == pathBatch {
		if err := json.Unmarshal(reply, &got); err != nil {
			return fmt.Errorf("decode batch reply: %w", err)
		}
	} else {
		one := &webservice.DiagnosisResponse{}
		if err := json.Unmarshal(reply, one); err != nil {
			return fmt.Errorf("decode reply: %w", err)
		}
		got = []*webservice.DiagnosisResponse{one}
	}
	if len(got) != len(want) {
		return fmt.Errorf("reply holds %d diagnoses, request held %d jobs", len(got), len(want))
	}
	for i := range want {
		if err := checkDiagnosis(got[i], want[i]); err != nil {
			return fmt.Errorf("position %d: %w", i, err)
		}
	}
	return nil
}

// checkIngest verifies one ingest acknowledgement: every job sent was
// durably accepted, none deduplicated, quarantined or rejected.
func checkIngest(reply []byte, sent int) error {
	var got webservice.IngestResponse
	if err := json.Unmarshal(reply, &got); err != nil {
		return fmt.Errorf("decode ingest reply: %w", err)
	}
	if got.Accepted != sent || got.Duplicates != 0 || got.Quarantined != 0 || got.ParseRejected != 0 {
		return fmt.Errorf("ingest of %d jobs: accepted %d, duplicates %d, quarantined %d, parse-rejected %d",
			sent, got.Accepted, got.Duplicates, got.Quarantined, got.ParseRejected)
	}
	return nil
}

// quality is the served generation's error on the fixed held-out set.
type quality struct {
	// evalRMSE is the RMSE (log10 MiB/s) of the Average-method prediction
	// against the measured tag.
	evalRMSE float64
	// attributionErr is the mean |base + Σcontributions − prediction| of the
	// Average-method diagnosis: SHAP local accuracy.
	attributionErr float64
}

func evalQuality(ens *core.Ensemble, held []*darshan.Record) (quality, error) {
	diags, err := ens.DiagnoseBatch(held, core.DefaultDiagnoseOptions())
	if err != nil {
		return quality{}, err
	}
	var sq, add float64
	for _, d := range diags {
		if !d.IsRobust() {
			return quality{}, fmt.Errorf("held-out job %d: diagnosis is not robust", d.Record.JobID)
		}
		e := d.Average.Predicted - d.Actual
		sq += e * e
		add += d.Average.AdditivityErr
	}
	n := float64(len(diags))
	return quality{evalRMSE: math.Sqrt(sq / n), attributionErr: add / n}, nil
}
