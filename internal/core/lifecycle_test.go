package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/joblog"
)

// Tests for the self-healing lifecycle's durable half: canary verdicts and
// drift references committed with a generation, the Restore rollback
// path, and the gated RunIncremental (blocked candidates leave nothing
// durable behind; admitted ones carry their provenance).

func TestSaveDetailedPersistsCanaryAndReference(t *testing.T) {
	_, ens, _ := fixture(t)
	st := OpenStore(t.TempDir())
	verdict := &CanaryRecord{
		Passed: true, CandidateRMSE: 0.41, ServingRMSE: 0.40,
		Tolerance: 0.10, HoldoutJobs: 33, Reason: "test verdict", EvaluatedUnix: 123,
	}
	refBytes := []byte(`{"jobs":7}`)
	gen, err := st.SaveDetailed(ens, &GenerationExtra{Canary: verdict, Reference: refBytes})
	if err != nil {
		t.Fatal(err)
	}
	man, err := st.Manifest(gen)
	if err != nil {
		t.Fatal(err)
	}
	if man.Canary == nil || *man.Canary != *verdict {
		t.Fatalf("manifest canary = %+v, want %+v", man.Canary, verdict)
	}
	got, err := st.Reference(gen)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(refBytes) {
		t.Fatalf("reference sidecar = %q, want %q", got, refBytes)
	}
	// The generation must still load through the verifying path: the
	// sidecar is outside the checksummed model set but must not break it.
	if _, rep, err := st.Load(); err != nil || rep.Generation != gen {
		t.Fatalf("load after SaveDetailed: rep=%+v err=%v", rep, err)
	}

	// A plain Save has neither verdict nor reference.
	gen2, err := st.Save(ens)
	if err != nil {
		t.Fatal(err)
	}
	man2, err := st.Manifest(gen2)
	if err != nil {
		t.Fatal(err)
	}
	if man2.Canary != nil || man2.ReferenceFile != "" {
		t.Fatalf("plain Save leaked lifecycle fields: %+v", man2)
	}
	if got, err := st.Reference(gen2); err != nil || got != nil {
		t.Fatalf("plain Save reference = %q, %v; want nil, nil", got, err)
	}
}

func TestCanaryVerdictOutsideFingerprint(t *testing.T) {
	// The fingerprint is the content identity of the model set; the canary
	// verdict is provenance about the promotion, not the models. Two
	// generations of the same ensemble must fingerprint identically whether
	// or not a verdict rode along — otherwise replication would see every
	// auto-retrain as a different model set than the same bytes uploaded.
	_, ens, _ := fixture(t)
	st := OpenStore(t.TempDir())
	g1, err := st.SaveDetailed(ens, nil)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := st.SaveDetailed(ens, &GenerationExtra{
		Canary:    &CanaryRecord{Passed: true, Reason: "x"},
		Reference: []byte(`{"jobs":1}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	m1, _ := st.Manifest(g1)
	m2, _ := st.Manifest(g2)
	if m1.Fingerprint() != m2.Fingerprint() {
		t.Fatalf("verdict/reference changed the fingerprint: %s vs %s", m1.Fingerprint(), m2.Fingerprint())
	}
}

// TestRestoreCommitsForward: a rollback commits the restored generation's
// models, canary verdict and drift reference again as the newest
// generation, and a source that fails verification commits nothing.
func TestRestoreCommitsForward(t *testing.T) {
	_, ens, _ := fixture(t)
	st := OpenStore(t.TempDir())
	verdict := &CanaryRecord{Passed: true, HoldoutJobs: 21, Reason: "restored verdict"}
	refBytes := []byte(`{"jobs":5}`)
	if _, err := st.SaveDetailed(ens, &GenerationExtra{Canary: verdict, Reference: refBytes}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save(&Ensemble{Models: ens.Models[:1]}); err != nil {
		t.Fatal(err)
	}
	gen, err := st.Restore(1)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 3 {
		t.Fatalf("Restore(1) committed generation %d, want 3", gen)
	}
	src, err := st.Manifest(1)
	if err != nil {
		t.Fatal(err)
	}
	man, err := st.Manifest(gen)
	if err != nil {
		t.Fatal(err)
	}
	if man.Fingerprint() != src.Fingerprint() {
		t.Fatalf("restored fingerprint %.12s, source %.12s", man.Fingerprint(), src.Fingerprint())
	}
	if man.Canary == nil || *man.Canary != *verdict {
		t.Fatalf("restored canary = %+v, want %+v", man.Canary, verdict)
	}
	if ref, err := st.Reference(gen); err != nil || string(ref) != string(refBytes) {
		t.Fatalf("restored reference = %q, %v; want %q", ref, err, refBytes)
	}
	// A fresh store handle (a restart) serves the restored commit.
	_, rep, err := OpenStore(st.dir).Load()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Generation != gen || rep.FellBack || rep.Fingerprint != src.Fingerprint() {
		t.Fatalf("restart after Restore serves %+v, want generation %d with the source's fingerprint", rep, gen)
	}

	if _, err := st.Restore(99); err == nil {
		t.Fatal("Restore accepted an uncommitted generation")
	}
	before, err := st.Generations()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(st.dir, "generations", "000001", src.Models[0].File)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Restore(1); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("Restore of a rotted generation: err = %v, want a checksum mismatch", err)
	}
	after, err := st.Generations()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(after, before) {
		t.Fatalf("failed Restore changed the generations: %v -> %v", before, after)
	}
}

// blockingGate always refuses the candidate.
func blockingGate(cand *Ensemble, holdout []*darshan.Record) (*CanaryRecord, error) {
	return &CanaryRecord{Passed: false, HoldoutJobs: len(holdout), Reason: "injected block"},
		fmt.Errorf("injected block")
}

func TestRunIncrementalCanaryBlockLeavesNothingDurable(t *testing.T) {
	jl, err := joblog.Open(t.TempDir(), joblog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	store := OpenStore(t.TempDir())
	fillLog(t, jl, 0, 60)

	opts := fastIncOpts()
	opts.Holdout = 10
	opts.Gate = blockingGate
	_, rerr := RunIncremental(context.Background(), jl, store, opts)
	var blocked *CanaryBlockedError
	if !errors.As(rerr, &blocked) {
		t.Fatalf("err = %v, want *CanaryBlockedError", rerr)
	}
	if blocked.Verdict == nil || blocked.Verdict.Passed {
		t.Fatalf("blocked verdict = %+v", blocked.Verdict)
	}
	// Nothing durable: no generation exists, so a crash right here (the
	// chaos drill's kill point) can only ever recover to the incumbent.
	gens, err := store.Generations()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 0 {
		t.Fatalf("blocked candidate left generations %v", gens)
	}
	// The backlog is parked (cursor advanced): the single-flight trigger
	// must not retrain the same rejected batch forever.
	if jl.Pending() != 0 {
		t.Fatalf("blocked run left %d pending", jl.Pending())
	}
	// The parked records stay reachable as history for the next cycle.
	fillLog(t, jl, 60, 80)
	opts.Gate = nil
	opts.Holdout = 0
	rep, err := RunIncremental(context.Background(), jl, store, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WindowRecords == 0 {
		t.Fatal("parked records not reachable as history window")
	}
}

func TestRunIncrementalGatedHoldoutDisjointFromTraining(t *testing.T) {
	jl, err := joblog.Open(t.TempDir(), joblog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	store := OpenStore(t.TempDir())
	fillLog(t, jl, 0, 60)
	// First, an ungated run incorporates the first 60 jobs as history.
	if _, err := RunIncremental(context.Background(), jl, store, fastIncOpts()); err != nil {
		t.Fatal(err)
	}
	fillLog(t, jl, 60, 120)

	opts := fastIncOpts()
	opts.Holdout = 20
	var heldIDs map[int64]bool
	wantVerdict := &CanaryRecord{Passed: true, Reason: "admitted by test gate"}
	opts.Gate = func(cand *Ensemble, holdout []*darshan.Record) (*CanaryRecord, error) {
		heldIDs = make(map[int64]bool, len(holdout))
		for _, rec := range holdout {
			heldIDs[rec.JobID] = true
		}
		v := *wantVerdict
		v.HoldoutJobs = len(holdout)
		return &v, nil
	}
	var trained []*darshan.Record
	opts.Reference = func(training []*darshan.Record, verdict *CanaryRecord) []byte {
		trained = training
		if verdict == nil || !verdict.Passed {
			t.Errorf("reference callback got verdict %+v", verdict)
		}
		return []byte(`{"jobs":42}`)
	}
	rep, err := RunIncremental(context.Background(), jl, store, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.HoldoutRecords == 0 || rep.HoldoutRecords > opts.Holdout {
		t.Fatalf("HoldoutRecords = %d, want 1..%d", rep.HoldoutRecords, opts.Holdout)
	}
	if len(heldIDs) == 0 || len(trained) == 0 {
		t.Fatal("gate or reference callback never ran")
	}
	// The disjointness that makes the gate honest: no held-out job was
	// trained on (synthetic JobIDs are unique across the log).
	for _, rec := range trained {
		if heldIDs[rec.JobID] {
			t.Fatalf("job %d is in both the training set and the canary holdout", rec.JobID)
		}
	}
	// The admitting verdict and the reference are durably attached.
	man, err := store.Manifest(rep.Generation)
	if err != nil {
		t.Fatal(err)
	}
	if man.Canary == nil || man.Canary.Reason != wantVerdict.Reason {
		t.Fatalf("manifest canary = %+v", man.Canary)
	}
	if rep.Canary == nil || rep.Canary.HoldoutJobs != rep.HoldoutRecords {
		t.Fatalf("report canary = %+v, holdout %d", rep.Canary, rep.HoldoutRecords)
	}
	if ref, err := store.Reference(rep.Generation); err != nil || string(ref) != `{"jobs":42}` {
		t.Fatalf("reference = %q, %v", ref, err)
	}
}
