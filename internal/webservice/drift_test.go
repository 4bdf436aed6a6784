package webservice

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/hpc-repro/aiio/internal/admission"
	"github.com/hpc-repro/aiio/internal/core"
	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/drift"
	"github.com/hpc-repro/aiio/internal/faults"
	"github.com/hpc-repro/aiio/internal/joblog"
	"github.com/hpc-repro/aiio/internal/lifecycle"
)

// End-to-end tests of the self-healing lifecycle (DESIGN.md §14): drift
// trip → canary-gated auto-retrain → promotion, a poisoned retrain blocked
// at the gate, and a regressing promotion rolled back by the watch.

// lifecycleServer wires a server the way cmd/aiio-server does with the
// -drift-* flags on: joblog, model store, drift monitor, and a canary-gated
// incremental retrainer whose reference snapshot is persisted per
// generation.
func lifecycleServer(t *testing.T, cfg drift.Config, holdout, window int) (*Server, *joblog.Store, *core.Store) {
	t.Helper()
	jl, err := joblog.Open(t.TempDir(), joblog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(ensemble(t), fastOpts())
	s.JobLog = jl
	store := core.OpenStore(t.TempDir())
	s.Store = store
	s.Drift = drift.New(cfg)
	gate := drift.Gate(drift.GateConfig{}, func() *core.Ensemble { return s.ServingEnsemble() })
	s.Retrainer = func(ctx context.Context) (*core.Ensemble, uint64, error) {
		rep, err := core.RunIncremental(ctx, jl, store, core.IncrementalOptions{
			MiniBatch: 16,
			Window:    window,
			Holdout:   holdout,
			Gate:      gate,
			Reference: drift.Sidecar,
			Train:     core.TrainOptions{Models: []string{core.NameLightGBM}, Fast: true, Seed: 1},
		})
		if err != nil {
			return nil, 0, err
		}
		ens, _, err := store.LoadGeneration(rep.Generation)
		if err != nil {
			return nil, 0, err
		}
		return ens, rep.Generation, nil
	}
	return s, jl, store
}

// waitRetrainIdle blocks until the background cycle finishes.
func waitRetrainIdle(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for !s.RetrainIdle() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if !s.RetrainIdle() {
		t.Fatal("retraining did not finish in time")
	}
}

func getDrift(t *testing.T, srv *httptest.Server) *DriftResponse {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + "/api/v1/drift")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/api/v1/drift: HTTP %d", resp.StatusCode)
	}
	var body DriftResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return &body
}

// TestDriftTripRunsCanaryGatedRetrain is the lifecycle's happy path: the
// workload shifts, the monitor trips, the triggered retrain adapts, the
// canary admits it, and the promotion re-arms the monitor against the new
// generation's world — all visible as provenance.
func TestDriftTripRunsCanaryGatedRetrain(t *testing.T) {
	// A 100-job live window vs a 200-job reference carries ~0.2-0.3 PSI of
	// sampling noise on the noisiest counter; 0.5 separates the real 1000x
	// shift (PSI >> 1) from that noise.
	s, jl, _ := lifecycleServer(t, drift.Config{MinSamples: 100, Window: 400, PSIThreshold: 0.5}, 20, 256)
	s.SetLifecycle(lifecycle.Config{}) // only drift may trigger
	s.Drift.SetReference(drift.BuildReference(genRecords(t, 200)))
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	client := NewClient(srv.URL)

	// Normal traffic: no trip, no trigger.
	resp, err := client.Ingest(genRecords(t, 100))
	if err != nil {
		t.Fatal(err)
	}
	if resp.DriftTripped || resp.RetrainTriggered {
		t.Fatalf("normal traffic tripped the monitor: %+v", resp)
	}

	// The workload shifts 1000x: the monitor must trip and trigger the
	// single-flight retrain.
	shifted := faults.ShiftDataset(genRecords(t, 100), 1000, 5_000_000)
	resp, err = client.Ingest(shifted)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.DriftTripped || !resp.DriftRetrainTriggered {
		t.Fatalf("1000x shift: %+v, want drift trip + trigger", resp)
	}
	waitRetrainIdle(t, s)
	rs := s.lifecycleSnapshot().LastRetrain
	if rs == nil || rs.Err != "" {
		t.Fatalf("drift-triggered retrain failed: %+v", rs)
	}
	if rs.Generation == 0 {
		t.Fatal("no generation promoted")
	}
	if jl.Pending() != 0 {
		t.Fatalf("backlog not drained: %d", jl.Pending())
	}

	// The promotion's provenance: verdict on the drift endpoint, counters
	// that tripped, and a re-armed monitor watching the new world.
	dr := getDrift(t, srv)
	if dr.Lifecycle.DriftRetrains != 1 {
		t.Fatalf("drift_retrains = %d, want 1", dr.Lifecycle.DriftRetrains)
	}
	if dr.Lifecycle.LastTrippedBy != "input-distribution" || len(dr.Lifecycle.LastTrippedCounters) == 0 {
		t.Fatalf("trip provenance missing: %+v", dr.Lifecycle)
	}
	if dr.Lifecycle.ServingCanary == nil || !dr.Lifecycle.ServingCanary.Passed {
		t.Fatalf("serving canary verdict missing: %+v", dr.Lifecycle.ServingCanary)
	}
	if !dr.Status.Armed || dr.Status.ReferenceJobs == 0 {
		t.Fatalf("monitor not re-armed after promotion: %+v", dr.Status)
	}
	if dr.Status.WindowJobs != 0 {
		t.Fatalf("live window not reset after promotion: %d jobs", dr.Status.WindowJobs)
	}

	// Provenance flows into diagnoses: registry + canary-gate advisories.
	_, diag, _ := postDiagnose(t, srv, testRecord())
	var sources []string
	for _, a := range diag.Advisories {
		sources = append(sources, a.Source)
	}
	for _, want := range []string{"model-registry", "canary-gate"} {
		found := false
		for _, src := range sources {
			found = found || src == want
		}
		if !found {
			t.Fatalf("diagnosis advisories missing %q: %v", want, diag.Advisories)
		}
	}
}

// TestPoisonedRetrainBlockedByCanary: labels go bad (a broken perf probe,
// a corrupted pipeline), prediction error trips the monitor, and the
// retrain — fitted to the poison — must be refused by the gate. The old
// generation keeps serving and the rejected backlog is parked.
func TestPoisonedRetrainBlockedByCanary(t *testing.T) {
	// A tiny history window: the gated retrain will be dominated by the
	// poisoned backlog, the way a long-poisoned pipeline dominates any
	// bounded window eventually.
	s, jl, store := lifecycleServer(t, drift.Config{
		MinSamples: 10_000, // input-distribution detector effectively off
		MinErrors:  30,
		ErrorRatio: 1.5,
	}, 20, 16)
	s.SetLifecycle(lifecycle.Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	client := NewClient(srv.URL)

	// Incorporate clean history first (ungated bootstrap, as a fleet that
	// enabled -drift-* after running for a while would have).
	if _, err := client.Ingest(genRecords(t, 80)); err != nil {
		t.Fatal(err)
	}
	boot, err := core.RunIncremental(context.Background(), jl, store, core.IncrementalOptions{
		MiniBatch: 16, Window: 256,
		Train: core.TrainOptions{Models: []string{core.NameLightGBM}, Fast: true, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	bootEns, _, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AdoptGeneration(bootEns, s.storeReport(boot.Generation)); err != nil {
		t.Fatal(err)
	}
	_, _, v0 := s.snapshot()
	// Arm with the serving model's own error level as baseline.
	clean := genRecords(t, 80)
	ref := drift.BuildReference(clean)
	ref.BaselineRMSE = drift.EvalRMSE(bootEns, clean)
	if ref.BaselineRMSE <= 0 {
		t.Fatalf("degenerate baseline %v", ref.BaselineRMSE)
	}
	s.Drift.SetReference(ref)

	// Poison: same input distribution, garbage labels — deterministic
	// high-variance pseudo-random performance uncorrelated with the
	// counters. There is nothing learnable in these labels, so a candidate
	// fitted to them is worse than the incumbent on clean AND poisoned
	// held-out jobs alike.
	poisoned := genRecords(t, 140)[80:] // fresh JobIDs, in-distribution counters
	for i, rec := range poisoned {
		u := 4 * math.Mod(float64(i)*0.6180339887, 1) // even spread over [0,4) in the transformed domain
		rec.PerfMiBps = math.Pow(10, u) - 1 + 0.01
	}
	resp, err := client.Ingest(poisoned)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.DriftTripped || !resp.DriftRetrainTriggered {
		t.Fatalf("poisoned labels did not trip the error tracker: %+v", resp)
	}
	waitRetrainIdle(t, s)

	// The gate must have blocked: no promotion, version unchanged, verdict
	// recorded, backlog parked so the trigger cannot loop.
	rs := s.lifecycleSnapshot().LastRetrain
	if rs == nil || !strings.Contains(rs.Err, "canary") {
		t.Fatalf("retrain state = %+v, want a canary block", rs)
	}
	if _, _, v1 := s.snapshot(); v1 != v0 {
		t.Fatalf("blocked candidate bumped the serving version: %d -> %d", v0, v1)
	}
	if rep := s.GenerationReport(); rep == nil || rep.Generation != boot.Generation {
		t.Fatalf("generation report %+v, want the incumbent %d", rep, boot.Generation)
	}
	if gens, _ := store.Generations(); len(gens) != 1 {
		t.Fatalf("blocked candidate left generations %v", gens)
	}
	if jl.Pending() != 0 {
		t.Fatalf("rejected backlog not parked: %d pending", jl.Pending())
	}
	dr := getDrift(t, srv)
	if dr.Lifecycle.CanaryBlocked != 1 || dr.Lifecycle.LastBlocked == nil {
		t.Fatalf("block not recorded: %+v", dr.Lifecycle)
	}
	if dr.Lifecycle.LastBlocked.Passed || dr.Lifecycle.LastBlocked.Reason == "" {
		t.Fatalf("losing verdict malformed: %+v", dr.Lifecycle.LastBlocked)
	}
	// Healthz mirrors the decision history.
	hr, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var health struct {
		Drift struct {
			CanaryBlocked uint64 `json:"canary_blocked"`
			Tripped       bool   `json:"tripped"`
		} `json:"drift"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Drift.CanaryBlocked != 1 {
		t.Fatalf("healthz canary_blocked = %d, want 1", health.Drift.CanaryBlocked)
	}
}

// TestPostPromotionErrorSpikeRollsBack: a promotion that regresses serving
// error must be demoted automatically — durably (CURRENT flips back) and
// in memory (validated hot-swap) — with the decision on the wire.
func TestPostPromotionErrorSpikeRollsBack(t *testing.T) {
	jl, err := joblog.Open(t.TempDir(), joblog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	good := ensemble(t)
	s := NewServer(good, fastOpts())
	s.JobLog = jl
	storeDir := t.TempDir()
	store := core.OpenStore(storeDir)
	s.Store = store
	s.Drift = drift.New(drift.Config{MinSamples: 10_000})
	s.SetLifecycle(lifecycle.Config{RollbackRatio: 2, RollbackWatch: 40})

	gen1, err := store.Save(good)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AdoptGeneration(good, s.storeReport(gen1)); err != nil {
		t.Fatal(err)
	}
	s.Drift.SetReference(drift.BuildReference(genRecords(t, 100)))
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	client := NewClient(srv.URL)

	// Pre-promotion: 30 labeled jobs under the good generation establish
	// the baseline error the watch will compare against.
	if _, err := client.Ingest(genRecords(t, 30)); err != nil {
		t.Fatal(err)
	}
	if rmse, n := s.Drift.RollingRMSE(); n < 20 || rmse <= 0 {
		t.Fatalf("baseline not established: rmse=%v n=%d", rmse, n)
	}

	// The "retrain" promotes a confidently wrong model: constant -5 in the
	// transformed domain, far from any real job's performance.
	bad := &core.Ensemble{Models: []core.Model{&faults.ConstantModel{Value: -5}}}
	s.Retrainer = func(ctx context.Context) (*core.Ensemble, uint64, error) {
		gen, err := store.SaveDetailed(bad, &core.GenerationExtra{
			Canary: &core.CanaryRecord{Passed: true, Reason: "waived in test"},
		})
		if err != nil {
			return nil, 0, err
		}
		return bad, gen, nil
	}
	if !s.TriggerRetrain() {
		t.Fatal("trigger refused")
	}
	waitRetrainIdle(t, s)
	gen2 := s.GenerationReport().Generation
	if gen2 == gen1 {
		t.Fatal("promotion did not adopt the new generation")
	}
	if dr := getDrift(t, srv); !dr.Lifecycle.WatchArmed {
		t.Fatalf("post-promotion watch not armed: %+v", dr.Lifecycle)
	}

	// Post-promotion labeled traffic: the bad generation's error spikes past
	// baseline×2 and the watch rolls back (asynchronously).
	for batch := 0; batch < 4; batch++ {
		recs := genRecords(t, 10)
		for _, rec := range recs {
			rec.JobID += int64(20_000_000 + batch*1000)
		}
		if _, err := client.Ingest(recs); err != nil {
			t.Fatal(err)
		}
		if s.lifecycleSnapshot().Rollbacks > 0 {
			break
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for s.lifecycleSnapshot().Rollbacks == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	lc := s.lifecycleSnapshot()
	if lc.Rollbacks != 1 {
		t.Fatalf("rollback did not fire: %+v", lc)
	}
	if lc.LastRollbackFrom != gen2 || lc.LastRollbackTo != gen1 {
		t.Fatalf("rolled back %d -> %d, want %d -> %d", lc.LastRollbackFrom, lc.LastRollbackTo, gen2, gen1)
	}
	if lc.LastRollbackReason == "" || lc.WatchArmed {
		t.Fatalf("rollback state malformed: %+v", lc)
	}

	// In memory: the good set serves again, stamped on responses.
	rep := s.GenerationReport()
	if rep.Generation != gen1 || !rep.FellBack {
		t.Fatalf("serving report after rollback: %+v", rep)
	}
	if got := len(s.ServingEnsemble().Models); got != len(good.Models) {
		t.Fatalf("serving %d models after rollback, want %d", got, len(good.Models))
	}
	// Durably: a restart (fresh store handle) loads the good generation.
	if _, lrep, err := core.OpenStore(storeDir).Load(); err != nil || lrep.Generation != gen1 {
		t.Fatalf("restart would serve generation %d (err %v), want %d", lrep.Generation, err, gen1)
	}
	// Provenance: the rollback advisory rides on diagnoses.
	_, diag, _ := postDiagnose(t, srv, testRecord())
	found := false
	for _, a := range diag.Advisories {
		found = found || a.Source == "rollback-watch"
	}
	if !found {
		t.Fatalf("no rollback-watch advisory: %+v", diag.Advisories)
	}
}

// TestTransitionSupersedesPromotionWatch: an auto-promotion arms the
// rollback watch, then a peer adoption or a model upload replaces the
// generation under watch. That transition must clear the watch, take the
// canary provenance from the new generation's manifest and empty the error
// ring, so the superseded watch can never roll the new generation back.
func TestTransitionSupersedesPromotionWatch(t *testing.T) {
	for _, tc := range []struct {
		name string
		// transition replaces the serving generation and returns the new
		// generation and its manifest's canary verdict.
		transition func(t *testing.T, s *Server, srv *httptest.Server, good *core.Ensemble) (uint64, *core.CanaryRecord)
	}{
		{"adopt", func(t *testing.T, s *Server, srv *httptest.Server, good *core.Ensemble) (uint64, *core.CanaryRecord) {
			verdict := &core.CanaryRecord{Passed: true, HoldoutJobs: 64, Reason: "admitted on the peer"}
			gen, err := s.Store.SaveDetailed(good, &core.GenerationExtra{Canary: verdict})
			if err != nil {
				t.Fatal(err)
			}
			ens, man, err := s.Store.LoadGeneration(gen)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.AdoptGeneration(ens, &core.LoadReport{Generation: gen, Fingerprint: man.Fingerprint()}); err != nil {
				t.Fatal(err)
			}
			return gen, verdict
		}},
		{"upload", func(t *testing.T, s *Server, srv *httptest.Server, good *core.Ensemble) (uint64, *core.CanaryRecord) {
			var gob bytes.Buffer
			if err := good.Model(core.NameLightGBM).Save(&gob); err != nil {
				t.Fatal(err)
			}
			resp, err := srv.Client().Post(srv.URL+"/api/v1/models?name="+core.NameLightGBM+"&kind=gbdt",
				"application/octet-stream", &gob)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var out struct {
				Generation uint64 `json:"generation"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != 200 {
				t.Fatalf("upload: HTTP %d, %v", resp.StatusCode, err)
			}
			return out.Generation, nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			jl, err := joblog.Open(t.TempDir(), joblog.Options{})
			if err != nil {
				t.Fatal(err)
			}
			good := ensemble(t)
			s := NewServer(good, fastOpts())
			s.JobLog = jl
			storeDir := t.TempDir()
			s.Store = core.OpenStore(storeDir)
			s.Drift = drift.New(drift.Config{MinSamples: 10_000})
			s.SetLifecycle(lifecycle.Config{RollbackRatio: 2, RollbackWatch: 200}) // judged from 25 labeled jobs on
			gen1, err := s.Store.Save(good)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.AdoptGeneration(good, s.storeReport(gen1)); err != nil {
				t.Fatal(err)
			}
			s.Drift.SetReference(drift.BuildReference(genRecords(t, 100)))
			srv := httptest.NewServer(s.Handler())
			defer srv.Close()
			client := NewClient(srv.URL)
			batch := 0
			ingest := func(n int) {
				t.Helper()
				recs := genRecords(t, n)
				for _, rec := range recs {
					rec.JobID += int64(30_000_000 + batch*1000)
				}
				batch++
				if _, err := client.Ingest(recs); err != nil {
					t.Fatal(err)
				}
			}

			// Baseline under generation 1, then a confidently wrong
			// auto-promotion and ten of its labeled jobs: the watch is armed
			// and the ring holds the bad generation's errors, short of a
			// verdict.
			ingest(30)
			bad := &core.Ensemble{Models: []core.Model{&faults.ConstantModel{Value: -5}}}
			s.Retrainer = func(ctx context.Context) (*core.Ensemble, uint64, error) {
				gen, err := s.Store.SaveDetailed(bad, &core.GenerationExtra{
					Canary: &core.CanaryRecord{Passed: true, Reason: "waived in test"},
				})
				return bad, gen, err
			}
			if !s.TriggerRetrain() {
				t.Fatal("trigger refused")
			}
			waitRetrainIdle(t, s)
			ingest(10)
			if lc := s.lifecycleSnapshot(); !lc.WatchArmed || lc.Rollbacks != 0 {
				t.Fatalf("after the promotion: %+v, want an armed watch and no rollback", lc)
			}

			gen, verdict := tc.transition(t, s, srv, good)
			lc := s.lifecycleSnapshot()
			if lc.WatchArmed {
				t.Error("the promotion watch outlived the generation it watched")
			}
			if (lc.ServingCanary == nil) != (verdict == nil) || (verdict != nil && *lc.ServingCanary != *verdict) {
				t.Errorf("serving canary %+v, want generation %d's %+v", lc.ServingCanary, gen, verdict)
			}
			if _, n := s.Drift.RollingRMSE(); n != 0 {
				t.Errorf("error ring holds %d samples of the replaced generation", n)
			}

			// A spike the superseded watch would have judged lands after the
			// transition: the generation it watched no longer serves.
			s.lifecycleMu.Lock()
			s.step(lifecycle.ErrorSample{RMSE: 1, N: 50})
			s.lifecycleMu.Unlock()
			for i := 0; i < 6; i++ {
				ingest(10)
			}
			for i := 0; i < 20 && s.lifecycleSnapshot().Rollbacks == 0; i++ {
				time.Sleep(10 * time.Millisecond) // room for a (wrong) background rollback
			}
			if lc := s.lifecycleSnapshot(); lc.Rollbacks != 0 {
				t.Fatalf("generation %d rolled back %d -> %d: %s", gen, lc.LastRollbackFrom, lc.LastRollbackTo, lc.LastRollbackReason)
			}
			if rep := s.GenerationReport(); rep.Generation != gen {
				t.Errorf("serving generation %d, want %d", rep.Generation, gen)
			}
			if cur, _ := core.OpenStore(storeDir).CurrentGeneration(); cur != gen {
				t.Errorf("CURRENT names generation %d, want %d", cur, gen)
			}
		})
	}
}

// TestAutoPromotionInvalidatesDiagnosisCache is the regression test for
// the lifecycle's stale-cache hazard: a generation promoted by the
// auto-retrainer must invalidate cached diagnoses exactly like a manual
// upload does — the next query reruns on the new models and the
// generation header flips.
func TestAutoPromotionInvalidatesDiagnosisCache(t *testing.T) {
	base := ensemble(t)
	s := NewServer(base, fastOpts())
	store := core.OpenStore(t.TempDir())
	s.Store = store
	gen1, err := store.Save(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AdoptGeneration(base, s.storeReport(gen1)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	rec := testRecord()

	// Warm the cache under generation 1.
	state, before, _ := postDiagnose(t, srv, rec)
	if state != "miss" {
		t.Fatalf("first diagnose: %q, want miss", state)
	}
	if state, _, _ := postDiagnose(t, srv, rec); state != "hit" {
		t.Fatalf("repeat diagnose: %q, want hit", state)
	}

	// Auto-retrain promotes a single-model generation.
	single := &core.Ensemble{Models: []core.Model{base.Model(core.NameLightGBM)}}
	s.Retrainer = func(ctx context.Context) (*core.Ensemble, uint64, error) {
		gen, err := store.Save(single)
		if err != nil {
			return nil, 0, err
		}
		return single, gen, nil
	}
	if !s.TriggerRetrain() {
		t.Fatal("trigger refused")
	}
	waitRetrainIdle(t, s)
	gen2 := s.GenerationReport().Generation
	if gen2 <= gen1 {
		t.Fatalf("no promotion: generation %d after %d", gen2, gen1)
	}

	// The cached answer must NOT survive the promotion.
	var buf strings.Builder
	if err := darshan.WriteLog(&buf, rec); err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+"/api/v1/diagnose", "text/plain", strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-AIIO-Cache"); got != "miss" {
		t.Fatalf("post-promotion diagnose served %q, want miss (stale cache)", got)
	}
	if got := resp.Header.Get("X-AIIO-Generation"); got != strconv.FormatUint(gen2, 10) {
		t.Fatalf("X-AIIO-Generation = %q, want %d", got, gen2)
	}
	var after DiagnosisResponse
	if err := json.NewDecoder(resp.Body).Decode(&after); err != nil {
		t.Fatal(err)
	}
	if len(after.Models) != 1 || len(before.Models) != 2 {
		t.Fatalf("diagnosis not rerun on the promoted set: %d then %d models",
			len(before.Models), len(after.Models))
	}
}

// TestHealthzGoldenSchema pins the /healthz payload shape: every section
// an operator's dashboards and the CI drills read must stay present with
// the same JSON type. A key silently vanishing or changing type is exactly
// the failure this test exists to catch.
func TestHealthzGoldenSchema(t *testing.T) {
	s, jl := ingestServer(t)
	defer jl.Close()
	s.Drift = drift.New(drift.Config{})
	s.Breakers = admission.NewBreakerSet(admission.BreakerConfig{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	// One diagnosis so the cache section carries traffic.
	postDiagnose(t, srv, testRecord())

	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}

	// The golden schema: section -> key -> JSON type ("number", "string",
	// "bool", "object"). Top-level "status" is checked separately.
	schema := map[string]map[string]string{
		"cache": {"hits": "number", "misses": "number", "size": "number"},
		// batches = single-flight diagnoses run, fused = requests they
		// answered.
		"coalesce": {"batches": "number", "fused": "number"},
		"joblog": {
			"sealed_segments": "number", "bytes": "number", "records": "number",
			"quarantined": "number", "duplicate_frames": "number",
			"compactions": "number", "last_compaction_unix": "number",
			"pending_retrain": "number",
		},
		"retrain": {"busy": "bool"},
		"drift": {
			"armed": "bool", "tripped": "bool", "tripped_by": "string",
			"max_psi": "number", "threshold": "number", "drifted": "number",
			"window_jobs": "number", "reference_jobs": "number",
			"rolling_rmse": "number", "baseline_rmse": "number",
			"error_ratio": "number", "error_obs": "number",
			"drift_retrains": "number", "canary_blocked": "number",
			"rollbacks": "number", "watch_armed": "bool",
		},
	}
	jsonType := func(v any) string {
		switch v.(type) {
		case float64:
			return "number"
		case string:
			return "string"
		case bool:
			return "bool"
		case map[string]any:
			return "object"
		default:
			return fmt.Sprintf("%T", v)
		}
	}
	if st, ok := body["status"].(string); !ok || st != "ok" {
		t.Fatalf("healthz status = %v", body["status"])
	}
	if _, ok := body["breakers"].(map[string]any); !ok {
		t.Fatalf("healthz breakers section missing or wrong type: %T", body["breakers"])
	}
	for section, keys := range schema {
		sec, ok := body[section].(map[string]any)
		if !ok {
			t.Fatalf("healthz section %q missing or not an object: %T", section, body[section])
		}
		for key, want := range keys {
			v, ok := sec[key]
			if !ok {
				t.Errorf("healthz %s.%s disappeared", section, key)
				continue
			}
			if got := jsonType(v); got != want {
				t.Errorf("healthz %s.%s is %s, want %s", section, key, got, want)
			}
		}
	}
	// The one cold diagnosis above ran one flight, which answered it.
	if co := body["coalesce"].(map[string]any); co["batches"] != 1.0 || co["fused"] != 1.0 {
		t.Errorf("healthz coalesce = %v after one cold diagnosis, want 1 flight answering 1 request", co)
	}
}
