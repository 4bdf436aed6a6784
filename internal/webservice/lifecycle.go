package webservice

import (
	"fmt"
	"math"
	"net/http"
	"slices"
	"time"

	"github.com/hpc-repro/aiio/internal/core"
	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/drift"
	"github.com/hpc-repro/aiio/internal/features"
)

// The self-healing model lifecycle (DESIGN.md §14). The drift monitor
// watches every ingested job; when a detector trips, the ingest path
// triggers the same single-flight retrain a backlog threshold does. The
// retrain is canary-gated inside core.RunIncremental (a candidate that
// cannot beat the serving ensemble on held-out jobs is never committed),
// and a promotion arms a post-promotion watch: if rolling prediction error
// spikes past the pre-promotion baseline, the server rolls back to the
// previous generation through the registry's CURRENT pointer and install,
// the one transition every swap of the serving set goes through (see the
// "Generation transitions" table in DESIGN.md §14). Every decision leaves
// provenance — which counters drifted, which gate passed, what the watch
// saw — on /api/v1/drift, /healthz, and in diagnosis advisories.

// promotionWatch is armed by each auto-promotion: it compares rolling
// serving error against the pre-promotion baseline for the next budget
// labeled jobs and rolls back on a spike.
type promotionWatch struct {
	// fromGen is the freshly promoted generation under watch; prevGen is
	// the rollback target (what served before the promotion).
	fromGen uint64
	prevGen uint64
	// baseline is the pre-promotion error level; ratio is the spike
	// multiplier that triggers rollback.
	baseline float64
	ratio    float64
	// budget is how many labeled jobs the watch covers before the
	// promotion is judged safe; minObs is the smallest rolling sample a
	// verdict may rest on.
	budget int
	minObs int
}

// lifecycleStatus aggregates the lifecycle's decision history for
// /healthz, /api/v1/drift, and advisories. Guarded by Server.lifecycleMu.
type lifecycleStatus struct {
	// DriftRetrains counts retrains triggered by a drift trip (as opposed
	// to the backlog threshold).
	DriftRetrains uint64 `json:"drift_retrains"`
	// LastTrippedBy / LastTrippedCounters are the provenance of the most
	// recent drift trigger.
	LastTrippedBy       string               `json:"last_tripped_by,omitempty"`
	LastTrippedCounters []drift.CounterDrift `json:"last_tripped_counters,omitempty"`
	LastTrippedUnix     int64                `json:"last_tripped_unix,omitempty"`
	// ServingCanary is the gate verdict that admitted the serving
	// generation (nil when it was not auto-promoted).
	ServingCanary *core.CanaryRecord `json:"serving_canary,omitempty"`
	// CanaryBlocked counts candidates the gate refused; LastBlocked is the
	// most recent losing verdict.
	CanaryBlocked   uint64             `json:"canary_blocked"`
	LastBlocked     *core.CanaryRecord `json:"last_blocked,omitempty"`
	LastBlockedUnix int64              `json:"last_blocked_unix,omitempty"`
	// Rollbacks counts automatic demotions; the Last* fields describe the
	// most recent one.
	Rollbacks          uint64 `json:"rollbacks"`
	LastRollbackFrom   uint64 `json:"last_rollback_from,omitempty"`
	LastRollbackTo     uint64 `json:"last_rollback_to,omitempty"`
	LastRollbackUnix   int64  `json:"last_rollback_unix,omitempty"`
	LastRollbackReason string `json:"last_rollback_reason,omitempty"`
	// WatchArmed mirrors whether a post-promotion watch is live.
	WatchArmed bool `json:"watch_armed"`
	// watch is the live post-promotion rollback watch (nil between
	// promotions); install stores it, checkWatch spends it.
	watch *promotionWatch
}

// lifecycleSnapshot returns a copy of the decision history.
func (s *Server) lifecycleSnapshot() lifecycleStatus {
	s.lifecycleMu.Lock()
	defer s.lifecycleMu.Unlock()
	st := s.lifecycle
	st.WatchArmed = st.watch != nil
	return st
}

// observeIngest feeds one durably accepted record into the drift monitor:
// its counters into the distribution sketches and — every ingested job is
// labeled with its measured performance — its prediction error into the
// rolling tracker. It then gives the post-promotion watch a chance to act.
func (s *Server) observeIngest(ens *core.Ensemble, rec *darshan.Record) {
	if s.Drift == nil {
		return
	}
	s.Drift.Observe(rec)
	if pred, ok := safeMeanPredict(ens, rec); ok {
		s.Drift.ObserveError(pred, features.Transform(features.Sanitize(rec.PerfMiBps)))
	}
	s.checkWatch()
}

// safeMeanPredict is the Average Method prediction (transformed domain)
// with per-call recovery: a faulting model must cost one drift sample,
// never the ingest request.
func safeMeanPredict(ens *core.Ensemble, rec *darshan.Record) (pred float64, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			pred, ok = 0, false
		}
	}()
	if ens == nil || len(ens.Models) == 0 {
		return 0, false
	}
	x := features.TransformRecord(rec)
	sum := 0.0
	for _, m := range ens.Models {
		v := m.Predict(x)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, false
		}
		sum += v
	}
	return sum / float64(len(ens.Models)), true
}

// noteDriftTrigger records the provenance of a drift-triggered retrain.
func (s *Server) noteDriftTrigger(st *drift.Status) {
	s.lifecycleMu.Lock()
	defer s.lifecycleMu.Unlock()
	s.lifecycle.DriftRetrains++
	s.lifecycle.LastTrippedBy = st.TrippedBy
	s.lifecycle.LastTrippedCounters = st.Drifted
	s.lifecycle.LastTrippedUnix = time.Now().Unix()
}

// noteCanaryBlocked records a gate refusal (surfaced by TriggerRetrain).
func (s *Server) noteCanaryBlocked(v *core.CanaryRecord) {
	s.lifecycleMu.Lock()
	defer s.lifecycleMu.Unlock()
	s.lifecycle.CanaryBlocked++
	s.lifecycle.LastBlocked = v
	s.lifecycle.LastBlockedUnix = time.Now().Unix()
}

// install makes ens, described by rep, the serving model set. Boot, upload,
// auto-promotion, peer adoption and rollback all go through it, so each
// consequence of a swap happens once, in one order, and no lifecycle state
// outlives the generation it describes. A set failing its probe is refused
// and the old set keeps serving. watch arms the post-promotion rollback
// watch (auto-promotion only); every other transition clears it. The
// caller holds lifecycleMu, which serializes transitions.
func (s *Server) install(ens *core.Ensemble, rep *core.LoadReport, watch bool) error {
	for _, m := range ens.Models {
		if err := probeModel(m); err != nil {
			return fmt.Errorf("webservice: model %s failed validation, swap refused: %w", m.Name(), err)
		}
	}
	// The generation's sidecars: the gate verdict that admitted it and the
	// drift reference sketched from its training set.
	var verdict *core.CanaryRecord
	var ref *drift.Reference
	if s.Store != nil && rep != nil {
		if man, err := s.Store.Manifest(rep.Generation); err == nil {
			verdict = man.Canary
		}
		if data, err := s.Store.Reference(rep.Generation); err == nil && data != nil {
			ref, _ = drift.ParseReference(data)
		}
	}
	prev := s.genReport.Load()

	s.mu.Lock()
	old := s.ens.Models
	s.ens = ens
	// Bump the version so in-flight requests keyed against the old set can
	// never hit, and purge the entries outright.
	s.version++
	if c := s.diagnosisCache(); c != nil {
		c.purge()
	}
	s.mu.Unlock()
	s.SetGeneration(rep)
	// A fresh (validated) model deserves a closed breaker; a model that
	// keeps serving keeps its breaker's history.
	if s.Breakers != nil {
		for _, m := range ens.Models {
			if !slices.Contains(old, m) {
				s.Breakers.For(m.Name()).Success()
			}
		}
	}
	// The pre-transition serving error, captured before the ring resets, is
	// the watch's preferred baseline.
	prevRMSE, prevN := 0.0, 0
	if s.Drift != nil {
		prevRMSE, prevN = s.Drift.RollingRMSE()
		if ref != nil {
			s.Drift.SetReference(ref)
		}
		s.Drift.ResetErrors()
	}
	s.lifecycle.ServingCanary = verdict
	s.lifecycle.watch = nil

	if !watch || s.Drift == nil || s.Store == nil || s.RollbackRatio <= 0 ||
		prev == nil || prev.Generation == 0 || prev.Generation == rep.Generation {
		return nil
	}
	// Baseline preference: measured pre-promotion serving error when the
	// ring held enough samples; else the candidate's own held-out RMSE;
	// else the reference's recorded baseline. No baseline, no watch.
	baseline := 0.0
	switch {
	case prevN >= 20 && prevRMSE > 0:
		baseline = prevRMSE
	case verdict != nil && verdict.CandidateRMSE > 0:
		baseline = verdict.CandidateRMSE
	case ref != nil && ref.BaselineRMSE > 0:
		baseline = ref.BaselineRMSE
	default:
		return nil
	}
	budget := s.RollbackWatch
	if budget <= 0 {
		budget = 200
	}
	s.lifecycle.watch = &promotionWatch{
		fromGen:  rep.Generation,
		prevGen:  prev.Generation,
		baseline: baseline,
		ratio:    s.RollbackRatio,
		budget:   budget,
		minObs:   max(budget/8, 10),
	}
	return nil
}

// checkWatch evaluates the post-promotion watch against the rolling error.
// A spike past baseline×ratio disarms the watch and rolls back in the
// background; surviving the budget disarms it quietly.
func (s *Server) checkWatch() {
	s.lifecycleMu.Lock()
	defer s.lifecycleMu.Unlock()
	w := s.lifecycle.watch
	if w == nil {
		return
	}
	rmse, n := s.Drift.RollingRMSE()
	if n < w.minObs {
		return
	}
	if rmse >= w.baseline*w.ratio {
		s.lifecycle.watch = nil
		go s.rollback(w, rmse, n)
	} else if n >= w.budget {
		s.lifecycle.watch = nil
	}
}

// rollback demotes a regressing promotion, provided the generation under
// watch still serves (a transition since then superseded the verdict):
// flip the registry's CURRENT back to the previous generation (so a restart
// loads the known-good set — the regressing generation's files stay on
// disk for the operator), then install the previous set. Only a watch
// armed with a Store wired in fires it.
func (s *Server) rollback(w *promotionWatch, rmse float64, n int) {
	reason := fmt.Sprintf("rolling RMSE %.4f over %d labeled jobs is %.1fx the pre-promotion baseline %.4f",
		rmse, n, rmse/w.baseline, w.baseline)
	s.lifecycleMu.Lock()
	if rep := s.genReport.Load(); rep == nil || rep.Generation != w.fromGen {
		s.lifecycleMu.Unlock()
		return
	}
	var to uint64
	if ens, man, err := s.Store.LoadGeneration(w.prevGen); err != nil {
		reason += fmt.Sprintf(" (rollback FAILED: %v)", err)
	} else {
		// Durable first: even if the process dies mid-rollback, the next
		// boot serves the good generation.
		if err := s.Store.SetCurrent(w.prevGen); err != nil {
			reason += fmt.Sprintf(" (CURRENT flip failed: %v)", err)
		}
		rep := &core.LoadReport{Generation: w.prevGen, Fingerprint: man.Fingerprint(), FellBack: true}
		if err := s.install(ens, rep, false); err != nil {
			reason += fmt.Sprintf(" (hot-swap FAILED: %v)", err)
		} else {
			to = w.prevGen
		}
	}
	s.lifecycleMu.Unlock()
	s.noteRollback(w, to, reason)
}

func (s *Server) noteRollback(w *promotionWatch, to uint64, reason string) {
	s.lifecycleMu.Lock()
	defer s.lifecycleMu.Unlock()
	s.lifecycle.Rollbacks++
	s.lifecycle.LastRollbackFrom = w.fromGen
	s.lifecycle.LastRollbackTo = to
	s.lifecycle.LastRollbackUnix = time.Now().Unix()
	s.lifecycle.LastRollbackReason = reason
}

// DriftResponse is the JSON body of GET /api/v1/drift.
type DriftResponse struct {
	// Status is the monitor's point-in-time report (detectors, PSI per
	// drifted counter, rolling error).
	Status *drift.Status `json:"status"`
	// Lifecycle is the decision history (triggers, verdicts, rollbacks).
	Lifecycle lifecycleStatus `json:"lifecycle"`
}

// handleDrift answers GET /api/v1/drift. 501 without a monitor: drift
// detection is opt-in (-drift-psi on the server binary).
func (s *Server) handleDrift(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	if s.Drift == nil {
		httpError(w, http.StatusNotImplemented, "drift monitoring is not enabled")
		return
	}
	writeJSON(w, http.StatusOK, &DriftResponse{
		Status:    s.Drift.Snapshot(),
		Lifecycle: s.lifecycleSnapshot(),
	})
}

// AdvisoryJSON is one provenance claim attached to a diagnosis: what the
// lifecycle knows about the models that produced it, each claim with its
// source and the evidence behind it, so a reported bottleneck can be
// trusted (or discounted) in context.
type AdvisoryJSON struct {
	Claim      string `json:"claim"`
	Source     string `json:"source"`
	Confidence string `json:"confidence"`
}

// advisories returns the lifecycle provenance for a diagnosis answered now
// by the generation rep describes (nil without a registry report). It is the
// one part of a single-job reply computed on every request — a cached reply
// is frozen up to this field (see sendDiagnosis) — so a drift trip or a
// rollback shows on the very next answer, cached or not.
func (s *Server) advisories(rep *core.LoadReport) []AdvisoryJSON {
	var advs []AdvisoryJSON
	if rep != nil {
		fp := rep.Fingerprint
		if len(fp) > 12 {
			fp = fp[:12]
		}
		claim := fmt.Sprintf("diagnosis served by model generation %d", rep.Generation)
		if fp != "" {
			claim += fmt.Sprintf(" (fingerprint %s…)", fp)
		}
		advs = append(advs, AdvisoryJSON{
			Claim: claim, Source: "model-registry", Confidence: "exact",
		})
	}
	if s.Drift == nil {
		return advs
	}
	lc := s.lifecycleSnapshot()
	if v := lc.ServingCanary; v != nil && v.Passed {
		advs = append(advs, AdvisoryJSON{
			Claim:      fmt.Sprintf("serving generation admitted by canary gate: %s", v.Reason),
			Source:     "canary-gate",
			Confidence: fmt.Sprintf("measured on %d held-out jobs", v.HoldoutJobs),
		})
	}
	st := s.Drift.Snapshot()
	for i, cd := range st.Drifted {
		if i >= 3 {
			break
		}
		advs = append(advs, AdvisoryJSON{
			Claim: fmt.Sprintf("input distribution drift on %s: PSI %.2f over threshold %.2f — the training-time reference may no longer describe this workload",
				cd.Counter, cd.PSI, st.Threshold),
			Source:     "drift-monitor",
			Confidence: fmt.Sprintf("PSI over %d recent vs %d reference jobs", st.WindowJobs, st.ReferenceJobs),
		})
	}
	if st.BaselineRMSE > 0 && st.ErrorRatio >= 1.25 && st.ErrorObs >= 20 {
		advs = append(advs, AdvisoryJSON{
			Claim: fmt.Sprintf("rolling prediction error %.3f is %.1fx the serving baseline %.3f — predicted performance may be off",
				st.RollingRMSE, st.ErrorRatio, st.BaselineRMSE),
			Source:     "error-tracker",
			Confidence: fmt.Sprintf("%d recent labeled jobs", st.ErrorObs),
		})
	}
	if lc.Rollbacks > 0 && lc.LastRollbackTo != 0 {
		advs = append(advs, AdvisoryJSON{
			Claim: fmt.Sprintf("automatic rollback from generation %d to %d: %s",
				lc.LastRollbackFrom, lc.LastRollbackTo, lc.LastRollbackReason),
			Source:     "rollback-watch",
			Confidence: "measured",
		})
	}
	return advs
}

// sendDiagnosis completes and sends a single-job diagnosis whose body, up to
// the advisories field, is already in eb: it encodes this request's
// advisories as the tail and closes the object. The first answer for a job,
// a keyed cache hit and a hit answered from the request bytes all finish
// here, so the three cannot drift apart. It takes ownership of eb.
func (s *Server) sendDiagnosis(w http.ResponseWriter, rep *core.LoadReport, eb *encodeBuf) {
	if advs := s.advisories(rep); len(advs) > 0 {
		eb.buf.WriteString(`,"advisories":`)
		if err := eb.enc.Encode(advs); err != nil {
			encodeFailed(w, eb, err)
			return
		}
		eb.buf.Truncate(eb.buf.Len() - 1) // Encode's newline
	}
	eb.buf.WriteString("}\n")
	sendEncoded(w, http.StatusOK, eb)
}
