package webservice

import (
	"fmt"
	"math"
	"net/http"
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
// previous generation through the registry's CURRENT pointer and the same
// validated hot-swap path a promotion uses. Every decision leaves
// provenance — which counters drifted, which gate passed, what the watch
// saw — on /api/v1/drift, /healthz, and in diagnosis advisories.

// promotionWatch is armed after each auto-promotion: it compares rolling
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
}

// lifecycleSnapshot returns a copy of the decision history.
func (s *Server) lifecycleSnapshot() lifecycleStatus {
	s.lifecycleMu.Lock()
	defer s.lifecycleMu.Unlock()
	st := s.lifecycle
	st.WatchArmed = s.watch.Load() != nil
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

// afterPromotion runs once a retrained generation has been adopted into
// the serving path: re-arm the drift monitor against the new generation's
// persisted reference snapshot, reset the error ring so the watch judges
// only the new model, record the admitting verdict, and arm the
// post-promotion rollback watch against the pre-promotion baseline.
func (s *Server) afterPromotion(prevGen, gen uint64) {
	if s.Drift == nil {
		return
	}
	// The pre-promotion baseline: what serving error looked like under the
	// old generation, captured before the ring resets.
	prevRMSE, prevN := s.Drift.RollingRMSE()

	var verdict *core.CanaryRecord
	var ref *drift.Reference
	if s.Store != nil {
		if man, err := s.Store.Manifest(gen); err == nil {
			verdict = man.Canary
		}
		if data, err := s.Store.Reference(gen); err == nil && data != nil {
			ref, _ = drift.ParseReference(data)
		}
	}
	if ref != nil {
		s.Drift.SetReference(ref)
	}
	s.Drift.ResetErrors()

	s.lifecycleMu.Lock()
	s.lifecycle.ServingCanary = verdict
	s.lifecycleMu.Unlock()

	if s.RollbackRatio <= 0 || prevGen == 0 || prevGen == gen {
		return
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
		return
	}
	budget := s.RollbackWatch
	if budget <= 0 {
		budget = 200
	}
	minObs := budget / 8
	if minObs < 10 {
		minObs = 10
	}
	s.watch.Store(&promotionWatch{
		fromGen:  gen,
		prevGen:  prevGen,
		baseline: baseline,
		ratio:    s.RollbackRatio,
		budget:   budget,
		minObs:   minObs,
	})
}

// checkWatch evaluates the post-promotion watch against the rolling error.
// A spike past baseline×ratio disarms the watch and rolls back in the
// background (single consumer via CompareAndSwap — concurrent ingests
// race here); surviving the budget disarms it quietly.
func (s *Server) checkWatch() {
	w := s.watch.Load()
	if w == nil {
		return
	}
	rmse, n := s.Drift.RollingRMSE()
	if n < w.minObs {
		return
	}
	if rmse >= w.baseline*w.ratio {
		if s.watch.CompareAndSwap(w, nil) {
			go s.rollback(w, rmse, n)
		}
		return
	}
	if n >= w.budget {
		s.watch.CompareAndSwap(w, nil)
	}
}

// rollback demotes a regressing promotion: flip the registry's CURRENT
// back to the previous generation (so a restart loads the known-good set
// — the regressing generation's files stay on disk for the operator),
// hot-swap the previous models back in through the same validated adopt
// path a promotion uses, and re-arm the drift monitor against the restored
// generation's reference.
func (s *Server) rollback(w *promotionWatch, rmse float64, n int) {
	reason := fmt.Sprintf("rolling RMSE %.4f over %d labeled jobs is %.1fx the pre-promotion baseline %.4f",
		rmse, n, rmse/w.baseline, w.baseline)
	if s.Store == nil {
		return
	}
	ens, man, err := s.Store.LoadGeneration(w.prevGen)
	if err != nil {
		s.noteRollback(w, 0, reason+fmt.Sprintf(" (rollback FAILED: %v)", err))
		return
	}
	// Durable first: even if the process dies mid-rollback, the next boot
	// serves the good generation.
	if err := s.Store.SetCurrent(w.prevGen); err != nil {
		reason += fmt.Sprintf(" (CURRENT flip failed: %v)", err)
	}
	rep := &core.LoadReport{Generation: w.prevGen, Fingerprint: man.Fingerprint(), FellBack: true}
	if err := s.AdoptGeneration(ens, rep); err != nil {
		s.noteRollback(w, 0, reason+fmt.Sprintf(" (hot-swap FAILED: %v)", err))
		return
	}
	if s.Drift != nil {
		if data, err := s.Store.Reference(w.prevGen); err == nil && data != nil {
			if ref, perr := drift.ParseReference(data); perr == nil {
				s.Drift.SetReference(ref)
			}
		}
		s.Drift.ResetErrors()
	}
	s.noteRollback(w, w.prevGen, reason)
}

func (s *Server) noteRollback(w *promotionWatch, to uint64, reason string) {
	s.lifecycleMu.Lock()
	defer s.lifecycleMu.Unlock()
	s.lifecycle.Rollbacks++
	s.lifecycle.LastRollbackFrom = w.fromGen
	s.lifecycle.LastRollbackTo = to
	s.lifecycle.LastRollbackUnix = time.Now().Unix()
	s.lifecycle.LastRollbackReason = reason
	// The admitting verdict no longer describes what serves.
	s.lifecycle.ServingCanary = nil
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
