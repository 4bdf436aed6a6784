package webservice

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"slices"
	"time"

	"github.com/hpc-repro/aiio/internal/core"
	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/drift"
	"github.com/hpc-repro/aiio/internal/features"
	"github.com/hpc-repro/aiio/internal/lifecycle"
)

// The imperative shell of the self-healing model lifecycle (DESIGN.md §14):
// what happens is stepped through the lifecycle.Machine under lifecycleMu,
// and step carries out its commands. Every swap of the serving set goes
// through install, and every decision leaves provenance on /api/v1/drift,
// /healthz and in diagnosis advisories.

// SetLifecycle sets the lifecycle's thresholds; call it before serving.
func (s *Server) SetLifecycle(cfg lifecycle.Config) { s.lc.Config = cfg }

// lifecycleSnapshot returns a copy of the decision history.
func (s *Server) lifecycleSnapshot() lifecycle.Status {
	s.lifecycleMu.Lock()
	defer s.lifecycleMu.Unlock()
	return s.lc.Status()
}

// step feeds ev to the lifecycle machine, carries out the commands it
// returns, and returns them. The caller holds lifecycleMu.
func (s *Server) step(ev lifecycle.Event) []lifecycle.Command {
	cmds := s.lc.Step(ev)
	for _, c := range cmds {
		switch c := c.(type) {
		case lifecycle.StartRetrain:
			go func() {
				ens, gen, err := s.Retrainer(context.Background())
				s.lifecycleMu.Lock()
				defer s.lifecycleMu.Unlock()
				s.step(lifecycle.RetrainDone{Ensemble: ens, Generation: gen, Err: err, Unix: time.Now().Unix()})
			}()
		case lifecycle.Promote:
			// install probes the set once more (the swap is the last line of
			// defense) and stamps its fingerprint so replication peers see it.
			if err := s.install(c.Ensemble, s.storeReport(c.Generation)); err != nil {
				err = fmt.Errorf("retrained set swap rolled back: %v", err)
				s.step(lifecycle.RetrainDone{Err: err, Unix: time.Now().Unix()})
			}
		case lifecycle.Rollback:
			s.rollback(c)
		}
	}
	return cmds
}

// observeIngest feeds durably accepted records into the drift monitor:
// counters into the distribution sketches and — every ingested job is
// labeled with its measured performance — the prediction error into the
// rolling ring, stepped as one labeled sample per record.
func (s *Server) observeIngest(recs []*darshan.Record) {
	ens, _, _ := s.snapshot()
	for _, rec := range recs {
		s.Drift.Observe(rec)
		if pred, ok := safeMeanPredict(ens, rec); ok {
			s.Drift.ObserveError(pred, features.Transform(features.Sanitize(rec.PerfMiBps)))
		}
		s.lifecycleMu.Lock()
		rmse, n := s.Drift.RollingRMSE()
		s.step(lifecycle.ErrorSample{RMSE: rmse, N: n})
		s.lifecycleMu.Unlock()
	}
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

// install makes ens, described by rep, the serving model set. Boot, upload,
// auto-promotion, peer adoption and rollback all go through it, so each
// consequence of a swap happens once, in one order, and no lifecycle state
// outlives the generation it describes. A set failing its probe is refused
// and the old set keeps serving. The caller holds lifecycleMu, which
// serializes transitions.
func (s *Server) install(ens *core.Ensemble, rep *core.LoadReport) error {
	for _, m := range ens.Models {
		if err := probeModel(m); err != nil {
			return fmt.Errorf("webservice: model %s failed validation, swap refused: %w", m.Name(), err)
		}
	}
	// The generation's sidecars: the gate verdict that admitted it and the
	// drift reference sketched from its training set.
	ev := lifecycle.Installed{Watchable: s.Drift != nil && s.Store != nil}
	if rep != nil {
		ev.Generation = rep.Generation
	}
	if s.Store != nil && rep != nil {
		if man, err := s.Store.Manifest(rep.Generation); err == nil {
			ev.Canary = man.Canary
		}
		if data, err := s.Store.Reference(rep.Generation); err == nil && data != nil {
			ev.Reference, _ = drift.ParseReference(data)
		}
	}

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
	// The pre-transition serving error, read before the ring resets, is the
	// watch's preferred baseline.
	if s.Drift != nil {
		ev.RingRMSE, ev.RingN = s.Drift.RollingRMSE()
		if ev.Reference != nil {
			s.Drift.SetReference(ev.Reference)
		}
		s.Drift.ResetErrors()
	}
	s.step(ev)
	return nil
}

// rollback carries out a Rollback, durable first: the registry commits
// generation To's content again as the newest generation, so a crash
// mid-rollback boots the known-good set and replication carries it to every
// peer (the regressing generation's files stay on disk for the operator).
// It then installs that commit the way Syncer.adopt installs an import. The
// caller holds lifecycleMu.
func (s *Server) rollback(c lifecycle.Rollback) {
	reason, to := c.Reason, uint64(0)
	gen, err := s.Store.Restore(c.To)
	var ens *core.Ensemble
	if err == nil {
		ens, _, err = s.Store.LoadGeneration(gen)
	}
	if err == nil {
		err = s.install(ens, s.storeReport(gen))
	}
	if err != nil {
		reason += fmt.Sprintf(" (rollback FAILED: %v)", err)
	} else {
		to = c.To
	}
	s.step(lifecycle.RolledBack{From: c.From, To: to, Reason: reason, Unix: time.Now().Unix()})
}

// DriftResponse is the JSON body of GET /api/v1/drift.
type DriftResponse struct {
	// Status is the monitor's point-in-time report (detectors, PSI per
	// drifted counter, rolling error).
	Status *drift.Status `json:"status"`
	// Lifecycle is the decision history (triggers, verdicts, rollbacks).
	Lifecycle lifecycle.Status `json:"lifecycle"`
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
