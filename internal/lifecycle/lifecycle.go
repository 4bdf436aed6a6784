// Package lifecycle decides the self-healing model lifecycle of the web
// service (DESIGN.md §14): when ingest starts a retrain, what a finished
// retrain does, whether a promotion is watched and against which baseline,
// when a labeled error sample rolls it back, and when a replica adopts a
// peer's generation. A Machine is pure — no clock, goroutine, lock or I/O:
// its caller turns what happened into an Event, calls Step, and carries
// out the Commands it returns. The webservice package is that caller.
package lifecycle

import (
	"errors"
	"fmt"

	"github.com/hpc-repro/aiio/internal/core"
	"github.com/hpc-repro/aiio/internal/drift"
)

// DefaultRollbackWatch is the post-promotion watch's budget, in labeled
// jobs, when Config.RollbackWatch is 0.
const DefaultRollbackWatch = 200

// Config holds the lifecycle's thresholds.
type Config struct {
	// RetrainThreshold, when > 0, starts a retrain once the ingest backlog
	// reaches this many jobs.
	RetrainThreshold int
	// RollbackRatio, when > 0, arms a watch after each promotion: rolling
	// serving error reaching RollbackRatio × the pre-promotion baseline
	// rolls back to the generation that served before.
	RollbackRatio float64
	// RollbackWatch is how many labeled jobs the watch covers before the
	// promotion is judged safe (DefaultRollbackWatch when 0).
	RollbackWatch int
}

// An Event is something that happened to the serving loop: an Ingested,
// RetrainDone, Installed, ErrorSample or RolledBack.
type Event any

// Ingested: an ingest request's records are durable and observed. Trip is
// the drift monitor's status when a detector is tripped, else nil.
type Ingested struct {
	Pending int // the retrain backlog after the request
	Trip    *drift.Status
	Unix    int64
}

// RetrainDone: the retrain a StartRetrain began has returned what it
// committed, or an error — also when the install its Promote asked for
// refused the set.
type RetrainDone struct {
	Ensemble   *core.Ensemble
	Generation uint64
	Err        error
	Unix       int64
}

// Installed: a model set went live, from any source, with its generation's
// sidecars (nil when it has none) and the serving error over the last
// RingN labeled jobs before the swap. Watchable is true when the caller can
// measure serving error and reload an earlier generation.
type Installed struct {
	Generation uint64
	Canary     *core.CanaryRecord
	Reference  *drift.Reference
	RingRMSE   float64
	RingN      int
	Watchable  bool
}

// ErrorSample: one labeled job went through the rolling error ring, which
// now covers N jobs at RMSE.
type ErrorSample struct {
	RMSE float64
	N    int
}

// RolledBack: a Rollback was carried out; To is 0 when it failed, and
// Reason says why it ran and what failed.
type RolledBack struct {
	From, To uint64
	Reason   string
	Unix     int64
}

// A Command is what the caller must carry out: a StartRetrain, Promote or
// Rollback.
type Command any

// StartRetrain: run one retraining cycle in the background and step its
// RetrainDone. Drift is true when a drift trip, not the backlog, started it.
type StartRetrain struct{ Drift bool }

// Promote: install the set a RetrainDone reported.
type Promote struct {
	Ensemble   *core.Ensemble
	Generation uint64
}

// Rollback: make generation To serve again in place of From, durably, then
// step RolledBack.
type Rollback struct {
	From, To uint64
	Reason   string
}

// Status is the lifecycle's decision history: the "lifecycle" object of
// GET /api/v1/drift, the counters on /healthz and the source of diagnosis
// advisories. It counts drift-started retrains (as opposed to backlog
// ones), candidates the canary gate blocked and automatic rollbacks, each
// with the provenance of the most recent; ServingCanary is the verdict
// that admitted the serving generation (nil when it was not promoted).
// Retraining (from StartRetrain until the promotion resolves) and
// LastRetrain (nil before the first finished cycle) are for /healthz.
type Status struct {
	DriftRetrains       uint64               `json:"drift_retrains"`
	LastTrippedBy       string               `json:"last_tripped_by,omitempty"`
	LastTrippedCounters []drift.CounterDrift `json:"last_tripped_counters,omitempty"`
	LastTrippedUnix     int64                `json:"last_tripped_unix,omitempty"`
	ServingCanary       *core.CanaryRecord   `json:"serving_canary,omitempty"`
	CanaryBlocked       uint64               `json:"canary_blocked"`
	LastBlocked         *core.CanaryRecord   `json:"last_blocked,omitempty"`
	LastBlockedUnix     int64                `json:"last_blocked_unix,omitempty"`
	Rollbacks           uint64               `json:"rollbacks"`
	LastRollbackFrom    uint64               `json:"last_rollback_from,omitempty"`
	LastRollbackTo      uint64               `json:"last_rollback_to,omitempty"`
	LastRollbackUnix    int64                `json:"last_rollback_unix,omitempty"`
	LastRollbackReason  string               `json:"last_rollback_reason,omitempty"`
	WatchArmed          bool                 `json:"watch_armed"`
	Retraining          bool                 `json:"-"`
	LastRetrain         *RetrainOutcome      `json:"-"`
}

// RetrainOutcome is one finished retraining cycle: the generation it
// promoted, or why it did not (the /healthz "retrain" fields).
type RetrainOutcome struct {
	Generation   uint64 `json:"last_generation"`
	FinishedUnix int64  `json:"last_unix"`
	Err          string `json:"last_error,omitempty"`
}

// Machine makes every lifecycle decision and holds the state they rest
// on. The zero value, given a Config, is ready; it is not safe for
// concurrent use. serving is the generation the last install made live;
// watch is the live post-promotion watch (nil between promotions), never
// changed in place, so a copied Machine is independent.
type Machine struct {
	Config    Config
	status    Status
	promoting bool
	serving   uint64
	watch     *watch
}

// watch judges a promotion of generation from over to against baseline.
type watch struct {
	from, to uint64
	baseline float64
}

// Status returns a copy of the decision history.
func (m *Machine) Status() Status {
	st := m.status
	st.WatchArmed = m.watch != nil
	return st
}

// Step applies ev and returns the commands it calls for, in order.
func (m *Machine) Step(ev Event) []Command {
	st := &m.status
	switch e := ev.(type) {
	case Ingested:
		// At most one retrain runs: it drains the same backlog a second
		// would. The backlog threshold comes first; a drift trip starts the
		// same retrain, and the canary gate inside it decides whether the
		// result promotes.
		backlog := m.Config.RetrainThreshold > 0 && e.Pending >= m.Config.RetrainThreshold
		if st.Retraining || (!backlog && e.Trip == nil) {
			return nil
		}
		st.Retraining = true
		if !backlog {
			st.DriftRetrains++
			st.LastTrippedBy, st.LastTrippedCounters, st.LastTrippedUnix = e.Trip.TrippedBy, e.Trip.Drifted, e.Unix
		}
		return []Command{StartRetrain{Drift: !backlog}}
	case RetrainDone:
		if e.Err == nil {
			m.promoting = true
			st.LastRetrain = &RetrainOutcome{Generation: e.Generation, FinishedUnix: e.Unix}
			return []Command{Promote{Ensemble: e.Ensemble, Generation: e.Generation}}
		}
		// A canary-blocked candidate is a decision, not a failure: the gate
		// judged it worse than the serving set. Its verdict is provenance.
		var blocked *core.CanaryBlockedError
		if errors.As(e.Err, &blocked) {
			st.CanaryBlocked++
			st.LastBlocked, st.LastBlockedUnix = blocked.Verdict, e.Unix
		}
		st.Retraining, m.promoting = false, false
		st.LastRetrain = &RetrainOutcome{FinishedUnix: e.Unix, Err: e.Err.Error()}
	case Installed:
		// No watch outlives the generation it describes, and the canary
		// provenance is the new generation's own.
		prev := m.serving
		m.serving, st.ServingCanary, m.watch = e.Generation, e.Canary, nil
		if !m.promoting {
			return nil
		}
		st.Retraining, m.promoting = false, false
		if !e.Watchable || m.Config.RollbackRatio <= 0 || prev == 0 || prev == e.Generation {
			return nil
		}
		// Baseline preference: the measured pre-promotion serving error
		// when the ring held enough samples; else the candidate's own
		// held-out RMSE; else the reference's recorded baseline. No
		// baseline, no watch.
		switch {
		case e.RingN >= 20 && e.RingRMSE > 0:
			m.watch = &watch{from: e.Generation, to: prev, baseline: e.RingRMSE}
		case e.Canary != nil && e.Canary.CandidateRMSE > 0:
			m.watch = &watch{from: e.Generation, to: prev, baseline: e.Canary.CandidateRMSE}
		case e.Reference != nil && e.Reference.BaselineRMSE > 0:
			m.watch = &watch{from: e.Generation, to: prev, baseline: e.Reference.BaselineRMSE}
		}
	case ErrorSample:
		// A spike past baseline × ratio disarms the watch and rolls back;
		// surviving the budget disarms it quietly. A verdict rests on at
		// least an eighth of the budget, and at least 10 jobs.
		w, budget := m.watch, m.Config.RollbackWatch
		if budget <= 0 {
			budget = DefaultRollbackWatch
		}
		if w == nil || e.N < max(budget/8, 10) {
			return nil
		}
		if e.RMSE >= w.baseline*m.Config.RollbackRatio {
			m.watch = nil
			return []Command{Rollback{From: w.from, To: w.to, Reason: fmt.Sprintf(
				"rolling RMSE %.4f over %d labeled jobs is %.1fx the pre-promotion baseline %.4f",
				e.RMSE, e.N, e.RMSE/w.baseline, w.baseline)}}
		}
		if e.N >= budget {
			m.watch = nil
		}
	case RolledBack:
		st.Rollbacks++
		st.LastRollbackFrom, st.LastRollbackTo, st.LastRollbackUnix, st.LastRollbackReason = e.From, e.To, e.Unix, e.Reason
	}
	return nil
}

// ShouldAdopt is the replication convergence rule: a replica serving
// localGen with fingerprint localFp adopts a peer's generation iff the
// peer's is newer with other content (a match at a higher number is the
// same content renumbered), or has the same number and a strictly higher
// fingerprint — the split-brain tie-break both sides agree on, so they
// converge instead of ping-ponging. A peer with no fingerprint (a legacy
// checksumless registry) has no content identity and is never adopted.
func ShouldAdopt(localGen uint64, localFp string, peerGen uint64, peerFp string) bool {
	if peerFp == "" || peerFp == localFp {
		return false
	}
	if peerGen > localGen {
		return true
	}
	return peerGen == localGen && peerFp > localFp
}
