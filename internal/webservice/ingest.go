package webservice

import (
	"fmt"
	"net/http"
	"time"

	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/drift"
	"github.com/hpc-repro/aiio/internal/lifecycle"
)

// Streaming job ingest: POST /api/v1/jobs accepts Darshan text logs (one or
// many records per body, the WriteDataset format), validates each record at
// the boundary, and appends the good ones to the durable joblog. A record
// is acknowledged only after the WAL fsyncs, so an acked job survives a
// crash; the dedup index makes client retries after a lost ack idempotent.
// Records with NaN/Inf or negative counters never enter the training log —
// they are routed to the joblog quarantine with their reason.

// IngestEndpoint is the admission-controller endpoint name for job ingest.
// Give it its own budget with Controller.SetConfig(IngestEndpoint, cfg):
// ingest is cheap I/O while diagnosis is heavy compute, so sharing one
// limit starves whichever came second.
const IngestEndpoint = "ingest"

// IngestResponse is the JSON body of POST /api/v1/jobs.
type IngestResponse struct {
	// Accepted records are durably in the log (fsynced before this response).
	Accepted int `json:"accepted"`
	// Duplicates were already present (an idempotent retry or re-shipment).
	Duplicates int `json:"duplicates"`
	// Quarantined records failed boundary validation (non-finite counters);
	// their bytes are preserved in the joblog quarantine, not dropped.
	Quarantined int `json:"quarantined"`
	// ParseRejected chunks could not be parsed as records at all.
	ParseRejected int `json:"parse_rejected"`
	// Pending is the retrain backlog after this request.
	Pending int `json:"pending"`
	// RetrainTriggered reports that this request pushed the backlog over
	// the threshold and a background retraining cycle started.
	RetrainTriggered bool `json:"retrain_triggered,omitempty"`
	// DriftTripped reports that the drift monitor is over a trip threshold
	// after this request; DriftRetrainTriggered that the trip (rather than
	// the backlog threshold) started the background cycle.
	DriftTripped          bool `json:"drift_tripped,omitempty"`
	DriftRetrainTriggered bool `json:"drift_retrain_triggered,omitempty"`
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if s.JobLog == nil {
		httpError(w, http.StatusNotImplemented, "job ingest is not enabled (no -joblog-dir)")
		return
	}
	// Ingest bodies are batches; give them the same 4× budget as the other
	// batch endpoints.
	ds, rejected, err := darshan.ParseDatasetLenient(http.MaxBytesReader(w, r.Body, 4*s.maxBody()))
	if err != nil {
		bodyError(w, err)
		return
	}
	if ds.Len() == 0 && len(rejected) == 0 {
		httpError(w, http.StatusBadRequest, "request body holds no records")
		return
	}
	var resp IngestResponse
	// The lenient parser already vets counters (NaN/Inf/negative) and
	// malformed chunks; its rejections carry a reason but no recoverable
	// record, so they are preserved in quarantine as notes.
	for _, re := range rejected {
		if qerr := s.JobLog.QuarantineNote(re.Error()); qerr != nil {
			httpError(w, http.StatusInternalServerError, fmt.Sprintf("quarantine record: %v", qerr))
			return
		}
	}
	resp.ParseRejected = len(rejected)
	var observed []*darshan.Record
	for _, rec := range ds.Records {
		// The ingest boundary is where corrupt telemetry is stopped: a
		// record with non-finite counters is preserved in quarantine for
		// the operator, never trained on.
		if verr := rec.Validate(); verr != nil {
			if qerr := s.JobLog.QuarantineRecord(rec, verr.Error()); qerr != nil {
				httpError(w, http.StatusInternalServerError, fmt.Sprintf("quarantine record: %v", qerr))
				return
			}
			resp.Quarantined++
			continue
		}
		res, aerr := s.JobLog.Append(rec)
		if aerr != nil {
			httpError(w, http.StatusInternalServerError, fmt.Sprintf("append job: %v", aerr))
			return
		}
		if res.Duplicate {
			resp.Duplicates++
		} else {
			resp.Accepted++
			observed = append(observed, rec)
		}
	}
	// The durability barrier: nothing above is acknowledged until the WAL
	// is fsynced. A crash before this line loses only unacked records,
	// which the client will retry into the dedup index.
	if resp.Accepted > 0 {
		if err := s.JobLog.Sync(); err != nil {
			httpError(w, http.StatusInternalServerError, fmt.Sprintf("sync joblog: %v", err))
			return
		}
	}
	resp.Pending = s.JobLog.Pending()
	// Drift observation happens after the durability barrier: only jobs
	// that are truly in the training log shape the monitor's view of the
	// world. Duplicates (client retries) are skipped so a retry storm
	// cannot fake a distribution shift.
	var trip *drift.Status
	if s.Drift != nil {
		s.observeIngest(observed)
		if tripped, st := s.Drift.Tripped(); tripped {
			trip = st
		}
	}
	if s.Retrainer != nil {
		s.lifecycleMu.Lock()
		for _, c := range s.step(lifecycle.Ingested{Pending: resp.Pending, Trip: trip, Unix: time.Now().Unix()}) {
			if c, ok := c.(lifecycle.StartRetrain); ok {
				resp.RetrainTriggered, resp.DriftRetrainTriggered = !c.Drift, c.Drift
			}
		}
		s.lifecycleMu.Unlock()
	}
	resp.DriftTripped = trip != nil && !resp.RetrainTriggered
	writeJSON(w, http.StatusOK, &resp)
}
