// Package webservice puts AIIO into practice the way Section 3.4 / Fig. 17
// describes: an HTTP service that loads pre-trained performance functions
// from a model registry, accepts Darshan log uploads, and returns the merged
// job-level diagnosis as JSON. The service can also accept new pre-trained
// models at runtime, matching the paper's note that the web service "may
// accept new models from users".
package webservice

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpc-repro/aiio/internal/admission"
	"github.com/hpc-repro/aiio/internal/core"
	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/drift"
	"github.com/hpc-repro/aiio/internal/joblog"
	"github.com/hpc-repro/aiio/internal/parallel"
	"github.com/hpc-repro/aiio/internal/tune"
)

// FactorJSON is one counter contribution in a response.
type FactorJSON struct {
	Counter      string  `json:"counter"`
	Contribution float64 `json:"contribution"`
	Value        float64 `json:"value"`
}

// ModelResult is one performance function's output for the job. A model
// that failed (panic, non-finite output) carries its error instead of a
// prediction and a zero weight.
type ModelResult struct {
	Name           string  `json:"name"`
	PredictedMiBps float64 `json:"predicted_mibps"`
	Weight         float64 `json:"weight"`
	Error          string  `json:"error,omitempty"`
}

// DiagnosisResponse is the JSON body of POST /api/v1/diagnose.
type DiagnosisResponse struct {
	App          string        `json:"app"`
	ActualMiBps  float64       `json:"actual_mibps"`
	Models       []ModelResult `json:"models"`
	ClosestModel string        `json:"closest_model"`
	// Factors are the merged (Average Method) contributions, by |impact|.
	Factors []FactorJSON `json:"factors"`
	// Bottlenecks are the negative factors, most negative first.
	Bottlenecks []FactorJSON `json:"bottlenecks"`
	Robust      bool         `json:"robust"`
	// Degraded is true when one or more models failed and the merge covers
	// only the surviving subset; SkippedModels names the casualties.
	Degraded      bool     `json:"degraded,omitempty"`
	SkippedModels []string `json:"skipped_models,omitempty"`
	// Recommendations are the tuning advisor's ranked suggestions with
	// model-predicted gains.
	Recommendations []RecommendationJSON `json:"recommendations,omitempty"`
	// AdvisoryError is set when the diagnosis succeeded but the tuning
	// advisor failed; the diagnosis above is still complete and valid.
	AdvisoryError string `json:"advisory_error,omitempty"`
	// Advisories are per-claim provenance statements from the model
	// lifecycle (which generation served, which canary gate admitted it,
	// which counters have drifted since training) — the trust context for
	// the diagnosis above. See lifecycle.go. The server never fills it in:
	// it encodes the advisories as a tail after the (possibly cached) rest
	// of the object — see sendDiagnosis — so the field stays last for the
	// wire order to match the struct.
	Advisories []AdvisoryJSON `json:"advisories,omitempty"`
}

// RecommendationJSON is one automatic tuning recommendation.
type RecommendationJSON struct {
	Action         string  `json:"action"`
	Description    string  `json:"description"`
	PredictedMiBps float64 `json:"predicted_mibps"`
	PredictedGain  float64 `json:"predicted_gain"`
}

// ModelInfo describes one registered model.
type ModelInfo struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

// DefaultMaxBody caps a single-log request body when Server.MaxBody is 0.
// Batch and model-upload endpoints get 4× the single-log cap.
const DefaultMaxBody = 16 << 20

// Server is the AIIO web service.
type Server struct {
	// RequestTimeout, when > 0, is the per-request diagnosis deadline. A
	// request whose SHAP work outlives it is cancelled cooperatively and
	// answered with a structured 503 instead of holding a worker forever.
	RequestTimeout time.Duration
	// MaxBody caps the accepted request body in bytes (DefaultMaxBody when
	// 0). An oversized upload is refused with 413.
	MaxBody int64
	// CacheSize bounds the LRU cache of diagnosis results (DefaultCacheSize
	// when 0, negative disables caching). A cached entry is keyed by the
	// model-set version and the job's full identity, so repeat diagnoses of
	// the same log skip the SHAP work entirely, and from the second repeat
	// on the same request bytes are answered from the entry's rendered
	// response without being parsed (see diagCache); every model upload
	// invalidates the whole cache. Set before the first request.
	CacheSize int
	// Admission, when non-nil, gates the diagnosis endpoints with bounded
	// per-endpoint concurrency: excess load is shed with a structured 429
	// and a Retry-After hint instead of queueing without bound. Set before
	// the first request.
	Admission *admission.Controller
	// Breakers, when non-nil, puts a circuit breaker in front of each
	// model: a model failing repeatedly is taken out of rotation (the
	// diagnosis degrades over the survivors, like the PR 2 degraded path)
	// until its cooldown probe succeeds. When every model's breaker is
	// open, diagnoses answer 503 with the X-AIIO-Breaker: open header.
	Breakers *admission.BreakerSet
	// Store, when non-nil, persists each accepted model upload as a new
	// registry generation, so a validated hot-swap survives a restart.
	Store *core.Store
	// JobLog, when non-nil, enables POST /api/v1/jobs: streaming job ingest
	// into the durable WAL, deduplicated by job hash so client retries are
	// idempotent. Set before the first request.
	JobLog *joblog.Store
	// RetrainThreshold, when > 0 with a JobLog and Retrainer wired in,
	// triggers a background incremental retrain once the ingest backlog
	// reaches this many jobs.
	RetrainThreshold int
	// Retrainer runs one incremental retraining cycle (typically
	// core.RunIncremental against the JobLog and Store) and returns the
	// freshly committed ensemble and its generation. Invoked single-flight
	// from ingest; also reachable via TriggerRetrain.
	Retrainer func(ctx context.Context) (*core.Ensemble, uint64, error)
	// CoalesceWindow is ignored.
	//
	// Deprecated: ignored since single-flight replaced the window; kept only
	// so cmd/aiio-bench compiles until a [benchmark] PR drops it.
	CoalesceWindow time.Duration
	// Drift, when non-nil, streams every durably ingested job through
	// bounded-memory distribution sketches and rolling prediction-error
	// tracking; a tripped detector triggers the same single-flight retrain
	// a backlog threshold does, canary-gated before promotion. Set before
	// the first request. See lifecycle.go and internal/drift.
	Drift *drift.Monitor
	// RollbackRatio, when > 0 with Drift wired in, arms a post-promotion
	// watch after each auto-promoted retrain: rolling serving error
	// reaching RollbackRatio × the pre-promotion baseline rolls the swap
	// back to the previous generation automatically.
	RollbackRatio float64
	// RollbackWatch is how many labeled jobs the post-promotion watch
	// covers before the promotion is judged safe (default 200).
	RollbackWatch int

	// flights collapses concurrent identical cache misses into one
	// diagnosis (see singleflight.go).
	flights flightGroup

	// watch is the live post-promotion rollback watch (nil between
	// promotions); lifecycleMu guards the lifecycle decision history.
	watch       atomic.Pointer[promotionWatch]
	lifecycleMu sync.Mutex
	lifecycle   lifecycleStatus

	// retrainBusy makes retraining single-flight: a trigger while one cycle
	// is running is a no-op (the running cycle drains the same backlog).
	retrainBusy atomic.Bool
	// retrainState mirrors the last cycle's outcome for /healthz.
	retrainState atomic.Pointer[retrainStatus]

	// genReport mirrors the registry load report for /readyz (which
	// generation is serving, whether it was a fallback); set with
	// SetGeneration, updated by persisted hot-swaps.
	genReport atomic.Pointer[core.LoadReport]

	// draining is set by BeginDrain: readiness goes red and, with no
	// Admission controller to refuse work, the diagnosis endpoints shed
	// directly.
	draining atomic.Bool

	// cacheOnce pins the cache (or its absence) at first use.
	cacheOnce sync.Once
	cache     *diagCache

	mu   sync.RWMutex
	ens  *core.Ensemble
	opts core.DiagnoseOptions
	// version counts model-set generations: it starts at 1 and each upload
	// increments it, so cache keys from older ensembles can never match.
	version uint64
	// advise produces tuning recommendations for a finished diagnosis; a
	// field so tests can inject failures. An advise error never fails the
	// diagnosis — it degrades to AdvisoryError in the response.
	advise func(*core.Ensemble, *core.Diagnosis) ([]tune.Recommendation, error)
}

// NewServer wraps a trained ensemble.
func NewServer(ens *core.Ensemble, opts core.DiagnoseOptions) *Server {
	return &Server{
		ens:     ens,
		opts:    opts,
		version: 1,
		advise: func(e *core.Ensemble, d *core.Diagnosis) ([]tune.Recommendation, error) {
			return tune.New(e).Advise(d, 1.05)
		},
	}
}

// diagnosisCache returns the result cache, created at first use from
// CacheSize; nil when caching is disabled.
func (s *Server) diagnosisCache() *diagCache {
	s.cacheOnce.Do(func() {
		size := s.CacheSize
		if size == 0 {
			size = DefaultCacheSize
		}
		if size > 0 {
			s.cache = newDiagCache(size)
		}
	})
	return s.cache
}

// snapshot returns the current model set and options without holding any
// lock during the (multi-second) diagnosis that follows: the Models slice
// is copied under a read lock and a concurrent upload swaps in a new slice
// element rather than mutating a model in place, so diagnoses in flight
// keep working against the set they started with.
func (s *Server) snapshot() (*core.Ensemble, core.DiagnoseOptions, uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	models := append([]core.Model(nil), s.ens.Models...)
	return &core.Ensemble{Models: models}, s.opts, s.version
}

// modelVersion returns the current model-set version alone, for the lookup
// that needs no model set.
func (s *Server) modelVersion() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.version
}

// ServingEnsemble returns a lock-free snapshot copy of the model set
// currently answering traffic — the incumbent a canary gate evaluates a
// retrained candidate against.
func (s *Server) ServingEnsemble() *core.Ensemble {
	ens, _, _ := s.snapshot()
	return ens
}

// Handler returns the HTTP routes, every one wrapped in the protection
// middleware (panic recovery + per-request deadline).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/diagnose", s.admitted("diagnose", s.handleDiagnoseHTML))
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/readyz", s.handleReady)
	mux.HandleFunc("/api/v1/models", s.handleModels)
	mux.HandleFunc("/api/v1/diagnose", s.admitted("diagnose", s.handleDiagnose))
	mux.HandleFunc("/api/v1/diagnose/batch", s.admitted("batch", s.handleDiagnoseBatch))
	mux.HandleFunc("/api/v1/jobs", s.admitted(IngestEndpoint, s.handleJobs))
	mux.HandleFunc("/api/v1/drift", s.handleDrift)
	mux.HandleFunc("/api/v1/generations", s.handleGenerations)
	mux.HandleFunc("/api/v1/generations/", s.handleGenerationFetch)
	return s.protect(mux)
}

// protect wraps h with the two blanket guards every route gets: a recover
// that converts a handler panic into a 500 (one hostile request must not
// take the whole service down), and — when RequestTimeout is set — a
// context deadline derived per request, so the diagnosis engine's
// cooperative cancellation bounds how long any request can hold the SHAP
// workers.
func (s *Server) protect(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				// Best effort: if the handler already wrote a status this
				// only appends to the body.
				httpError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", rec))
			}
		}()
		if s.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		h.ServeHTTP(w, r)
	})
}

// admitted wraps a diagnosis handler with the admission gate for one
// endpoint. A shed request is answered immediately — 429 + Retry-After
// for overload, 503 for a drain — without ever reaching the parser or
// the diagnosis engine (so it cannot occupy memory, workers, or a cache
// slot). With no Admission controller configured, only the drain flag is
// enforced.
func (s *Server) admitted(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.Admission == nil {
			if s.draining.Load() {
				s.writeShed(w, admission.ErrDraining, admission.DefaultRetryAfter)
				return
			}
			h(w, r)
			return
		}
		lim := s.Admission.Limiter(endpoint)
		release, err := lim.Acquire(r.Context())
		if err != nil {
			s.writeShed(w, err, lim.RetryAfter())
			return
		}
		defer release()
		h(w, r)
	}
}

// writeShed answers a request refused by the admission layer: 503 for a
// draining server, 429 + Retry-After for overload or a dead-on-arrival
// deadline.
func (s *Server) writeShed(w http.ResponseWriter, err error, retryAfter time.Duration) {
	secs := int(math.Ceil(retryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	status := http.StatusTooManyRequests
	msg := "server overloaded, request shed"
	if errors.Is(err, admission.ErrDraining) {
		status = http.StatusServiceUnavailable
		msg = "server is draining"
	}
	writeJSON(w, status, map[string]any{
		"error":       msg,
		"detail":      err.Error(),
		"retry_after": secs,
	})
}

// BeginDrain flips the server into drain mode: /readyz reports not-ready
// (so load balancers stop routing here) and new diagnosis work is
// refused while in-flight requests run to completion.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
	if s.Admission != nil {
		s.Admission.BeginDrain()
	}
}

// Drain begins the drain and waits until every admitted diagnosis has
// finished or ctx expires. Call before http.Server.Shutdown so the
// listener closes only after the work is done.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	if s.Admission == nil {
		return nil
	}
	return s.Admission.Drain(ctx)
}

// modelNames snapshots the registered model names.
func (s *Server) modelNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.ens.Models))
	for _, m := range s.ens.Models {
		names = append(names, m.Name())
	}
	return names
}

// handleReady is the readiness probe: distinct from /healthz liveness, it
// goes red when the server should receive no new traffic — during a
// drain, while every model's circuit breaker is open, or before a valid
// model generation is loaded — while the process itself stays alive.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	var reasons []string
	if s.draining.Load() || (s.Admission != nil && s.Admission.Draining()) {
		reasons = append(reasons, "draining")
	}
	names := s.modelNames()
	if len(names) == 0 {
		reasons = append(reasons, "no model generation loaded")
	}
	if s.Breakers != nil && s.Breakers.AllOpen(names) {
		reasons = append(reasons, "all model circuit breakers open")
	}
	body := map[string]any{"ready": len(reasons) == 0}
	if len(reasons) > 0 {
		body["reasons"] = reasons
	}
	if s.Breakers != nil {
		body["breakers"] = s.Breakers.States()
	}
	if s.Admission != nil {
		body["admission"] = s.Admission.Stats()
	}
	if rep := s.genReport.Load(); rep != nil {
		body["generation"] = rep
	}
	status := http.StatusOK
	if len(reasons) > 0 {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, body)
}

func (s *Server) maxBody() int64 {
	if s.MaxBody > 0 {
		return s.MaxBody
	}
	return DefaultMaxBody
}

// writeUnavailable answers a request whose diagnosis hit the per-request
// deadline (or whose client vanished) with a structured 503.
func (s *Server) writeUnavailable(w http.ResponseWriter, err error) {
	writeJSON(w, http.StatusServiceUnavailable, map[string]any{
		"error":   "diagnosis cancelled before completion",
		"timeout": s.RequestTimeout.String(),
		"detail":  err.Error(),
	})
}

// bodyError maps a request-body parse failure to a status: 413 when the
// MaxBytesReader limit tripped, 400 otherwise.
func bodyError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
		return
	}
	httpError(w, http.StatusBadRequest, fmt.Sprintf("parse log: %v", err))
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{"status": "ok"}
	if c := s.diagnosisCache(); c != nil {
		hits, misses, size := c.stats()
		body["cache"] = map[string]any{"hits": hits, "misses": misses, "size": size}
	}
	// batches counts flights run, fused the requests they answered.
	batches, fused := s.flights.stats()
	body["coalesce"] = map[string]any{"batches": batches, "fused": fused}
	if s.JobLog != nil {
		st := s.JobLog.Stats()
		body["joblog"] = map[string]any{
			"sealed_segments":      st.SealedSegments,
			"bytes":                st.TotalBytes,
			"records":              st.Records,
			"quarantined":          st.Quarantined,
			"duplicate_frames":     st.DuplicateFrames,
			"compactions":          st.Compactions,
			"last_compaction_unix": st.LastCompactionUnix,
			"pending_retrain":      st.Pending,
		}
		retrain := map[string]any{"busy": s.retrainBusy.Load()}
		if rs := s.retrainState.Load(); rs != nil {
			retrain["last_generation"] = rs.Generation
			retrain["last_unix"] = rs.FinishedUnix
			if rs.Err != "" {
				retrain["last_error"] = rs.Err
			}
		}
		body["retrain"] = retrain
	}
	if s.Breakers != nil {
		body["breakers"] = s.Breakers.States()
	}
	if s.Drift != nil {
		st := s.Drift.Snapshot()
		lc := s.lifecycleSnapshot()
		body["drift"] = map[string]any{
			"armed":          st.Armed,
			"tripped":        st.Tripped,
			"tripped_by":     st.TrippedBy,
			"max_psi":        st.MaxPSI,
			"threshold":      st.Threshold,
			"drifted":        len(st.Drifted),
			"window_jobs":    st.WindowJobs,
			"reference_jobs": st.ReferenceJobs,
			"rolling_rmse":   st.RollingRMSE,
			"baseline_rmse":  st.BaselineRMSE,
			"error_ratio":    st.ErrorRatio,
			"error_obs":      st.ErrorObs,
			"drift_retrains": lc.DriftRetrains,
			"canary_blocked": lc.CanaryBlocked,
			"rollbacks":      lc.Rollbacks,
			"watch_armed":    lc.WatchArmed,
		}
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.mu.RLock()
		defer s.mu.RUnlock()
		infos := make([]ModelInfo, 0, len(s.ens.Models))
		for _, m := range s.ens.Models {
			infos = append(infos, ModelInfo{Name: m.Name(), Kind: m.Kind()})
		}
		writeJSON(w, http.StatusOK, infos)
	case http.MethodPost:
		s.handleModelUpload(w, r)
	default:
		httpError(w, http.StatusMethodNotAllowed, "use GET or POST")
	}
}

// SetGeneration records the registry load report surfaced on /readyz.
func (s *Server) SetGeneration(rep *core.LoadReport) { s.genReport.Store(rep) }

// storeReport builds a load report for a just-committed generation,
// fingerprinted from its on-disk manifest.
func (s *Server) storeReport(gen uint64) *core.LoadReport {
	rep := &core.LoadReport{Generation: gen}
	if s.Store != nil {
		if man, err := s.Store.Manifest(gen); err == nil {
			rep.Fingerprint = man.Fingerprint()
		}
	}
	return rep
}

// GenerationReport returns the current registry load report (nil when no
// store is wired in).
func (s *Server) GenerationReport() *core.LoadReport { return s.genReport.Load() }

// handleModelUpload accepts a pre-trained model (?name=...&kind=gbdt|mlp|tabnet
// with the gob body) as a validated hot-swap: the candidate model set —
// current set with the upload swapped in — is smoke-predicted on a probe
// vector first, and only a fully valid set goes live under a version
// bump. A failed validation rolls back automatically: the old set keeps
// serving untouched and the client gets a structured error saying so.
// With a Store wired in, the accepted set is also persisted as a new
// registry generation so the swap survives a restart.
func (s *Server) handleModelUpload(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	kind := r.URL.Query().Get("kind")
	if name == "" || kind == "" {
		httpError(w, http.StatusBadRequest, "name and kind query parameters required")
		return
	}
	m, err := core.LoadModel(name, kind, http.MaxBytesReader(w, r.Body, 4*s.maxBody()))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("model exceeds %d bytes", tooBig.Limit))
			return
		}
		httpError(w, http.StatusBadRequest, fmt.Sprintf("decode model: %v", err))
		return
	}
	// Validate the uploaded model alone first — the cheap reject, before
	// taking any lock.
	if err := probeModel(m); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{
			"error":       fmt.Sprintf("model failed validation: %v", err),
			"rolled_back": true,
		})
		return
	}
	s.mu.Lock()
	// Build the candidate set: a fresh slice (in-flight snapshots keep
	// the old backing array) with the upload swapped in or appended.
	candidate := append([]core.Model(nil), s.ens.Models...)
	replaced := false
	for i, existing := range candidate {
		if existing.Name() == name {
			candidate[i] = m
			replaced = true
			break
		}
	}
	if !replaced {
		candidate = append(candidate, m)
	}
	// Smoke-predict the whole candidate set. If any member fails, the
	// swap is rolled back before it ever happened: s.ens is untouched.
	for _, cm := range candidate {
		if err := probeModel(cm); err != nil {
			s.mu.Unlock()
			writeJSON(w, http.StatusBadRequest, map[string]any{
				"error": fmt.Sprintf("candidate model set failed validation at %s: %v; upload rolled back",
					cm.Name(), err),
				"rolled_back": true,
			})
			return
		}
	}
	s.ens.Models = candidate
	// The new model invalidates every cached diagnosis: bump the version so
	// in-flight requests keyed against the old set can never hit, and purge
	// the entries outright.
	s.version++
	if c := s.diagnosisCache(); c != nil {
		c.purge()
	}
	persist := &core.Ensemble{Models: candidate}
	s.mu.Unlock()
	// A fresh (validated) model deserves a closed breaker.
	if s.Breakers != nil {
		s.Breakers.For(name).Success()
	}
	body := map[string]any{"name": name, "replaced": replaced}
	// Persist the accepted set outside the lock; a persist failure keeps
	// the hot-swap live (it already validated) and is surfaced instead.
	if s.Store != nil {
		if gen, err := s.Store.Save(persist); err != nil {
			body["persist_error"] = err.Error()
		} else {
			body["generation"] = gen
			s.SetGeneration(s.storeReport(gen))
		}
	}
	writeJSON(w, http.StatusOK, body)
}

// probeModel rejects an uploaded model whose feature dimension does not
// match the 45-counter schema before it can reach a diagnosis: a
// wrongly-dimensioned model panics (slice bounds) or returns a non-finite
// value when evaluated, so it is exercised here on a probe vector, inside
// a recover, instead of inside a live request.
func probeModel(m core.Model) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("probe prediction panicked (feature dimension mismatch with the %d-counter schema?): %v",
				darshan.NumCounters, r)
		}
	}()
	probe := make([]float64, darshan.NumCounters)
	for j := range probe {
		// Non-zero, varied values so dimension-dependent code paths
		// (standardization, tree splits on any counter) are exercised.
		probe[j] = float64(j%7) + 0.5
	}
	v := m.Predict(probe)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("probe prediction is %v", v)
	}
	return nil
}

// applyBreakers partitions the snapshot ensemble by each model's circuit
// breaker: allowed models run, open ones are skipped (the degraded path
// for traffic). With no BreakerSet configured every model is allowed.
func (s *Server) applyBreakers(ens *core.Ensemble) (allowed *core.Ensemble, open []string) {
	if s.Breakers == nil {
		return ens, nil
	}
	allowed = &core.Ensemble{Models: make([]core.Model, 0, len(ens.Models))}
	for _, m := range ens.Models {
		if s.Breakers.For(m.Name()).Allow() {
			allowed.Models = append(allowed.Models, m)
		} else {
			open = append(open, m.Name())
		}
	}
	return allowed, open
}

// chargeBreakers feeds one computed diagnosis back into the breakers: each
// allowed model that failed in it (panic, NaN) counts one failure, each
// that worked one success. A nil diag means the pass errored because no
// model survived, and charges every allowed model a failure.
func (s *Server) chargeBreakers(allowed *core.Ensemble, diag *core.Diagnosis) {
	if s.Breakers == nil {
		return
	}
	for i, m := range allowed.Models {
		if diag == nil || diag.PerModel[i].Failed() {
			s.Breakers.For(m.Name()).Failure()
		} else {
			s.Breakers.For(m.Name()).Success()
		}
	}
}

// writeDiagnoseError answers a request whose diagnose stage failed, for
// every diagnose endpoint: the breaker-open 503 when no model may run, the
// cancellation 503 when the caller's context ended, 500 otherwise.
func (s *Server) writeDiagnoseError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, errAllBreakersOpen):
		s.writeBreakerOpen(w)
	case r.Context().Err() != nil:
		s.writeUnavailable(w, err)
	default:
		httpError(w, http.StatusInternalServerError, fmt.Sprintf("diagnose: %v", err))
	}
}

// writeBreakerOpen answers a request that no model can serve: every
// breaker is open. The X-AIIO-Breaker header tells clients not to retry
// against this instance; Retry-After hints when the first cooldown probe
// becomes possible.
func (s *Server) writeBreakerOpen(w http.ResponseWriter) {
	w.Header().Set("X-AIIO-Breaker", "open")
	w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(admission.DefaultRetryAfter.Seconds()))))
	writeJSON(w, http.StatusServiceUnavailable, map[string]any{
		"error":    "every model's circuit breaker is open",
		"breakers": s.Breakers.States(),
	})
}

// markBreakerSkips appends the breaker-open models to a response as
// skipped casualties, so a client sees the same degraded-ensemble shape
// the PR 2 path produces for in-request failures.
func markBreakerSkips(resp *DiagnosisResponse, open []string) {
	if len(open) == 0 {
		return
	}
	resp.Degraded = true
	for _, name := range open {
		resp.Models = append(resp.Models, ModelResult{Name: name, Error: "circuit breaker open"})
		resp.SkippedModels = append(resp.SkippedModels, name)
	}
}

// maxPooledBodyBuf keeps an outlier request body (up to MaxBody, 16 MB by
// default) from pinning its capacity in the pool; a real single-job log is
// 1–2 KB.
const maxPooledBodyBuf = 64 << 10

var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// handleDiagnose answers POST /api/v1/diagnose. The body is read whole before
// it is parsed so that a repeat can be recognised by its bytes: once a cached
// job has been asked for a second time, the same bytes are answered from the
// entry's rendered response without parsing, snapshotting the model set,
// building the response, running the advisor or encoding the factors again
// (see diagCache). Every other request parses the buffered bytes and takes
// the keyed path below.
func (s *Server) handleDiagnose(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST a Darshan text log")
		return
	}
	body := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		if body.Cap() <= maxPooledBodyBuf {
			bodyPool.Put(body)
		}
	}()
	body.Reset()
	if _, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, s.maxBody())); err != nil {
		// Worded as the streaming parser worded a failed read, so the 400
		// body did not change when the read moved here.
		bodyError(w, fmt.Errorf("darshan: read log: %w", err))
		return
	}
	// The generation report is read before the model-set version: a swap
	// bumps the version first and publishes its report second, so a reply
	// stamped with the new generation can only carry a new-version body.
	rep := s.genReport.Load()
	cache := s.diagnosisCache()
	var digest bodyDigest
	if cache != nil {
		digest = sha256.Sum256(body.Bytes())
		if rendered, ok := cache.byDigest(digest, s.modelVersion()); ok {
			s.sendCached(w, rep, rendered)
			return
		}
	}
	rec, err := darshan.ParseLog(bytes.NewReader(body.Bytes()))
	if err != nil {
		bodyError(w, err)
		return
	}
	stampGeneration(w, rep)
	// Diagnose against a lock-free snapshot so a concurrent model upload
	// (write lock) never stalls behind, or waits on, in-flight SHAP work.
	ens, opts, version := s.snapshot()
	key, res := s.diagnoseJob(r.Context(), ens, opts, version, rec)
	if res.err != nil {
		s.writeDiagnoseError(w, r, res.err)
		return
	}
	if res.rendered != nil {
		// The same job in another spelling lands here: a frozen entry still
		// answers it without the advisor.
		s.sendCached(w, rep, res.rendered)
		return
	}
	if res.fromCache {
		w.Header().Set("X-AIIO-Cache", "hit")
	} else {
		w.Header().Set("X-AIIO-Coalesced", strconv.Itoa(res.answered))
		if cache != nil && len(res.open) == 0 {
			w.Header().Set("X-AIIO-Cache", "miss")
		}
	}
	resp := buildResponse(res.diag)
	markBreakerSkips(resp, res.open)
	// The advisor is best-effort: a failure degrades to an advisory-error
	// field instead of discarding the successful diagnosis. It runs over
	// the models that served this request — breaker-open models are
	// excluded from its counterfactual predictions too.
	adviseEns := ens
	if res.allowed != nil {
		adviseEns = res.allowed
	}
	recs, advErr := s.safeAdvise(adviseEns, res.diag)
	if advErr != nil {
		resp.AdvisoryError = advErr.Error()
	}
	for _, r := range recs {
		resp.Recommendations = append(resp.Recommendations, RecommendationJSON{
			Action:         r.Action,
			Description:    r.Description,
			PredictedMiBps: r.PredictedMiBps,
			PredictedGain:  r.PredictedGain,
		})
	}
	// Encode everything but the advisories, then drop the closing "}\n":
	// sendDiagnosis appends this request's advisories and closes the object.
	eb := newEncodeBuf()
	if err := eb.enc.Encode(resp); err != nil {
		encodeFailed(w, eb, err)
		return
	}
	eb.buf.Truncate(eb.buf.Len() - len("}\n"))
	// Freeze on the second touch, not the first: a job nobody asks about
	// twice never pays for rendered bytes. Only a complete answer is worth
	// keeping — a degraded ensemble or a failed advisor may do better next
	// time, so those replies are rebuilt on every hit.
	if res.fromCache && !resp.Degraded && advErr == nil {
		cache.freeze(key, version, digest, bytes.Clone(eb.buf.Bytes()))
	}
	s.sendDiagnosis(w, rep, eb)
}

// sendCached answers a request from a frozen entry's rendered response.
func (s *Server) sendCached(w http.ResponseWriter, rep *core.LoadReport, rendered []byte) {
	stampGeneration(w, rep)
	w.Header().Set("X-AIIO-Cache", "hit")
	eb := newEncodeBuf()
	eb.buf.Write(rendered)
	s.sendDiagnosis(w, rep, eb)
}

// handleDiagnoseBatch accepts a WriteDataset-format stream of several logs
// and runs each record through the diagnose stage, returning one response
// per record in input order. The pool is split the way Ensemble.DiagnoseBatch
// splits it: up to Parallelism workers each take one job at a time, and a
// small batch hands its surplus down to each job's per-model pool. A job
// already cached, or already running as a flight for another request or
// another element of this batch, costs no ensemble pass. Recommendations are
// omitted in batch mode; the single-job endpoint provides them.
func (s *Server) handleDiagnoseBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST a stream of Darshan text logs")
		return
	}
	ds, err := darshan.ParseDataset(http.MaxBytesReader(w, r.Body, 4*s.maxBody()))
	if err != nil {
		bodyError(w, err)
		return
	}
	if ds.Len() == 0 {
		httpError(w, http.StatusBadRequest, "no records in request body")
		return
	}
	stampGeneration(w, s.genReport.Load())
	ens, opts, version := s.snapshot()
	total := opts.Parallelism
	if total <= 0 {
		total = runtime.GOMAXPROCS(0)
	}
	workers := parallel.Workers(total, ds.Len())
	opts.Parallelism = (total + workers - 1) / workers
	res := make([]flightResult, ds.Len())
	err = parallel.EachCtx(r.Context(), ds.Len(), workers, func(i int) {
		_, res[i] = s.diagnoseJob(r.Context(), ens, opts, version, ds.Records[i])
	})
	for i := 0; err == nil && i < len(res); i++ {
		if res[i].err != nil {
			err = fmt.Errorf("job %d: %w", i, res[i].err)
		}
	}
	if err != nil {
		s.writeDiagnoseError(w, r, err)
		return
	}
	hits := 0
	resps := make([]*DiagnosisResponse, len(res))
	for i, job := range res {
		if job.fromCache {
			hits++
		}
		resps[i] = buildResponse(job.diag)
		markBreakerSkips(resps[i], job.open)
	}
	if s.diagnosisCache() != nil {
		w.Header().Set("X-AIIO-Cache", fmt.Sprintf("hits=%d misses=%d", hits, len(res)-hits))
	}
	writeJSON(w, http.StatusOK, resps)
}

// safeAdvise runs the tuning advisor with panics converted to errors:
// unlike the diagnosis engine, the advisor predicts on raw models with no
// per-model recovery, so a model that panics mid-advice (a fault the
// diagnosis already degraded around) must cost only the recommendations,
// never the whole response.
func (s *Server) safeAdvise(ens *core.Ensemble, diag *core.Diagnosis) (recs []tune.Recommendation, err error) {
	defer func() {
		if r := recover(); r != nil {
			recs, err = nil, fmt.Errorf("advisor panicked: %v", r)
		}
	}()
	return s.advise(ens, diag)
}

func buildResponse(diag *core.Diagnosis) *DiagnosisResponse {
	resp := &DiagnosisResponse{
		App:           diag.Record.App,
		ActualMiBps:   diag.ActualMiBps,
		ClosestModel:  diag.PerModel[diag.ClosestIndex].Name,
		Robust:        diag.IsRobust(),
		Degraded:      diag.Degraded,
		SkippedModels: diag.SkippedModels(),
	}
	for i, md := range diag.PerModel {
		resp.Models = append(resp.Models, ModelResult{
			Name:           md.Name,
			PredictedMiBps: md.PredictedMiBps,
			Weight:         diag.Weights[i],
			Error:          md.Err,
		})
	}
	for _, f := range diag.TopFactors(0) {
		resp.Factors = append(resp.Factors, FactorJSON{
			Counter: f.Counter.String(), Contribution: f.Contribution, Value: f.Value,
		})
	}
	for _, f := range diag.Bottlenecks() {
		resp.Bottlenecks = append(resp.Bottlenecks, FactorJSON{
			Counter: f.Counter.String(), Contribution: f.Contribution, Value: f.Value,
		})
	}
	return resp
}

// stampGeneration advertises which model generation (and content
// fingerprint) produced this response, so routers, replication syncers, and
// chaos drills can assert freshness without a second round trip. A server
// with no registry report (e.g. a bare NewServer in tests) stamps nothing.
func stampGeneration(w http.ResponseWriter, rep *core.LoadReport) {
	if rep != nil {
		w.Header().Set("X-AIIO-Generation", strconv.FormatUint(rep.Generation, 10))
		if rep.Fingerprint != "" {
			w.Header().Set("X-AIIO-Fingerprint", rep.Fingerprint)
		}
	}
}

// AdoptGeneration hot-swaps a replicated (or freshly committed) model set
// into the serving path with the same safeguards as a model upload: every
// model is probe-validated first, and a failure leaves the old set serving
// untouched. On success the version bumps (invalidating every cached
// diagnosis), the cache is purged, the generation report goes live on
// /readyz and the response headers, and each model's breaker is reset the
// way a validated upload's is.
func (s *Server) AdoptGeneration(ens *core.Ensemble, rep *core.LoadReport) error {
	for _, m := range ens.Models {
		if err := probeModel(m); err != nil {
			return fmt.Errorf("webservice: adopt generation %d: model %s failed validation, swap refused: %w",
				rep.Generation, m.Name(), err)
		}
	}
	s.mu.Lock()
	s.ens = ens
	s.version++
	if c := s.diagnosisCache(); c != nil {
		c.purge()
	}
	s.mu.Unlock()
	s.SetGeneration(rep)
	if s.Breakers != nil {
		for _, m := range ens.Models {
			s.Breakers.For(m.Name()).Success()
		}
	}
	return nil
}

// GenerationSummary is the JSON body of GET /api/v1/generations: the
// replication handshake. Generation/Fingerprint describe the store's
// CURRENT generation — what a follower can fetch from this replica —
// while Serving* describe the in-memory set answering diagnoses (the two
// differ only inside the commit-to-hot-swap window, or when persistence
// failed).
type GenerationSummary struct {
	Generation         uint64   `json:"generation"`
	Fingerprint        string   `json:"fingerprint,omitempty"`
	Available          []uint64 `json:"available,omitempty"`
	ServingGeneration  uint64   `json:"serving_generation"`
	ServingFingerprint string   `json:"serving_fingerprint,omitempty"`
}

// handleGenerations answers the replication handshake. 501 without a
// store: a store-less server has nothing a follower could fetch.
func (s *Server) handleGenerations(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	if s.Store == nil {
		httpError(w, http.StatusNotImplemented, "no model store configured")
		return
	}
	sum := GenerationSummary{}
	if cur, ok := s.Store.CurrentGeneration(); ok {
		sum.Generation = cur
		if man, err := s.Store.Manifest(cur); err == nil {
			sum.Fingerprint = man.Fingerprint()
		}
		sum.Available, _ = s.Store.Generations()
	}
	if rep := s.genReport.Load(); rep != nil {
		sum.ServingGeneration = rep.Generation
		sum.ServingFingerprint = rep.Fingerprint
	}
	writeJSON(w, http.StatusOK, &sum)
}

// handleGenerationFetch serves the transfer half of generation
// replication:
//
//	GET /api/v1/generations/{id}              → manifest JSON
//	GET /api/v1/generations/{id}/files/{file} → raw model bytes
//
// The file name must match a manifest entry exactly (Store.OpenModelFile
// enforces it), so the endpoint cannot be walked outside the generation
// directory. Followers verify each file's SHA-256 against the manifest
// before anything is committed, so a torn or tampered transfer dies on the
// follower, not here.
func (s *Server) handleGenerationFetch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	if s.Store == nil {
		httpError(w, http.StatusNotImplemented, "no model store configured")
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/api/v1/generations/")
	parts := strings.Split(rest, "/")
	gen, err := strconv.ParseUint(parts[0], 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad generation id %q", parts[0]))
		return
	}
	switch {
	case len(parts) == 1:
		man, err := s.Store.Manifest(gen)
		if err != nil {
			httpError(w, http.StatusNotFound, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, man)
	case len(parts) == 3 && parts[1] == "files":
		f, err := s.Store.OpenModelFile(gen, parts[2])
		if err != nil {
			httpError(w, http.StatusNotFound, err.Error())
			return
		}
		defer f.Close()
		w.Header().Set("Content-Type", "application/octet-stream")
		if _, err := io.Copy(w, f); err != nil {
			// Headers are gone; the follower's checksum catches the torn
			// body.
			return
		}
	default:
		httpError(w, http.StatusNotFound, "use /api/v1/generations/{id} or /api/v1/generations/{id}/files/{file}")
	}
}

// encodeBuf pairs a reusable buffer with a json.Encoder bound to it, so
// the per-response encoder allocation is pooled away along with the body
// bytes.
type encodeBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// maxPooledEncodeBuf keeps outlier response bodies (a huge batch) from
// pinning their capacity in the pool forever.
const maxPooledEncodeBuf = 1 << 20

var encodePool = sync.Pool{New: func() any {
	eb := &encodeBuf{}
	eb.enc = json.NewEncoder(&eb.buf)
	return eb
}}

// newEncodeBuf takes an empty buffer from the pool; sendEncoded or
// encodeFailed gives it back.
func newEncodeBuf() *encodeBuf {
	eb := encodePool.Get().(*encodeBuf)
	eb.buf.Reset()
	return eb
}

// writeJSON encodes v through a pooled buffer + encoder, so the steady
// state of the handler path allocates no per-response encoding state, and
// the response carries a Content-Length (the body is in hand before any
// byte is written).
func writeJSON(w http.ResponseWriter, status int, v any) {
	eb := newEncodeBuf()
	if err := eb.enc.Encode(v); err != nil {
		encodeFailed(w, eb, err)
		return
	}
	sendEncoded(w, status, eb)
}

// encodeFailed answers a response whose encoding failed before anything was
// written: a structured 500 is still possible (maps and the response structs
// here cannot actually fail, but a cycle in some future type must not hang
// the connection).
func encodeFailed(w http.ResponseWriter, eb *encodeBuf, err error) {
	encodePool.Put(eb)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusInternalServerError)
	fmt.Fprintf(w, `{"error":"encode response: %v"}`, err)
}

// sendEncoded writes the finished JSON body in eb and returns eb to the pool.
func sendEncoded(w http.ResponseWriter, status int, eb *encodeBuf) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(eb.buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(eb.buf.Bytes())
	if eb.buf.Cap() <= maxPooledEncodeBuf {
		encodePool.Put(eb)
	}
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
