// Command aiio-server runs the AIIO web service of Section 3.4 / Fig. 17:
// it loads pre-trained performance functions from a model registry and
// serves job-level diagnoses over HTTP.
//
//	aiio-server -models models/ -addr :8080 [-parallel N] [-drain 30s]
//	            [-request-timeout 2m] [-max-body 16777216]
//	            [-max-inflight 16] [-queue-depth 64] [-breaker-threshold 5]
//
// Endpoints:
//
//	GET  /healthz                  liveness (process up)
//	GET  /readyz                   readiness (serving traffic; red while
//	                               draining, with every circuit breaker
//	                               open, or with no model generation)
//	GET  /api/v1/models            registered models
//	POST /api/v1/models            upload a pre-trained model (?name=&kind=)
//	                               — validated hot-swap with rollback,
//	                               persisted as a new registry generation
//	POST /api/v1/diagnose          Darshan text log -> JSON diagnosis
//	POST /api/v1/diagnose/batch    stream of logs -> JSON diagnosis array
//	POST /api/v1/jobs              stream of logs -> durable job log ingest
//	                               (with -joblog-dir; fsync before ack,
//	                               deduplicated so retries are idempotent)
//	GET  /api/v1/drift             drift monitor status + lifecycle decision
//	                               history (with -drift-psi)
//	GET  /api/v1/generations       replication handshake: registry + serving
//	                               generation and content fingerprint
//	GET  /api/v1/generations/{id}  generation manifest JSON;
//	     .../{id}/files/{file}     raw model bytes (SHA-256-verified by the
//	                               pulling peer before hot-swap)
//
// With -drift-psi, every durably ingested job feeds a drift monitor whose
// trip starts a canary-gated retrain (-canary-holdout), and with
// -rollback-ratio each promotion is watched and rolled back on an error
// spike; internal/lifecycle decides all three. Every decision is visible
// on GET /api/v1/drift, /healthz, and as diagnosis advisories.
//
// With -peers, the server pulls newer model generations from its peer
// replicas every -sync-interval and hot-swaps them after verification, so
// an upload or retrain on any replica converges the fleet. Concurrent
// identical cold diagnoses share one ensemble pass (see cmd/aiio-router for
// the fleet-front affinity router).
//
// The diagnosis endpoints sit behind a bounded admission queue: at most
// -max-inflight requests execute concurrently per endpoint, at most
// -queue-depth wait, and everything beyond that is shed immediately with
// 429 + Retry-After. Each model carries a circuit breaker that takes it
// out of rotation after -breaker-threshold consecutive failures.
//
// Models are loaded from the versioned, checksummed registry: a corrupt
// generation is rejected and the newest older generation serves instead
// (surfaced on /readyz), so a torn write or bit rot degrades the server
// rather than killing it.
//
// On SIGINT/SIGTERM the server goes not-ready, drains in-flight diagnoses
// for up to the -drain timeout, then closes the listener, so a redeploy
// never discards work already underway.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/hpc-repro/aiio/internal/admission"
	"github.com/hpc-repro/aiio/internal/core"
	"github.com/hpc-repro/aiio/internal/drift"
	"github.com/hpc-repro/aiio/internal/durable"
	"github.com/hpc-repro/aiio/internal/joblog"
	"github.com/hpc-repro/aiio/internal/lifecycle"
	"github.com/hpc-repro/aiio/internal/webservice"
)

func main() {
	modelsDir := flag.String("models", "models", "model registry directory")
	addr := flag.String("addr", ":8080", "listen address")
	explainer := flag.String("explainer", string(core.ExplainerAuto),
		"diagnosis function: auto (exact TreeSHAP for tree models, Kernel SHAP otherwise), kernel (Kernel SHAP for every model) or lime")
	parallel := flag.Int("parallel", 0, "diagnosis worker pool size (0 = GOMAXPROCS)")
	cacheSize := flag.Int("cache", 0,
		"diagnosis result cache entries (0 = default 1024, negative disables)")
	drain := flag.Duration("drain", 30*time.Second, "shutdown drain timeout for in-flight diagnoses")
	requestTimeout := flag.Duration("request-timeout", 2*time.Minute,
		"per-request diagnosis deadline; expired requests get a structured 503 (0 = none)")
	maxBody := flag.Int64("max-body", webservice.DefaultMaxBody,
		"request body cap in bytes for a single log; batch and model uploads get 4x (oversized = 413)")
	maxInflight := flag.Int("max-inflight", admission.DefaultMaxInflight,
		"concurrent diagnoses per endpoint; excess queues then sheds with 429")
	queueDepth := flag.Int("queue-depth", admission.DefaultQueueDepth,
		"requests allowed to wait for a diagnosis slot (negative = shed immediately)")
	retryAfter := flag.Duration("retry-after", admission.DefaultRetryAfter,
		"Retry-After hint handed to shed clients")
	breakerThreshold := flag.Int("breaker-threshold", 5,
		"consecutive failures that open a model's circuit breaker (0 disables breakers)")
	breakerCooldown := flag.Duration("breaker-cooldown", 30*time.Second,
		"how long an open breaker waits before probing its model again")
	joblogDir := flag.String("joblog-dir", "",
		"durable job log directory; enables POST /api/v1/jobs streaming ingest (empty disables)")
	retrainAfter := flag.Int("retrain-after", 0,
		"ingest backlog size that triggers a background incremental retrain (0 disables)")
	retrainWindow := flag.Int("retrain-window", 20000,
		"historical records blended into each incremental retrain")
	retrainMinibatch := flag.Int("retrain-minibatch", 512,
		"records per backlog drain mini-batch")
	retrainFast := flag.Bool("retrain-fast", false,
		"reduced training budgets for incremental retrains")
	retrainModels := flag.String("retrain-models", "",
		"comma-separated subset of models incremental retrains fit (default all)")
	retrainWarm := flag.Bool("warm-start", true,
		"seed incremental retrains from the previous generation on a reduced budget (per-model cold fallback on schema/drift)")
	retrainWarmBudget := flag.Float64("warm-budget", core.DefaultWarmBudgetFrac,
		"fraction of the cold budget warm-started models train for")
	ingestInflight := flag.Int("ingest-inflight", 0,
		"concurrent ingest requests (its own admission budget; 0 = the -max-inflight default)")
	peers := flag.String("peers", "",
		"comma-separated peer replica base URLs; enables pull-based model generation replication")
	syncInterval := flag.Duration("sync-interval", webservice.DefaultSyncInterval,
		"how often to poll -peers for newer model generations")
	driftPSI := flag.Float64("drift-psi", 0,
		"PSI threshold that trips the input-distribution detector and triggers a canary-gated retrain (0 disables drift monitoring)")
	driftMinSamples := flag.Int("drift-min-samples", 0,
		"ingested jobs required in the live window before PSI is judged (0 = default 200)")
	driftWindow := flag.Int("drift-window", 0,
		"rotating live-window size in jobs for the PSI detector (0 = default 2000)")
	driftErrorRatio := flag.Float64("drift-error-ratio", 0,
		"rolling/baseline RMSE ratio that trips the prediction-error detector (0 = default 1.5)")
	driftMinErrors := flag.Int("drift-min-errors", 0,
		"labeled jobs required before the prediction-error detector is judged (0 = default 50)")
	canaryHoldout := flag.Int("canary-holdout", 64,
		"held-out jobs the canary gate judges a retrained candidate on before promotion (0 disables the gate; active with -drift-psi)")
	canaryTolerance := flag.Float64("canary-tolerance", 0,
		"fraction a candidate's holdout RMSE may exceed the serving ensemble's before the gate blocks it (0 = default 0.10)")
	rollbackRatio := flag.Float64("rollback-ratio", 0,
		"post-promotion rolling RMSE at or over this multiple of the pre-promotion baseline rolls back to the previous generation (0 disables)")
	rollbackWatch := flag.Int("rollback-watch", lifecycle.DefaultRollbackWatch,
		"labeled jobs the post-promotion watch covers before a promotion is judged safe")
	flag.Parse()

	// A mistyped option fails here, not on the first diagnosis or retrain.
	opts := core.DefaultDiagnoseOptions()
	var err error
	if opts.Explainer, err = core.ParseExplainer(*explainer); err != nil {
		log.Fatalf("aiio-server: -explainer: %v", err)
	}
	opts.Parallelism = *parallel
	var trainModels []string
	if *retrainModels != "" {
		trainModels = strings.Split(*retrainModels, ",")
		if err := core.CheckModels(trainModels); err != nil {
			log.Fatalf("aiio-server: -retrain-models: %v", err)
		}
	}
	driftCfg := drift.Config{
		PSIThreshold: *driftPSI,
		MinSamples:   *driftMinSamples,
		Window:       *driftWindow,
		ErrorRatio:   *driftErrorRatio,
		MinErrors:    *driftMinErrors,
	}
	if err := driftCfg.Check(); err != nil {
		log.Fatalf("aiio-server: -drift-min-samples/-drift-window: %v", err)
	}

	// One AIIO_CRASH hook on every store the server opens: the CI lifecycle
	// drill kills the process mid-promotion at a named durable step.
	crashHook, err := durable.HookFromEnv()
	if err != nil {
		log.Fatalf("aiio-server: %v", err)
	}
	store := core.OpenStore(*modelsDir)
	store.SetHook(crashHook)
	ens, rep, err := store.Load()
	if err != nil {
		log.Fatalf("aiio-server: load models: %v", err)
	}
	for _, rej := range rep.Rejected {
		log.Printf("aiio-server: registry generation %d rejected: %s", rej.Generation, rej.Err)
	}
	if rep.FellBack {
		log.Printf("aiio-server: WARNING: serving fallback generation %d — newest generation failed verification",
			rep.Generation)
	}

	ws := webservice.NewServer(ens, opts)
	ws.RequestTimeout = *requestTimeout
	ws.MaxBody = *maxBody
	ws.CacheSize = *cacheSize
	ws.Store = store
	ws.SetLifecycle(lifecycle.Config{
		RetrainThreshold: *retrainAfter, RollbackRatio: *rollbackRatio, RollbackWatch: *rollbackWatch})
	ws.Admission = admission.NewController(admission.Config{
		MaxInflight: *maxInflight,
		QueueDepth:  *queueDepth,
		RetryAfter:  *retryAfter,
	})
	if *ingestInflight > 0 {
		// Ingest is cheap I/O next to the compute-heavy diagnoses; its own
		// budget keeps a log-shipping burst from starving diagnosis slots
		// and vice versa.
		ws.Admission.SetConfig(webservice.IngestEndpoint, admission.Config{
			MaxInflight: *ingestInflight,
			QueueDepth:  *queueDepth,
			RetryAfter:  *retryAfter,
		})
	}
	if *driftPSI > 0 {
		ws.Drift = drift.New(driftCfg)
	}
	if *joblogDir != "" {
		jl, err := joblog.Open(*joblogDir, joblog.Options{})
		if err != nil {
			log.Fatalf("aiio-server: open joblog: %v", err)
		}
		defer jl.Close()
		jl.SetHook(crashHook)
		if rec := jl.Recovery(); rec.TornBytes > 0 || rec.Quarantined > 0 || rec.ResealedSegments > 0 {
			log.Printf("aiio-server: joblog recovery truncated %d torn bytes, quarantined %d records, resealed %d segments",
				rec.TornBytes, rec.Quarantined, rec.ResealedSegments)
		}
		ws.JobLog = jl
		topts := core.DefaultTrainOptions()
		topts.Fast = *retrainFast
		topts.WarmStart = *retrainWarm
		topts.WarmBudgetFrac = *retrainWarmBudget
		topts.Models = trainModels
		incOpts := core.IncrementalOptions{
			MiniBatch: *retrainMinibatch,
			Window:    *retrainWindow,
			Train:     topts,
		}
		if ws.Drift != nil && *canaryHoldout > 0 {
			// The canary gate: a retrained candidate must match the serving
			// ensemble on held-out jobs before it is committed. The admitted
			// generation carries a fresh drift reference built from its own
			// training set, so the monitor always judges the serving world.
			incOpts.Holdout = *canaryHoldout
			incOpts.Gate = drift.Gate(drift.GateConfig{Tolerance: *canaryTolerance}, ws.ServingEnsemble)
			incOpts.Reference = drift.Sidecar
		}
		ws.Retrainer = func(ctx context.Context) (*core.Ensemble, uint64, error) {
			rep, err := core.RunIncremental(ctx, jl, store, incOpts)
			if err != nil {
				log.Printf("aiio-server: incremental retrain: %v", err)
				return nil, 0, err
			}
			// What this cycle committed, not what CURRENT names by now.
			ens, _, err := store.LoadGeneration(rep.Generation)
			if err != nil {
				return nil, 0, err
			}
			log.Printf("aiio-server: incremental retrain committed generation %d (%d new jobs); epochs: %s",
				rep.Generation, rep.NewRecords, fitEpochs(rep.Train))
			return ens, rep.Generation, nil
		}
	}
	if *breakerThreshold > 0 {
		ws.Breakers = admission.NewBreakerSet(admission.BreakerConfig{
			Threshold: *breakerThreshold,
			Cooldown:  *breakerCooldown,
		})
	}
	// Boot is the first generation transition: with a persisted drift
	// reference it re-arms the monitor (without, it self-arms from traffic).
	if err := ws.AdoptGeneration(ens, rep); err != nil {
		log.Fatalf("aiio-server: generation %d: %v", rep.Generation, err)
	}
	if ws.Drift != nil {
		if st := ws.Drift.Snapshot(); st.Armed {
			log.Printf("aiio-server: drift monitor armed from generation %d reference (%d jobs)",
				rep.Generation, st.ReferenceJobs)
		}
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           ws.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *peers != "" {
		var peerList []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, strings.TrimRight(p, "/"))
			}
		}
		sy := &webservice.Syncer{Server: ws, Peers: peerList, Interval: *syncInterval, Logf: log.Printf}
		go sy.Run(ctx)
		log.Printf("aiio-server: replicating model generations from %d peer(s) every %s",
			len(peerList), *syncInterval)
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	gen := "legacy flat layout"
	if !rep.Legacy {
		gen = fmt.Sprintf("generation %d", rep.Generation)
	}
	fmt.Printf("aiio-server: %d models loaded from %s (%s), listening on %s\n",
		len(ens.Models), *modelsDir, gen, *addr)

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("aiio-server: %v", err)
		}
	case <-ctx.Done():
		stop() // restore default signal behavior: a second signal kills hard
		log.Printf("aiio-server: shutting down, draining for up to %s", *drain)
		shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		// Go not-ready and let admitted diagnoses finish before the
		// listener closes: load balancers see /readyz flip red while the
		// in-flight work runs down, then Shutdown closes idle connections.
		if err := ws.Drain(shutCtx); err != nil {
			log.Printf("aiio-server: drain incomplete: %v", err)
		}
		if err := srv.Shutdown(shutCtx); err != nil {
			log.Printf("aiio-server: shutdown incomplete: %v", err)
		}
	}
}

// fitEpochs lists each model's epochs (boosting rounds for the trees) in a
// training report, a "*" marking a warm fit that kept its seed:
// "xgboost 19, lightgbm 15, catboost 90, mlp 10*, tabnet 10*".
func fitEpochs(rep *core.TrainReport) string {
	parts := make([]string, len(rep.Models))
	for i, m := range rep.Models {
		parts[i] = fmt.Sprintf("%s %d", m.Name, m.Epochs)
		if m.SeedKept {
			parts[i] += "*"
		}
	}
	return strings.Join(parts, ", ")
}
