package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/hpc-repro/aiio/internal/admission"
	"github.com/hpc-repro/aiio/internal/core"
	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/features"
	"github.com/hpc-repro/aiio/internal/joblog"
	"github.com/hpc-repro/aiio/internal/linalg"
	"github.com/hpc-repro/aiio/internal/replica"
	"github.com/hpc-repro/aiio/internal/shap"
	"github.com/hpc-repro/aiio/internal/tune"
	"github.com/hpc-repro/aiio/internal/webservice"
)

// The per-layer replay. After the end-to-end phases (which carry no
// tracing) a sample of the workload's own jobs is pushed through each
// layer's public functions, one span per call, and the per-layer metrics
// are computed from the spans.
//
// A child span here is a re-execution of the same call on the same input,
// recorded under the span it would be nested in — not a true nested call —
// so a self time (parent minus children) is an estimate until the program
// itself is instrumented (ROADMAP item 1).

// span is one timed call.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Req    int    `json:"request"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the trace began.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) micros() float64 { return float64(s.End-s.Start) / 1e3 }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)} }

func (t *tracer) begin(name string, parent, req int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name})
	t.spans[id].Start = int64(time.Since(t.t0))
	return id
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.t0)) }

// time records fn as one span.
func (t *tracer) time(name string, parent, req int, fn func()) int {
	id := t.begin(name, parent, req)
	fn()
	t.end(id)
	return id
}

// micros lists the durations of every span called name.
func (t *tracer) micros(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.micros())
		}
	}
	return out
}

// selfMicros lists, for every span called name, its duration minus its
// children's.
func (t *tracer) selfMicros(name string) []float64 {
	children := make(map[int]float64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.micros()
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.micros()-children[s.ID])
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// mallocs runs fn and returns how many heap objects it allocated.
func mallocs(fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}

// inProcServer builds the web service the way cmd/aiio-server does at its
// default flags, for driving the handler without the network.
func inProcServer(ens *core.Ensemble, coalesce time.Duration, jl *joblog.Store) http.Handler {
	ws := webservice.NewServer(ens, core.DefaultDiagnoseOptions())
	ws.RequestTimeout = 2 * time.Minute
	ws.SetGeneration(&core.LoadReport{Generation: 1})
	ws.CoalesceWindow = coalesce
	ws.Admission = admission.NewController(admission.Config{})
	ws.Breakers = admission.NewBreakerSet(admission.BreakerConfig{Threshold: 5, Cooldown: 30 * time.Second})
	ws.JobLog = jl
	return ws.Handler()
}

// sink is a ResponseWriter that keeps the status and counts the body, so
// timing the handler does not also time a recorder.
type sink struct {
	header http.Header
	status int
	n      int
}

func (s *sink) Header() http.Header         { return s.header }
func (s *sink) WriteHeader(code int)        { s.status = code }
func (s *sink) Write(p []byte) (int, error) { s.n += len(p); return len(p), nil }

// serve pushes one POST through h and fails on anything but a 200.
func serve(h http.Handler, path string, body []byte) error {
	return serveRequest(h, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)), newSink())
}

func newSink() *sink { return &sink{header: http.Header{}, status: http.StatusOK} }

// serveRequest is serve with the request and the writer built by the
// caller, so an allocation count covers the handler alone.
func serveRequest(h http.Handler, req *http.Request, w *sink) error {
	h.ServeHTTP(w, req)
	if w.status != http.StatusOK {
		return fmt.Errorf("in-process %s %s: status %d", req.Method, req.URL.Path, w.status)
	}
	return nil
}

// httpHitPass posts the replay sample to the real server twice from one
// client — a fill, then the hits — and returns the hits' latencies (µs) and
// the median reply size. It runs after the measured phase's counters have
// been read.
func (b *bench) httpHitPass(ctx context.Context) ([]float64, float64, error) {
	ctx, cancel := context.WithTimeout(ctx, b.cfg.size.phaseDeadline)
	defer cancel()
	var lat, size []float64
	for pass := 0; pass < 2; pass++ {
		for _, j := range b.replaySample() {
			body, err := encodeJobs(b.plan.jobs, []int{j})
			if err != nil {
				return nil, 0, err
			}
			reply, d, err := b.ld.post(ctx, pathDiagnose, body)
			if err != nil {
				return nil, 0, fmt.Errorf("hit pass: %w", err)
			}
			if pass == 1 {
				lat = append(lat, float64(d)/float64(time.Microsecond))
				size = append(size, float64(len(reply)))
			}
		}
	}
	return lat, median(size), nil
}

// replaySample is the jobs the replay pushes through each layer: the
// workload's own unsent reserve, so cold paths see never-diagnosed jobs of
// the same seed.
func (b *bench) replaySample() []int {
	return b.plan.extra[:min(b.cfg.size.replayJobs, len(b.plan.extra))]
}

// replay measures every per-layer metric. ens is the generation the server
// ended the run serving; phase holds the /healthz counter growth over the
// measured phase.
func (b *bench) replay(ctx context.Context, ens *core.Ensemble, phase *health, httpHit []float64, replyBytes float64) (map[string]float64, error) {
	ctx, cancel := context.WithTimeout(ctx, b.cfg.size.phaseDeadline)
	defer cancel()
	tr := newTracer()
	m := map[string]float64{}
	sample := b.replaySample()
	recs := make([]*darshan.Record, len(sample))
	bodies := make([][]byte, len(sample))
	for i, j := range sample {
		recs[i] = b.plan.jobs[j]
		body, err := encodeJobs(b.plan.jobs, []int{j})
		if err != nil {
			return nil, err
		}
		bodies[i] = body
	}

	// trace.span_cost_ns: what recording one span adds.
	const probes = 10000
	probe := newTracer()
	start := time.Now()
	for i := 0; i < probes; i++ {
		probe.end(probe.begin("probe", -1, i))
	}
	m["trace.span_cost_ns"] = float64(time.Since(start)) / probes

	// Per request: parse, diagnose (with each model's attribution as a
	// child), advise.
	p1 := core.DefaultDiagnoseOptions()
	p1.Parallelism = 1
	advisor := tune.New(ens)
	var kernelRows, kernelCalls int
	var kernelPredict, kernelExplain time.Duration
	var diagAllocs float64
	diags := make([]*core.Diagnosis, len(recs))
	for r, rec := range recs {
		root := tr.begin("replay.request", -1, r)
		var err error
		tr.time("darshan.parse", root, r, func() { _, err = darshan.ParseLog(bytes.NewReader(bodies[r])) })
		if err != nil {
			return nil, err
		}
		// One untimed pass first, so the timed diagnosis and the
		// re-executed attributions below all run on warm caches and their
		// difference is not a cold-start artefact.
		if _, err = ens.DiagnoseContext(ctx, rec, p1); err != nil {
			return nil, err
		}
		var dspan int
		diagAllocs += mallocs(func() {
			dspan = tr.time("core.diagnose", root, r, func() { diags[r], err = ens.DiagnoseContext(ctx, rec, p1) })
		})
		if err != nil {
			return nil, err
		}
		x := features.TransformRecord(rec)
		for _, model := range ens.Models {
			tree, _ := core.TreeModel(model)
			name := "shap.kernel." + model.Name()
			if tree != nil {
				name = "shap.tree"
			}
			// Count the rows Kernel SHAP hands the model and the time the
			// model spends on them; the rest of an explanation is
			// coalition sampling and the weighted least-squares solve.
			var inPredict time.Duration
			predict := func(mat *linalg.Matrix) []float64 {
				t := time.Now()
				out := model.PredictBatch(mat)
				inPredict += time.Since(t)
				kernelRows += mat.Rows
				return out
			}
			att, err := shap.ForModel(predict, tree, nil, shap.ModeAuto, p1.SHAP)
			if err != nil {
				return nil, err
			}
			id := tr.time(name, dspan, r, func() { _, err = att.Attribute(ctx, x) })
			if err != nil {
				return nil, err
			}
			if tree == nil {
				kernelCalls++
				kernelPredict += inPredict
				kernelExplain += time.Duration(tr.spans[id].End - tr.spans[id].Start)
			}
		}
		tr.time("tune.advise", root, r, func() { _, err = advisor.Advise(diags[r], 1.05) })
		if err != nil {
			return nil, err
		}
		tr.end(root)
	}
	n := float64(len(recs))
	m["core.diagnose_allocs"] = diagAllocs / n
	m["shap.kernel_rows_per_explain"] = float64(kernelRows) / float64(kernelCalls)
	m["shap.kernel_predict_share"] = float64(kernelPredict) / float64(kernelExplain)

	// Batch paths.
	const batch = 8
	for g := 0; g+batch <= len(recs); g += batch {
		var err error
		tr.time("core.diagnose_batch", -1, g, func() {
			_, err = ens.DiagnoseBatchContext(ctx, recs[g:g+batch], core.DefaultDiagnoseOptions())
		})
		if err != nil {
			return nil, err
		}
	}
	all, err := encodeJobs(b.plan.jobs, sample)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 16; i++ {
		tr.time("darshan.parse_batch", -1, i, func() { _, _, err = darshan.ParseDatasetLenient(bytes.NewReader(all)) })
		if err != nil {
			return nil, err
		}
	}

	// Raw model inference on a 4 096-row matrix tiled from the sample.
	const rows = 4096
	mat := linalg.NewMatrix(rows, int(darshan.NumCounters))
	for i := 0; i < rows; i++ {
		copy(mat.Row(i), features.TransformRecord(recs[i%len(recs)]))
	}
	for _, model := range ens.Models {
		for i := 0; i < 5; i++ {
			tr.time(model.Kind()+".predict_batch", -1, i, func() { model.PredictBatch(mat) })
		}
	}

	// The web service handler without the network: hits, cold misses with
	// and without the coalescer, ingest.
	hit := inProcServer(ens, webservice.DefaultCoalesceWindow, nil)
	for r := range recs {
		if err := serve(hit, pathDiagnose, bodies[r]); err != nil {
			return nil, err
		}
	}
	var hitAllocs float64
	for r := range recs {
		var err error
		var id int
		req, w := httptest.NewRequest(http.MethodPost, pathDiagnose, bytes.NewReader(bodies[r])), newSink()
		hitAllocs += mallocs(func() {
			id = tr.time("webservice.hit", -1, r, func() { err = serveRequest(hit, req, w) })
		})
		if err != nil {
			return nil, err
		}
		// What a hit still pays for: the parse and the advisor.
		tr.time("darshan.parse", id, r, func() { _, err = darshan.ParseLog(bytes.NewReader(bodies[r])) })
		if err != nil {
			return nil, err
		}
		tr.time("tune.advise", id, r, func() { _, err = advisor.Advise(diags[r], 1.05) })
		if err != nil {
			return nil, err
		}
	}
	m["webservice.hit_allocs"] = hitAllocs / n
	missOff := inProcServer(ens, 0, nil)
	missOn := inProcServer(ens, webservice.DefaultCoalesceWindow, nil)
	for r := range recs {
		var err error
		tr.time("webservice.miss", -1, r, func() { err = serve(missOff, pathDiagnose, bodies[r]) })
		if err != nil {
			return nil, err
		}
		tr.time("webservice.miss_coalesced", -1, r, func() { err = serve(missOn, pathDiagnose, bodies[r]) })
		if err != nil {
			return nil, err
		}
	}

	if err := b.replayJobLog(tr, m, ens); err != nil {
		return nil, err
	}
	if err := b.replayRetrain(ctx, tr, ens); err != nil {
		return nil, err
	}
	if err := replayRouter(tr, m, hit, bodies); err != nil {
		return nil, err
	}

	// An uncontended admission slot: a guard, no workload should move it.
	lim := admission.NewLimiter(admission.Config{})
	const acquires = 20000
	id := tr.time("admission.acquire_loop", -1, 0, func() {
		for i := 0; i < acquires; i++ {
			release, err := lim.Acquire(ctx)
			if err == nil {
				release()
			}
		}
	})
	m["admission.acquire_ns"] = tr.spans[id].micros() * 1e3 / acquires

	us := func(name string) float64 { return median(tr.micros(name)) }
	m["darshan.parse_us"] = us("darshan.parse")
	m["darshan.parse_batch_us_per_job"] = us("darshan.parse_batch") / n
	m["shap.tree_us"] = us("shap.tree")
	m["shap.kernel_us.mlp"] = us("shap.kernel." + core.NameMLP)
	m["shap.kernel_us.tabnet"] = us("shap.kernel." + core.NameTabNet)
	m["gbdt.predict_us_per_row"] = us("gbdt.predict_batch") / rows
	m["mlp.predict_us_per_row"] = us("mlp.predict_batch") / rows
	m["tabnet.predict_us_per_row"] = us("tabnet.predict_batch") / rows
	m["core.diagnose_ms"] = us("core.diagnose") / 1e3
	m["core.diagnose_self_us"] = median(tr.selfMicros("core.diagnose"))
	m["core.diagnose_batch_ms_per_job"] = us("core.diagnose_batch") / 1e3 / batch
	m["tune.advise_us"] = us("tune.advise")
	m["webservice.hit_us"] = us("webservice.hit")
	m["webservice.hit_self_us"] = median(tr.selfMicros("webservice.hit"))
	m["webservice.miss_ms"] = us("webservice.miss") / 1e3
	m["webservice.coalesce_wait_ms"] = (us("webservice.miss_coalesced") - us("webservice.miss")) / 1e3
	m["webservice.http_overhead_us"] = median(httpHit) - m["webservice.hit_us"]
	m["webservice.response_bytes"] = replyBytes
	m["core.retrain_cycle_ms"] = us("core.retrain_cycle") / 1e3

	// From the real server's counters over the measured phase.
	m["webservice.cache_hit_ratio"] = ratio(phase.Cache.Hits, phase.Cache.Hits+phase.Cache.Misses)
	m["webservice.coalesce_fused_per_batch"] = ratio(phase.Coalesce.Fused, phase.Coalesce.Batches)
	m["admission.shed"] = float64(phase.shed())

	// From set-up.
	m["core.train_ms"] = b.model.trainMs()
	m["core.store_save_ms"] = b.saveMs
	m["gbdt.fit_ms"] = (b.model.fitMs[core.NameXGBoost] + b.model.fitMs[core.NameLightGBM] + b.model.fitMs[core.NameCatBoost]) / 3
	m["mlp.fit_ms"] = b.model.fitMs[core.NameMLP]
	m["tabnet.fit_ms"] = b.model.fitMs[core.NameTabNet]

	if err := tr.write(filepath.Join(b.cfg.workDir, "spans-"+b.spec.name+".json")); err != nil {
		return nil, err
	}
	b.rep.Counts["trace.spans"] = int64(len(tr.spans))
	b.rep.Counts["replay.jobs"] = int64(len(recs))
	return m, nil
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// replayJobLog measures the durable job log directly and through the
// ingest handler, on four 64-job batches of unsent jobs.
func (b *bench) replayJobLog(tr *tracer, m map[string]float64, ens *core.Ensemble) error {
	const batch = 64
	jobs := b.plan.extra
	batches := len(jobs) / batch
	if batches == 0 {
		return fmt.Errorf("replay: %d reserve jobs, need at least %d", len(jobs), batch)
	}
	jl, err := joblog.Open(filepath.Join(b.dir, "replay-joblog"), joblog.Options{})
	if err != nil {
		return err
	}
	defer jl.Close()
	for g := 0; g < batches; g++ {
		for _, j := range jobs[g*batch : (g+1)*batch] {
			tr.time("joblog.append", -1, j, func() { _, err = jl.Append(b.plan.jobs[j]) })
			if err != nil {
				return err
			}
		}
		tr.time("joblog.sync", -1, g, func() { err = jl.Sync() })
		if err != nil {
			return err
		}
	}
	scanned := 0
	id := tr.time("joblog.scan", -1, 0, func() {
		err = jl.Scan(func(uint64, *darshan.Record) bool { scanned++; return true })
	})
	if err != nil {
		return err
	}
	m["joblog.append_us"] = median(tr.micros("joblog.append"))
	m["joblog.sync_ms"] = median(tr.micros("joblog.sync")) / 1e3
	m["joblog.scan_us_per_job"] = tr.spans[id].micros() / float64(scanned)
	m["joblog.bytes_per_job"] = float64(jl.Stats().TotalBytes) / float64(scanned)

	ingestLog, err := joblog.Open(filepath.Join(b.dir, "replay-ingest"), joblog.Options{})
	if err != nil {
		return err
	}
	defer ingestLog.Close()
	h := inProcServer(ens, webservice.DefaultCoalesceWindow, ingestLog)
	for g := 0; g < batches; g++ {
		body, err := encodeJobs(b.plan.jobs, jobs[g*batch:(g+1)*batch])
		if err != nil {
			return err
		}
		tr.time("webservice.ingest", -1, g, func() { err = serve(h, pathJobs, body) })
		if err != nil {
			return err
		}
	}
	m["webservice.ingest_us_per_job"] = median(tr.micros("webservice.ingest")) / batch
	return nil
}

// replayRetrain times one core.RunIncremental the way the server runs it
// on ingest_retrain: a job log holding a full window of incorporated
// history plus one threshold of backlog, warm-started from ens.
func (b *bench) replayRetrain(ctx context.Context, tr *tracer, ens *core.Ensemble) error {
	var ingest spec
	for _, s := range workloads(nproc()) {
		if s.ingest {
			ingest = s
		}
	}
	history := append(append([]*darshan.Record(nil), b.trainDS.Records...), b.held...)
	window := min(ingest.retrainWindow, len(history)*2/3)
	backlog := min(ingest.retrainAfter(), len(history)-window)

	jl, err := joblog.Open(filepath.Join(b.dir, "replay-retrain-joblog"), joblog.Options{})
	if err != nil {
		return err
	}
	defer jl.Close()
	var last uint64
	for i, rec := range history[:window+backlog] {
		res, err := jl.Append(rec)
		if err != nil {
			return err
		}
		if i < window {
			last = res.Seq
		}
	}
	if err := jl.Sync(); err != nil {
		return err
	}
	if err := jl.AdvanceCursor(last); err != nil {
		return err
	}
	store := core.OpenStore(filepath.Join(b.dir, "replay-retrain-models"))
	if _, err := store.Save(ens); err != nil {
		return err
	}
	topts := core.DefaultTrainOptions()
	topts.Fast = b.cfg.size.fastTrain
	topts.WarmStart = true
	tr.time("core.retrain_cycle", -1, 0, func() {
		_, err = core.RunIncremental(ctx, jl, store, core.IncrementalOptions{
			MiniBatch: 512, Window: ingest.retrainWindow, Train: topts,
		})
	})
	return err
}

// replayRouter puts an in-process replica.Router in front of the hit
// server (served over loopback by httptest) and reports what the extra hop
// adds to a cached diagnosis: the routed request minus the same hit served
// by the handler directly. No workload runs the router: it is here for the
// record.
func replayRouter(tr *tracer, m map[string]float64, hit http.Handler, bodies [][]byte) error {
	ts := httptest.NewServer(hit)
	defer ts.Close()
	router := replica.NewRouter(replica.RouterConfig{Replicas: []string{ts.URL}, HTTP: ts.Client()}).Handler()
	for r, body := range bodies {
		var err error
		tr.time("replica.routed", -1, r, func() { err = serve(router, pathDiagnose, body) })
		if err != nil {
			return err
		}
	}
	m["replica.route_us"] = median(tr.micros("replica.routed")) - median(tr.micros("webservice.hit"))
	const keys = 10000
	var sum uint64
	id := tr.time("replica.key_loop", -1, 0, func() {
		for i := 0; i < keys; i++ {
			sum += replica.Key(bodies[i%len(bodies)])
		}
	})
	_ = sum
	m["replica.key_ns"] = tr.spans[id].micros() * 1e3 / keys
	return nil
}
