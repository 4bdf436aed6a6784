package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"github.com/hpc-repro/aiio/internal/core"
	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/features"
	"github.com/hpc-repro/aiio/internal/logdb"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// workDir is where the per-run temp directory (model store, job log,
	// server log, spans) is made and removed again.
	workDir string
	// serverBin, when set, is a prebuilt aiio-server; otherwise the run
	// builds one.
	serverBin string
	size      sizes
}

// sizes holds what the -short smoke test shrinks; fullSize is what a real
// run uses.
type sizes struct {
	trainJobs int
	// fastTrain selects the reduced training budgets (smoke test only;
	// a real run trains at the paper's default budgets).
	fastTrain bool
	// setups is how many times set-up runs; setup_s is their median.
	setups     int
	evalJobs   int
	gateSample int
	replayJobs int
	// maxRounds and maxReqsPerRound, when > 0, cap the measured rounds and
	// the requests in a round (and so, on ingest_retrain, -retrain-after).
	maxRounds       int
	maxReqsPerRound int
	// phaseDeadline bounds each phase, so a hung server fails the run
	// instead of stalling it.
	phaseDeadline time.Duration
}

var fullSize = sizes{
	trainJobs: 3000, setups: 3, evalJobs: 256, gateSample: 32, replayJobs: 64,
	phaseDeadline: 90 * time.Second,
}

// report is everything one run measured; -out appends it to a file for
// `aiio-bench compare`.
type report struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	EndToEnd  map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	Phases    []phaseCounts          `json:"phases"`
	// Counts are exact, seed-determined numbers (cache hits, job-log
	// records, generations, sample sizes): same seed ⇒ same counts.
	Counts   map[string]int64 `json:"counts"`
	Failures []string         `json:"failures,omitempty"`
	Env      envInfo          `json:"env"`
}

// trained is generation 1 and what fitting it cost.
type trained struct {
	ens     *core.Ensemble
	buildMs float64
	fitMs   map[string]float64 // by model name
}

func (t *trained) trainMs() float64 {
	total := t.buildMs
	for _, ms := range t.fitMs {
		total += ms
	}
	return total
}

// train fits the five performance functions on ds through the public
// features/core functions. Each family is fitted by its own TrainEnsemble
// call so its time can be reported; the models are the same as one call
// over all five (each fit is seeded independently and shares the split).
func train(ctx context.Context, ds *darshan.Dataset, fast bool) (*trained, error) {
	t := &trained{ens: &core.Ensemble{}, fitMs: map[string]float64{}}
	start := time.Now()
	frame := features.Build(ds)
	t.buildMs = msSince(start)
	for _, name := range core.ModelNames() {
		opts := core.DefaultTrainOptions()
		opts.Models = []string{name}
		opts.Fast = fast
		start = time.Now()
		ens, _, err := core.TrainEnsembleContext(ctx, frame, opts)
		if err != nil {
			return nil, err
		}
		t.fitMs[name] = msSince(start)
		t.ens.Models = append(t.ens.Models, ens.Models[0])
	}
	return t, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// bench is the state of one run.
type bench struct {
	cfg     config
	spec    spec
	plan    *plan
	dir     string // per-run temp dir
	trainDS *darshan.Dataset
	held    []*darshan.Record

	srv    *server
	ld     *loader
	model  *trained
	saveMs float64
	store  *core.Store

	// kept are the sampled replies awaiting the answer check.
	kept []sampled

	rep    *report
	values map[string]float64 // end-to-end metric values
}

func (b *bench) fail(format string, args ...any) {
	b.rep.Correct = false
	if len(b.rep.Failures) < 10 {
		b.rep.Failures = append(b.rep.Failures, fmt.Sprintf(format, args...))
	}
}

// run executes one workload end to end and returns its report. A non-nil
// error means the run itself broke (server would not start, phase
// deadline); a failed correctness gate is reported in the report.
func run(ctx context.Context, cfg config) (*report, error) {
	sp, err := findWorkload(cfg.workload, nproc())
	if err != nil {
		return nil, err
	}
	if cfg.size.maxReqsPerRound > 0 {
		sp.reqsPerRound = min(sp.reqsPerRound, cfg.size.maxReqsPerRound)
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	b := &bench{cfg: cfg, spec: sp, dir: dir, values: map[string]float64{}}
	b.rep = &report{Workload: sp.name, Seed: cfg.seed, Trace: cfg.trace, Correct: true, Counts: map[string]int64{}}
	b.rep.Env = readEnv(dir)
	defer func() {
		if b.srv != nil {
			b.srv.stop()
		}
	}()

	if cfg.serverBin == "" {
		start := time.Now()
		if b.cfg.serverBin, err = buildServer(ctx, dir); err != nil {
			return nil, err
		}
		b.rep.Env.BuildS = time.Since(start).Seconds()
	}

	rounds := sp.rounds(cfg.seconds)
	if cfg.size.maxRounds > 0 {
		rounds = min(rounds, cfg.size.maxRounds)
	}
	start := time.Now()
	b.trainDS = logdb.Generate(logdb.GenConfig{Jobs: cfg.size.trainJobs, Seed: trainSeed})
	b.held = logdb.Generate(logdb.GenConfig{Jobs: cfg.size.evalJobs, Seed: heldOutSeed}).Records
	if b.plan, err = buildPlan(sp, cfg.seed, rounds); err != nil {
		return nil, err
	}
	b.rep.Env.InputsS = time.Since(start).Seconds()

	setupS, err := b.setUp(ctx)
	if err != nil {
		return nil, err
	}
	b.values["setup_s"] = setupS

	before, err := b.srv.readHealth(ctx, b.ld.client)
	if err != nil {
		return nil, err
	}
	if sp.ingest {
		if err = b.measureIngest(ctx); err == nil {
			err = b.finalDiagnoses(ctx)
		}
	} else {
		err = b.measureRounds(ctx)
	}
	if err != nil {
		return nil, fmt.Errorf("%w\n--- server log ---\n%s", err, b.srv.logTail())
	}
	after, err := b.srv.readHealth(ctx, b.ld.client)
	if err != nil {
		return nil, err
	}
	if b.values["rss_peak_mb"], err = readPeakRSSMB(b.srv.pid()); err != nil {
		return nil, err
	}
	phase := after.delta(before)
	b.countHealth(phase)

	var httpHit []float64
	var replyBytes float64
	if cfg.trace {
		if httpHit, replyBytes, err = b.httpHitPass(ctx); err != nil {
			return nil, err
		}
	}
	b.srv.stop()

	// Quality and the answer check run in process, on the generation the
	// server ended the run serving, read back from its registry.
	start = time.Now()
	ens, loadRep, err := b.store.Load()
	if err != nil {
		return nil, fmt.Errorf("load the served generation: %w", err)
	}
	loadMs := msSince(start)
	b.rep.Counts["generation.final"] = int64(loadRep.Generation)
	if want := b.wantFinalGeneration(); loadRep.Generation != want {
		b.fail("registry ends at generation %d, want %d", loadRep.Generation, want)
	}
	b.verifyReplies(ens)
	q, err := evalQuality(ens, b.held)
	if err != nil {
		b.fail("quality: %v", err)
	}
	b.values["eval_rmse"] = q.evalRMSE
	if !(q.attributionErr <= attributionTolerance) {
		b.fail("attribution_err %g exceeds %g", q.attributionErr, attributionTolerance)
	}

	for _, p := range b.rep.Phases {
		b.rep.Attempted += p.Sent
		b.rep.Failed += p.Failed
	}
	if b.rep.Failed > 0 {
		b.rep.Correct = false
	}
	b.rep.Failures = append(b.rep.Failures, b.ld.errs...)

	if cfg.trace {
		layers, err := b.replay(ctx, ens, phase, httpHit, replyBytes)
		if err != nil {
			return nil, err
		}
		layers["core.attribution_err"] = q.attributionErr
		layers["core.store_load_ms"] = loadMs
		var missing []string
		if b.rep.PerLayer, missing = metricSet(perLayer, layers); len(missing) > 0 {
			return nil, fmt.Errorf("replay did not measure %v", missing)
		}
	}
	var missing []string
	if b.rep.EndToEnd, missing = metricSet(endToEnd, b.values); len(missing) > 0 {
		return nil, fmt.Errorf("run did not measure %v", missing)
	}
	b.rep.Env.LoadAvgAfter = loadAvg()
	return b.rep, nil
}

// setUp brings generation 1 up behind a real server size.setups times and
// returns setup_s: the median of features.Build + TrainEnsemble +
// Store.Save + server spawn → /readyz green, plus the workload's warm-up.
// The last server stays up for the measurement.
func (b *bench) setUp(ctx context.Context) (float64, error) {
	ctx, cancel := context.WithTimeout(ctx, b.cfg.size.phaseDeadline)
	defer cancel()
	// A traced run does not report setup_s, so it sets up once.
	setups := b.cfg.size.setups
	if b.cfg.trace {
		setups = 1
	}
	var times []float64
	for i := 0; i < setups; i++ {
		if b.srv != nil {
			b.srv.stop()
		}
		modelsDir := filepath.Join(b.dir, "models-"+strconv.Itoa(i))
		start := time.Now()
		model, err := train(ctx, b.trainDS, b.cfg.size.fastTrain)
		if err != nil {
			return 0, err
		}
		b.store = core.OpenStore(modelsDir)
		saveStart := time.Now()
		if _, err := b.store.Save(model.ens); err != nil {
			return 0, err
		}
		b.model, b.saveMs = model, msSince(saveStart)
		var extra []string
		if b.spec.ingest {
			extra = []string{
				"-joblog-dir", filepath.Join(b.dir, "joblog-"+strconv.Itoa(i)),
				"-retrain-after", strconv.Itoa(b.spec.retrainAfter()),
				"-retrain-window", strconv.Itoa(b.spec.retrainWindow),
			}
			if b.cfg.size.fastTrain {
				extra = append(extra, "-retrain-fast")
			}
		}
		b.srv, err = startServer(ctx, b.cfg.serverBin, modelsDir, filepath.Join(b.dir, "server-"+strconv.Itoa(i)+".log"), extra...)
		if err != nil {
			return 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	b.ld = newLoader(b.srv, b.spec.clients)
	b.ld.wantGen = "1"

	start := time.Now()
	if err := b.warmUp(ctx); err != nil {
		return 0, fmt.Errorf("warm-up: %w\n--- server log ---\n%s", err, b.srv.logTail())
	}
	b.rep.Counts["setup.runs"] = int64(len(times))
	return median(times) + time.Since(start).Seconds(), nil
}

// warmUp sends the plan's warm-up requests: a cache fill, a few cold
// requests, or — on ingest_retrain — the cycles that fill the retrain
// window.
func (b *bench) warmUp(ctx context.Context) error {
	counts := phaseCounts{Name: "warm-up", Clients: b.spec.clients}
	defer func() { b.rep.Phases = append(b.rep.Phases, counts) }()
	if !b.spec.ingest {
		res, err := b.ld.round(ctx, b.spec.path, b.plan.warm, b.spec.clients, nil)
		counts.add(res, len(b.plan.warm))
		return err
	}
	for c := 0; c < b.spec.warmRounds; c++ {
		reqs := b.plan.warm[c*b.spec.reqsPerRound : (c+1)*b.spec.reqsPerRound]
		if _, err := b.ingestCycle(ctx, reqs, uint64(c)+2, &counts); err != nil {
			return err
		}
	}
	return nil
}

// gateSample picks which measured requests have their replies checked
// against the in-process diagnosis: a seed-determined sample holding about
// size.gateSample jobs.
func (b *bench) gateSample() map[[2]int]bool {
	n := max(1, b.cfg.size.gateSample/b.spec.jobsPerReq)
	rng := rand.New(rand.NewSource(b.cfg.seed))
	picks := make(map[[2]int]bool, n)
	total := len(b.plan.rounds) * b.spec.reqsPerRound
	for len(picks) < min(n, total) {
		k := rng.Intn(total)
		picks[[2]int{k / b.spec.reqsPerRound, k % b.spec.reqsPerRound}] = true
	}
	return picks
}

// sampled is one kept reply awaiting verification.
type sampled struct {
	path  string
	req   request
	reply []byte
}

// measureRounds runs the measured phase of a diagnose workload: rounds of
// identical work, each yielding its throughput, its server CPU per job and
// its own latency percentiles. The run reports the quiet quartile across
// rounds.
func (b *bench) measureRounds(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, b.cfg.size.phaseDeadline)
	defer cancel()
	counts := phaseCounts{Name: "measured", Clients: b.spec.clients}
	defer func() { b.rep.Phases = append(b.rep.Phases, counts) }()
	picks := b.gateSample()
	var rate, p50, p90, cpu []float64
	samples := 0
	for r, reqs := range b.plan.rounds {
		keep := map[int]bool{}
		for k := range reqs {
			if picks[[2]int{r, k}] {
				keep[k] = true
			}
		}
		res, err := b.ld.round(ctx, b.spec.path, reqs, b.spec.clients, keep)
		counts.add(res, len(reqs))
		if err != nil {
			return err
		}
		for k, reply := range res.replies {
			b.kept = append(b.kept, sampled{path: b.spec.path, req: reqs[k], reply: reply})
		}
		if res.jobs == 0 {
			continue
		}
		rate = append(rate, res.jobsPerSec())
		p50 = append(p50, quantile(res.latMs, 0.50))
		p90 = append(p90, quantile(res.latMs, 0.90))
		cpu = append(cpu, res.cpuMs/float64(res.jobs))
		samples += len(res.latMs)
	}
	if len(rate) == 0 {
		return fmt.Errorf("no round completed a request: %v", b.ld.errs)
	}
	b.values["jobs_per_s"] = quietRate(rate)
	b.values["latency_p50_ms"] = quietCost(p50)
	b.values["latency_p90_ms"] = quietCost(p90)
	b.values["cpu_ms_per_job"] = quietCost(cpu)
	b.rep.Counts["measured.rounds"] = int64(len(rate))
	b.rep.Counts["latency.samples"] = int64(samples)
	b.rep.Counts["latency.samples_per_round"] = int64(b.spec.reqsPerRound)
	return nil
}

// keepAll asks a round for every reply.
func keepAll(n int) map[int]bool {
	keep := make(map[int]bool, n)
	for k := 0; k < n; k++ {
		keep[k] = true
	}
	return keep
}

// ingestCycle sends one retrain cycle: the ingest POSTs, the last of which
// crosses -retrain-after, then the wait until generation wantGen serves.
func (b *bench) ingestCycle(ctx context.Context, reqs []request, wantGen uint64, counts *phaseCounts) (roundResult, error) {
	res, err := b.ld.round(ctx, b.spec.path, reqs, b.spec.clients, keepAll(len(reqs)))
	counts.add(res, len(reqs))
	if err != nil {
		return res, err
	}
	for k, reply := range res.replies {
		if err := checkIngest(reply, len(reqs[k].jobs)); err != nil {
			b.fail("generation %d cycle: %v", wantGen, err)
			counts.Failed++
			counts.OK--
		}
	}
	if err := b.ld.awaitGeneration(ctx, wantGen); err != nil {
		return res, err
	}
	b.ld.wantGen = strconv.FormatUint(wantGen, 10)
	return res, nil
}

// measureIngest runs the measured retrain cycles. Cycles are not identical
// work — early stopping is data-dependent — so the run reports totals and
// pooled latencies instead of quartiles across rounds: jobs_per_s is the
// telemetry-to-model rate (measured jobs ÷ wall from the first POST to the
// last promotion), the latencies are the ingest acknowledgements', and
// cpu_ms_per_job is the server's total CPU over the phase per job.
func (b *bench) measureIngest(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, b.cfg.size.phaseDeadline)
	defer cancel()
	counts := phaseCounts{Name: "measured", Clients: b.spec.clients}
	defer func() { b.rep.Phases = append(b.rep.Phases, counts) }()
	cpu0, err := readProcCPUMs(b.srv.pid())
	if err != nil {
		return err
	}
	var lat []float64
	jobs := 0
	start := time.Now()
	for r, reqs := range b.plan.rounds {
		res, err := b.ingestCycle(ctx, reqs, uint64(b.spec.warmRounds+r)+2, &counts)
		if err != nil {
			return err
		}
		lat = append(lat, res.latMs...)
		jobs += res.jobs
	}
	wall := time.Since(start)
	cpu1, err := readProcCPUMs(b.srv.pid())
	if err != nil {
		return err
	}
	if jobs == 0 {
		return fmt.Errorf("no ingest request succeeded: %v", b.ld.errs)
	}
	b.values["jobs_per_s"] = float64(jobs) / wall.Seconds()
	b.values["latency_p50_ms"] = quantile(lat, 0.50)
	b.values["latency_p90_ms"] = quantile(lat, 0.90)
	b.values["cpu_ms_per_job"] = (cpu1 - cpu0) / float64(jobs)
	b.rep.Counts["measured.rounds"] = int64(len(b.plan.rounds))
	b.rep.Counts["latency.samples"] = int64(len(lat))

	return nil
}

// finalDiagnoses exercises ingest_retrain's read path on the final
// generation: single-job diagnoses of unsent jobs, kept for the answer
// check. They prove the hot-swapped model is the committed one.
func (b *bench) finalDiagnoses(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, b.cfg.size.phaseDeadline)
	defer cancel()
	counts := phaseCounts{Name: "final-generation diagnoses", Clients: 1}
	var reqs []request
	for _, i := range b.plan.extra[:min(b.cfg.size.gateSample, len(b.plan.extra))] {
		body, err := encodeJobs(b.plan.jobs, []int{i})
		if err != nil {
			return err
		}
		reqs = append(reqs, request{body: body, jobs: []int{i}})
	}
	res, err := b.ld.round(ctx, pathDiagnose, reqs, 1, keepAll(len(reqs)))
	counts.add(res, len(reqs))
	b.rep.Phases = append(b.rep.Phases, counts)
	for k, reply := range res.replies {
		b.kept = append(b.kept, sampled{path: pathDiagnose, req: reqs[k], reply: reply})
	}
	return err
}

// wantFinalGeneration is the generation the registry must end at: one per
// retrain cycle on top of generation 1.
func (b *bench) wantFinalGeneration() uint64 {
	if !b.spec.ingest {
		return 1
	}
	return uint64(1 + b.spec.warmRounds + len(b.plan.rounds))
}

// countHealth records the exact counters of the measured phase (d is their
// growth over it; the job-log and shed figures are totals) and checks the
// ones that have a known value. The coalescer's counters are left out: how
// two concurrent clients' requests fuse depends on timing, not on the seed.
func (b *bench) countHealth(d *health) {
	c := b.rep.Counts
	c["cache.hits"] = int64(d.Cache.Hits)
	c["cache.misses"] = int64(d.Cache.Misses)
	c["admission.shed"] = int64(d.shed())
	if d.shed() != 0 {
		b.fail("admission shed %d requests", d.shed())
	}
	if !b.spec.ingest {
		return
	}
	sent := 0
	for _, reqs := range append([][]request{b.plan.warm}, b.plan.rounds...) {
		for _, r := range reqs {
			sent += len(r.jobs)
		}
	}
	c["joblog.records"] = int64(d.JobLog.Records)
	if d.JobLog.Records != sent || d.JobLog.Quarantined != 0 || d.JobLog.DuplicateFrames != 0 {
		b.fail("job log holds %d records (%d quarantined, %d duplicate frames), %d jobs were sent",
			d.JobLog.Records, d.JobLog.Quarantined, d.JobLog.DuplicateFrames, sent)
	}
}

// verifyReplies checks every kept reply against the in-process diagnosis
// by ens. A wrong answer is a failed request.
func (b *bench) verifyReplies(ens *core.Ensemble) {
	// Map iteration order put b.kept in no particular order; sort so the
	// failures print the same way each time.
	sort.Slice(b.kept, func(i, j int) bool { return b.kept[i].req.jobs[0] < b.kept[j].req.jobs[0] })
	checked := 0
	opts := core.DefaultDiagnoseOptions()
	for _, s := range b.kept {
		want := make([]*core.Diagnosis, len(s.req.jobs))
		var err error
		for i, j := range s.req.jobs {
			if want[i], err = ens.Diagnose(b.plan.jobs[j], opts); err != nil {
				break
			}
		}
		if err == nil {
			err = checkReply(s.path, s.reply, want)
		}
		if err != nil {
			b.fail("answer check: %v", err)
			b.rep.Failed++
		}
		checked += len(s.req.jobs)
	}
	b.rep.Counts["gate.diagnoses_checked"] = int64(checked)
	if checked == 0 {
		b.fail("answer check: no reply was sampled")
	}
}
