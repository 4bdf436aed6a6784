package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hpc-repro/aiio/internal/core"
	"github.com/hpc-repro/aiio/internal/logdb"
	"github.com/hpc-repro/aiio/internal/webservice"
)

func TestQuantile(t *testing.T) {
	cases := []struct {
		v    []float64
		q    float64
		want float64
	}{
		{[]float64{5, 1, 4, 2, 3}, 0.25, 2},
		{[]float64{5, 1, 4, 2, 3}, 0.50, 3},
		{[]float64{5, 1, 4, 2, 3}, 0.75, 4},
		{[]float64{1, 2, 3, 4}, 0.50, 2.5},
		{[]float64{1, 2, 3, 4}, 0.25, 1.75},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 0.90, 9.1},
		{[]float64{7}, 0.90, 7},
		{[]float64{1, 2}, 1, 2},
		{[]float64{1, 2}, 0, 1},
		{nil, 0.5, 0},
	}
	for _, c := range cases {
		if got := quantile(c.v, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.v, c.q, got, c.want)
		}
	}
	v := []float64{3, 1, 2}
	quantile(v, 0.5)
	if !reflect.DeepEqual(v, []float64{3, 1, 2}) {
		t.Errorf("quantile reordered its input: %v", v)
	}
	// One slow spell among the rounds moves neither quiet quartile.
	rates := []float64{100, 101, 99, 100, 40, 100, 102, 98}
	if got := quietRate(rates); got < 100 || got > 102 {
		t.Errorf("quietRate = %v, want within the quiet rounds", got)
	}
	costs := []float64{10, 10.1, 9.9, 10, 25, 10, 10.2, 9.8}
	if got := quietCost(costs); got < 9.8 || got > 10 {
		t.Errorf("quietCost = %v, want within the quiet rounds", got)
	}
}

func TestParseProcStat(t *testing.T) {
	// A command name holding spaces and parentheses, as /proc prints it.
	line := "4242 (aiio (srv) x) S 1 4242 4242 0 -1 4194560 5000 0 0 0 1234 567 0 0 20 0 9 0 100 200 300\n"
	ms, err := parseProcStat(line)
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(1234+567) * 10; ms != want {
		t.Errorf("utime+stime = %v ms, want %v", ms, want)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 x S", "1 (x) S 1 2 3 4 5 6 7 8 9 10 eleven 12"} {
		if _, err := parseProcStat(bad); err == nil {
			t.Errorf("parseProcStat(%q) succeeded", bad)
		}
	}
	if data, err := os.ReadFile("/proc/self/stat"); err == nil {
		if _, err := parseProcStat(string(data)); err != nil {
			t.Errorf("this process's own stat line: %v", err)
		}
	}

	if ms, err := parseSchedstat("3253016000 62922 6\n"); err != nil || ms != 3253.016 {
		t.Errorf("parseSchedstat = %v, %v; want 3253.016", ms, err)
	}
	for _, bad := range []string{"", "12 13", "x 1 2"} {
		if _, err := parseSchedstat(bad); err == nil {
			t.Errorf("parseSchedstat(%q) succeeded", bad)
		}
	}
	// This process has burnt some CPU by now, whichever file says so.
	if ms, err := readProcCPUMs(os.Getpid()); err != nil || ms <= 0 {
		t.Errorf("readProcCPUMs(self) = %v, %v", ms, err)
	}
}

func TestParseStatusKB(t *testing.T) {
	status := "Name:\taiio-server\nVmPeak:\t  200000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   40000 kB\n"
	kb, err := parseStatusKB(status, "VmHWM")
	if err != nil || kb != 51200 {
		t.Errorf("VmHWM = %v, %v; want 51200", kb, err)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("missing key did not fail")
	}
}

// planBodies flattens a plan into its request bodies, in send order.
func planBodies(p *plan) [][]byte {
	var out [][]byte
	for _, r := range p.warm {
		out = append(out, r.body)
	}
	for _, round := range p.rounds {
		for _, r := range round {
			out = append(out, r.body)
		}
	}
	return out
}

func TestPlanFollowsSeed(t *testing.T) {
	for _, sp := range workloads(2) {
		sp, err := findWorkload(sp.name, 2)
		if err != nil {
			t.Fatal(err)
		}
		if sp.ingest {
			sp.reqsPerRound = 2 // 64 jobs a request: keep the simulation short
		}
		t.Run(sp.name, func(t *testing.T) {
			a, err := buildPlan(sp, 7, 2)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := buildPlan(sp, 7, 2)
			c, _ := buildPlan(sp, 8, 2)
			if !reflect.DeepEqual(planBodies(a), planBodies(b)) {
				t.Error("same seed, different request bodies")
			}
			roundJobs := func(p *plan) [][]int {
				var out [][]int
				for _, round := range p.rounds {
					var jobs []int
					for _, r := range round {
						jobs = append(jobs, r.jobs...)
					}
					out = append(out, jobs)
				}
				return out
			}
			if !reflect.DeepEqual(roundJobs(a), roundJobs(b)) {
				t.Error("same seed, different round membership")
			}
			reserve := func(p *plan) []string {
				var ids []string
				for _, j := range p.extra {
					ids = append(ids, identity(p.jobs[j]))
				}
				return ids
			}
			if sp.ingest {
				// The ingest stream is fixed; the seed picks the reserve.
				if !reflect.DeepEqual(planBodies(a), planBodies(c)) {
					t.Error("the ingest stream followed the seed")
				}
				if reflect.DeepEqual(reserve(a), reserve(c)) {
					t.Error("different seeds, same reserve jobs")
				}
			} else if reflect.DeepEqual(planBodies(a), planBodies(c)) {
				t.Error("different seeds, same request bodies")
			}
			if len(a.rounds) != 2 || len(a.rounds[0]) != sp.reqsPerRound {
				t.Errorf("%d rounds of %d requests, want 2 of %d", len(a.rounds), len(a.rounds[0]), sp.reqsPerRound)
			}
			// No two jobs of a plan share a cache identity, and unless the
			// workload has a working set no job is sent twice.
			ids := map[string]bool{}
			for _, rec := range a.jobs {
				ids[identity(rec)] = true
			}
			if len(ids) != len(a.jobs) {
				t.Errorf("%d identities among %d jobs", len(ids), len(a.jobs))
			}
			sent := map[int]int{}
			for _, round := range append([][]request{a.warm}, a.rounds...) {
				for _, r := range round {
					for _, j := range r.jobs {
						sent[j]++
					}
				}
			}
			for j, n := range sent {
				if sp.workingSet == 0 && n > 1 {
					t.Fatalf("job %d sent %d times on a distinct-jobs workload", j, n)
				}
				if sp.workingSet > 0 && j >= sp.workingSet {
					t.Fatalf("job %d sent from outside the %d-job working set", j, sp.workingSet)
				}
			}
			for _, j := range a.extra {
				if sent[j] != 0 {
					t.Fatalf("reserve job %d was also sent", j)
				}
			}
		})
	}
}

func TestJudge(t *testing.T) {
	rate := metricDef{Name: "jobs_per_s", Better: higher, Bound: 0.10}
	cost := metricDef{Name: "latency_p50_ms", Better: lower, Bound: 0.10}
	cases := []struct {
		name string
		d    metricDef
		a, b []float64
		want verdict
	}{
		{"same", cost, []float64{10, 10.1, 9.9}, []float64{10, 10.2, 9.8}, verdictOK},
		{"slower beyond the bound", cost, []float64{10, 10.1, 9.9}, []float64{12, 12.1, 11.9}, verdictRegressed},
		{"slower within the bound", cost, []float64{10, 10.1, 9.9}, []float64{10.5, 10.6, 10.4}, verdictOK},
		{"faster", cost, []float64{10, 10.1, 9.9}, []float64{5, 5.1, 4.9}, verdictOK},
		{"rate dropped", rate, []float64{100, 101, 99}, []float64{80, 81, 79}, verdictRegressed},
		{"rate rose", rate, []float64{100, 101, 99}, []float64{130, 131, 129}, verdictOK},
		{"noisy and overlapping", cost, []float64{10, 14, 8}, []float64{12, 9, 15}, verdictUnresolved},
		{"noisy, medians equal", cost, []float64{10, 14, 8}, []float64{10, 13, 8.5}, verdictUnresolved},
		{"noisy but every run worse", cost, []float64{10, 12, 9}, []float64{20, 26, 18}, verdictRegressed},
		{"noisy but every run better", cost, []float64{10, 12, 9}, []float64{5, 6.5, 4}, verdictOK},
	}
	for _, c := range cases {
		if got, _, _ := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareMain(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale map[string]float64) string {
		path := filepath.Join(dir, name)
		for run := 0; run < 3; run++ {
			rep := &report{Workload: "warm_repeat", Seed: int64(run), Correct: true, EndToEnd: map[string]metricValue{}}
			for _, d := range endToEnd {
				v := 100 * (1 + 0.01*float64(run))
				if s, ok := scale[d.Name]; ok {
					v *= s
				}
				rep.EndToEnd[d.Name] = metricValue{Value: v, Unit: d.Unit}
			}
			if err := appendReport(path, rep); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a.jsonl", nil)
	same := write("b.jsonl", nil)
	slow := write("c.jsonl", map[string]float64{"latency_p50_ms": 1.5})

	var out, errOut bytes.Buffer
	if code := compareMain([]string{base, same}, &out, &errOut); code != 0 {
		t.Errorf("identical sets: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	if rows := strings.Count(out.String(), "warm_repeat"); rows != len(endToEnd) {
		t.Errorf("%d rows, want one per end-to-end metric (%d)\n%s", rows, len(endToEnd), out.String())
	}
	out.Reset()
	if code := compareMain([]string{base, slow}, &out, &errOut); code != 1 {
		t.Errorf("50%% slower p50: exit %d, want 1\n%s", code, out.String())
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, "latency_p50_ms") != strings.Contains(line, string(verdictRegressed)) {
			t.Errorf("only latency_p50_ms should read regressed: %q", line)
		}
	}
	if code := compareMain([]string{base}, &out, &errOut); code != 2 {
		t.Errorf("one argument: exit %d, want 2", code)
	}
	// A run that failed its gate does not count as a measurement.
	bad := filepath.Join(dir, "bad.jsonl")
	if err := appendReport(bad, &report{Workload: "warm_repeat", Correct: false}); err != nil {
		t.Fatal(err)
	}
	if code := compareMain([]string{base, bad}, &out, &errOut); code != 2 {
		t.Errorf("incorrect run accepted: exit %d, want 2", code)
	}
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the endToEnd table:\n%+v\n%+v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the perLayer table")
	}
	specs := workloads(2)
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("%d workloads, want %d", len(bj.Workloads), len(specs))
	}
	for i, sp := range specs {
		if bj.Workloads[i].Name != sp.name || bj.Workloads[i].Why != sp.why {
			t.Errorf("workload %d is %+v, want %s: %s", i, bj.Workloads[i], sp.name, sp.why)
		}
	}
	if !reflect.DeepEqual(bj.Paths, []string{"cmd/aiio-bench"}) {
		t.Errorf("paths = %v", bj.Paths)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bj.RunSeconds)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s listed twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// smokeSize is the -short-sized run: a tiny training database, the reduced
// training budgets, two rounds.
var smokeSize = sizes{
	trainJobs: 300, fastTrain: true, setups: 1, evalJobs: 24, gateSample: 8, replayJobs: 16,
	maxRounds: 2, maxReqsPerRound: 8, phaseDeadline: 2 * time.Minute,
}

var smoke struct {
	once   sync.Once
	ens    *core.Ensemble
	server string
	err    error
}

// smokeFixture trains one small ensemble and builds the real server once
// for every test that needs them.
func smokeFixture(t *testing.T) (*core.Ensemble, string) {
	t.Helper()
	smoke.once.Do(func() {
		ds := logdb.Generate(logdb.GenConfig{Jobs: smokeSize.trainJobs, Seed: trainSeed})
		var model *trained
		if model, smoke.err = train(context.Background(), ds, true); smoke.err != nil {
			return
		}
		smoke.ens = model.ens
		dir, err := os.MkdirTemp("", "aiio-bench-test-")
		if err != nil {
			smoke.err = err
			return
		}
		// Tests run in the package directory; the build needs the module root.
		wd, _ := os.Getwd()
		defer os.Chdir(wd)
		if smoke.err = os.Chdir("../.."); smoke.err == nil {
			smoke.server, smoke.err = buildServer(context.Background(), dir)
		}
	})
	if smoke.err != nil {
		t.Fatal(smoke.err)
	}
	return smoke.ens, smoke.server
}

func TestMain(m *testing.M) {
	code := m.Run()
	if smoke.server != "" {
		os.RemoveAll(filepath.Dir(smoke.server))
	}
	os.Exit(code)
}

// TestGateRejectsWrongAnswers feeds the answer check real replies from the
// handler: untouched they pass, with one factor perturbed, a factor
// dropped, or a batch reordered they fail.
func TestGateRejectsWrongAnswers(t *testing.T) {
	ens, _ := smokeFixture(t)
	jobs := distinctJobs(4, 99, map[string]bool{})
	h := inProcServer(ens, 0, nil)
	post := func(path string, idx []int) []byte {
		body, err := encodeJobs(jobs, idx)
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("POST %s: %d %s", path, w.Code, w.Body)
		}
		return w.Body.Bytes()
	}
	want := make([]*core.Diagnosis, len(jobs))
	for i, rec := range jobs {
		var err error
		if want[i], err = ens.Diagnose(rec, core.DefaultDiagnoseOptions()); err != nil {
			t.Fatal(err)
		}
	}

	single := post(pathDiagnose, []int{0})
	if err := checkReply(pathDiagnose, single, want[:1]); err != nil {
		t.Fatalf("a correct reply failed the gate: %v", err)
	}
	batch := post(pathBatch, []int{0, 1, 2, 3})
	if err := checkReply(pathBatch, batch, want); err != nil {
		t.Fatalf("a correct batch reply failed the gate: %v", err)
	}

	mutate := func(edit func(*webservice.DiagnosisResponse)) []byte {
		var resp webservice.DiagnosisResponse
		if err := json.Unmarshal(single, &resp); err != nil {
			t.Fatal(err)
		}
		edit(&resp)
		out, _ := json.Marshal(&resp)
		return out
	}
	wrong := map[string][]byte{
		"one factor perturbed": mutate(func(r *webservice.DiagnosisResponse) { r.Factors[0].Contribution += 1e-6 }),
		"one factor dropped":   mutate(func(r *webservice.DiagnosisResponse) { r.Factors = r.Factors[1:] }),
		"not robust":           mutate(func(r *webservice.DiagnosisResponse) { r.Robust = false }),
		"another job's answer": post(pathDiagnose, []int{1}),
	}
	for name, reply := range wrong {
		if err := checkReply(pathDiagnose, reply, want[:1]); err == nil {
			t.Errorf("%s: the gate let it through", name)
		}
	}
	if err := checkReply(pathBatch, post(pathBatch, []int{1, 0, 2, 3}), want); err == nil {
		t.Error("a reordered batch passed the gate")
	}
	if err := checkReply(pathBatch, post(pathBatch, []int{0, 1, 2}), want); err == nil {
		t.Error("a short batch passed the gate")
	}

	if err := checkIngest([]byte(`{"accepted":64,"duplicates":0,"quarantined":0,"parse_rejected":0}`), 64); err != nil {
		t.Errorf("a full ingest ack failed: %v", err)
	}
	for _, ack := range []string{
		`{"accepted":63,"duplicates":1}`, `{"accepted":63,"quarantined":1}`, `{"accepted":63,"parse_rejected":1}`, `{"accepted":63}`,
	} {
		if err := checkIngest([]byte(ack), 64); err == nil {
			t.Errorf("ingest ack %s passed", ack)
		}
	}
}

// runSmoke runs one workload at smokeSize against the real server.
func runSmoke(t *testing.T, workload string, trace bool) *report {
	t.Helper()
	_, server := smokeFixture(t)
	rep, err := run(context.Background(), config{
		workload: workload, seed: 1, seconds: 1, trace: trace,
		workDir: t.TempDir(), serverBin: server, size: smokeSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("correct %v, attempted %d, failed %d: %v", rep.Correct, rep.Attempted, rep.Failed, rep.Failures)
	}
	return rep
}

// checkSchema verifies that a report carries exactly the metrics of defs,
// all finite.
func checkSchema(t *testing.T, got map[string]metricValue, defs []metricDef) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("%d metrics, want %d", len(got), len(defs))
	}
	for _, d := range defs {
		mv, ok := got[d.Name]
		if !ok {
			t.Errorf("metric %s missing", d.Name)
			continue
		}
		if mv.Unit != d.Unit || math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
			t.Errorf("metric %s = %v %q, want a finite value in %q", d.Name, mv.Value, mv.Unit, d.Unit)
		}
	}
}

// TestSmoke spawns the real server and checks what a traced run prints:
// both metric schemas, the result line, the counters with a known value.
func TestSmoke(t *testing.T) {
	rep := runSmoke(t, "cold_distinct", true)
	checkSchema(t, rep.EndToEnd, endToEnd)
	checkSchema(t, rep.PerLayer, perLayer)
	for _, d := range endToEnd {
		if rep.EndToEnd[d.Name].Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, must be positive", d.Name, rep.EndToEnd[d.Name].Value)
		}
	}
	if v := rep.PerLayer["webservice.cache_hit_ratio"].Value; v != 0 {
		t.Errorf("cache_hit_ratio on cold_distinct = %v, want 0", v)
	}
	if v := rep.PerLayer["admission.shed"].Value; v != 0 {
		t.Errorf("admission.shed = %v, want 0", v)
	}
	if rep.Counts["gate.diagnoses_checked"] != int64(smokeSize.gateSample) {
		t.Errorf("gate checked %d diagnoses, want %d", rep.Counts["gate.diagnoses_checked"], smokeSize.gateSample)
	}

	var out bytes.Buffer
	printReport(&out, rep)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	if len(last) != 4 {
		t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", last)
	}
	var metrics map[string]metricValue
	if err := json.Unmarshal(last["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	checkSchema(t, metrics, perLayer)
	for _, want := range []string{"requests_sent", "requests_ok", "requests_failed", "nproc", "build_s"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q", want)
		}
	}
}

// TestSmokeWorkloads runs the other three workloads end to end at smoke
// size: the cache must answer every warm_repeat request, batches must keep
// their order, and every ingest cycle must promote exactly one generation.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("three more server runs")
	}
	warm := runSmoke(t, "warm_repeat", false)
	checkSchema(t, warm.EndToEnd, endToEnd)
	if warm.Counts["cache.misses"] != 0 || warm.Counts["cache.hits"] == 0 {
		t.Errorf("warm_repeat measured phase: %d hits, %d misses; want all hits",
			warm.Counts["cache.hits"], warm.Counts["cache.misses"])
	}
	runSmoke(t, "batch_offline", false)
	ingest := runSmoke(t, "ingest_retrain", false)
	if got, want := ingest.Counts["generation.final"], int64(1+2+2); got != want {
		t.Errorf("ingest_retrain ended at generation %d, want %d", got, want)
	}
	if got, want := ingest.Counts["joblog.records"], int64(4*smokeSize.maxReqsPerRound*64); got != want {
		t.Errorf("job log holds %d records, want %d", got, want)
	}
}
