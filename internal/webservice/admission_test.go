package webservice

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpc-repro/aiio/internal/admission"
	"github.com/hpc-repro/aiio/internal/core"
	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/faults"
	"github.com/hpc-repro/aiio/internal/features"
	"github.com/hpc-repro/aiio/internal/linalg"
	"github.com/hpc-repro/aiio/internal/logdb"
	"github.com/hpc-repro/aiio/internal/mlp"
	"github.com/hpc-repro/aiio/internal/tune"
)

// postLog POSTs rec as a text log to url and returns status, body, and
// headers.
func postLog(t *testing.T, client *http.Client, url string, rec *darshan.Record) (int, []byte, http.Header) {
	t.Helper()
	var buf bytes.Buffer
	if err := darshan.WriteLog(&buf, rec); err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "text/plain", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body, resp.Header
}

// TestFloodShedsInsteadOfQueueing is the issue's flood drill: at 10× the
// admission limit the server must answer the excess with 429 +
// Retry-After immediately (bounded queue, bounded memory) and shed
// requests must never touch the diagnosis cache.
func TestFloodShedsInsteadOfQueueing(t *testing.T) {
	ws := NewServer(ensemble(t), fastOpts())
	ws.Admission = admission.NewController(admission.Config{
		MaxInflight: 1, QueueDepth: 2, RetryAfter: 3 * time.Second,
	})
	// Pin every admitted request to ≥100ms (a slow advisor) so the herd
	// genuinely collides with the 1-inflight/2-queued funnel — with the
	// natural microsecond cache-hit service time the requests would just
	// serialize through and nothing would shed.
	ws.advise = func(*core.Ensemble, *core.Diagnosis) ([]tune.Recommendation, error) {
		time.Sleep(100 * time.Millisecond)
		return nil, nil
	}
	srv := httptest.NewServer(ws.Handler())
	defer srv.Close()

	// Force the cache into existence so its counters are live before the
	// flood.
	cache := ws.diagnosisCache()
	if cache == nil {
		t.Fatal("cache unexpectedly disabled")
	}
	rec := testRecord()
	const n = 30 // 10× (MaxInflight + QueueDepth)
	var ok, shed atomic.Int64
	errs := faults.Flood(n, func(i int) error {
		status, body, hdr := postLog(t, srv.Client(), srv.URL+"/api/v1/diagnose", rec)
		switch status {
		case http.StatusOK:
			ok.Add(1)
		case http.StatusTooManyRequests:
			shed.Add(1)
			if hdr.Get("Retry-After") == "" {
				t.Errorf("429 without Retry-After header")
			}
			var e struct {
				Error      string `json:"error"`
				RetryAfter int    `json:"retry_after"`
			}
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" || e.RetryAfter < 1 {
				t.Errorf("429 body not structured: %s", body)
			}
		default:
			t.Errorf("unexpected status %d: %s", status, body)
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := ok.Load() + shed.Load(); got != n {
		t.Fatalf("accounted for %d of %d requests", got, n)
	}
	if ok.Load() < 1 {
		t.Fatal("no request was admitted at all")
	}
	if shed.Load() < n-3-5 { // 1 inflight + 2 queued (+ slack for fast turnover)
		t.Fatalf("only %d of %d shed; the queue is not bounded", shed.Load(), n)
	}
	// Shed requests never reach the cache: every lookup belongs to an
	// admitted request.
	hits, misses, _ := cache.stats()
	if total := hits + misses; total != uint64(ok.Load()) {
		t.Fatalf("cache saw %d lookups for %d admitted requests — shed requests poisoned it",
			total, ok.Load())
	}
	stats := ws.Admission.Stats()["diagnose"]
	if stats.Shed != uint64(shed.Load()) || stats.Admitted != uint64(ok.Load()) {
		t.Fatalf("admission stats %+v disagree with observed ok=%d shed=%d", stats, ok.Load(), shed.Load())
	}
}

func TestDrainShedsAndReadyzGoesRed(t *testing.T) {
	ws := NewServer(ensemble(t), fastOpts())
	ws.Admission = admission.NewController(admission.Config{MaxInflight: 2})
	srv := httptest.NewServer(ws.Handler())
	defer srv.Close()

	// Ready before the drain.
	resp, err := srv.Client().Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz = %d before drain, want 200", resp.StatusCode)
	}
	ws.BeginDrain()
	resp, err = srv.Client().Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Ready   bool     `json:"ready"`
		Reasons []string `json:"reasons"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || body.Ready {
		t.Fatalf("/readyz during drain = %d ready=%v, want 503 not-ready", resp.StatusCode, body.Ready)
	}
	if len(body.Reasons) == 0 || body.Reasons[0] != "draining" {
		t.Fatalf("reasons = %v, want [draining]", body.Reasons)
	}
	// New diagnosis work is refused with a structured 503.
	status, respBody, _ := postLog(t, srv.Client(), srv.URL+"/api/v1/diagnose", testRecord())
	if status != http.StatusServiceUnavailable {
		t.Fatalf("diagnose during drain = %d (%s), want 503", status, respBody)
	}
	// But liveness stays green: the process is healthy, just not serving.
	resp, err = srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz during drain = %d, want 200", resp.StatusCode)
	}
}

// breakerSet builds a BreakerSet on the real clock. A test's cooldown is
// long enough that an open breaker stays open for the whole test, or so
// short (a nanosecond) that it has always elapsed.
func breakerSet(threshold int, cooldown time.Duration) *admission.BreakerSet {
	return admission.NewBreakerSet(admission.BreakerConfig{Threshold: threshold, Cooldown: cooldown})
}

func TestBreakerTakesFailingModelOutOfRotation(t *testing.T) {
	base := ensemble(t)
	// Model 0 panics on every prediction; model 1 stays healthy.
	bad := &faults.FaultyModel{PanicOn: true}
	ens := faults.Break(base, 0, bad)
	badName := ens.Models[0].Name()
	goodName := ens.Models[1].Name()

	ws := NewServer(ens, fastOpts())
	ws.CacheSize = -1 // isolate breaker behavior from the cache
	set := breakerSet(2, time.Minute)
	ws.Breakers = set
	srv := httptest.NewServer(ws.Handler())
	defer srv.Close()

	rec := testRecord()
	// Two degraded diagnoses charge two failures and open the breaker.
	for i := 0; i < 2; i++ {
		status, body, _ := postLog(t, srv.Client(), srv.URL+"/api/v1/diagnose", rec)
		if status != http.StatusOK {
			t.Fatalf("request %d = %d (%s)", i, status, body)
		}
		var d DiagnosisResponse
		if err := json.Unmarshal(body, &d); err != nil {
			t.Fatal(err)
		}
		if !d.Degraded {
			t.Fatalf("request %d not degraded despite the panicking model", i)
		}
	}
	if got := set.For(badName).State(); got != admission.StateOpen {
		t.Fatalf("bad model breaker = %v after 2 failures, want open", got)
	}
	if got := set.For(goodName).State(); got != admission.StateClosed {
		t.Fatalf("good model breaker = %v, want closed", got)
	}
	// Third request: the bad model is skipped by the breaker — its
	// prediction is never called again.
	callsBefore := bad.Calls()
	status, body, _ := postLog(t, srv.Client(), srv.URL+"/api/v1/diagnose", rec)
	if status != http.StatusOK {
		t.Fatalf("request with open breaker = %d (%s)", status, body)
	}
	if bad.Calls() != callsBefore {
		t.Fatal("open breaker did not stop calls to the failing model")
	}
	var d DiagnosisResponse
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	if !d.Degraded {
		t.Fatal("breaker-skipped response not marked degraded")
	}
	foundSkip := false
	for _, m := range d.Models {
		if m.Name == badName && m.Error == "circuit breaker open" {
			foundSkip = true
		}
	}
	if !foundSkip {
		t.Fatalf("response models %+v lack the breaker-open casualty", d.Models)
	}
	// After the cooldown the breaker probes; the model still panics, so
	// it reopens after the single probe call. A second server's breakers
	// have a cooldown that has always elapsed, the bad model's opened up
	// front by the two failures the requests above charged.
	probeSet := breakerSet(2, time.Nanosecond)
	probeSet.For(badName).Failure()
	probeSet.For(badName).Failure()
	probe := NewServer(ens, fastOpts())
	probe.CacheSize = -1
	probe.Breakers = probeSet
	psrv := httptest.NewServer(probe.Handler())
	defer psrv.Close()
	callsBefore = bad.Calls()
	if status, body, _ = postLog(t, psrv.Client(), psrv.URL+"/api/v1/diagnose", rec); status != http.StatusOK {
		t.Fatalf("probe request = %d (%s)", status, body)
	}
	if bad.Calls() == callsBefore {
		t.Fatal("half-open breaker never probed the model")
	}
	if got := probeSet.For(badName).State(); got != admission.StateOpen {
		t.Fatalf("breaker = %v after failed probe, want open again", got)
	}
}

func TestAllBreakersOpenAnswers503AndClientStopsRetrying(t *testing.T) {
	base := ensemble(t)
	// Every model panics.
	ens := base
	for i := range base.Models {
		ens = faults.Break(ens, i, &faults.FaultyModel{PanicOn: true})
	}
	ws := NewServer(ens, fastOpts())
	ws.CacheSize = -1
	set := breakerSet(1, time.Minute)
	ws.Breakers = set

	var requests atomic.Int64
	counting := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		ws.Handler().ServeHTTP(w, r)
	})
	srv := httptest.NewServer(counting)
	defer srv.Close()

	rec := testRecord()
	// First request: every model fails, diagnosis errors, breakers open.
	status, body, _ := postLog(t, srv.Client(), srv.URL+"/api/v1/diagnose", rec)
	if status != http.StatusInternalServerError {
		t.Fatalf("all-failing request = %d (%s), want 500", status, body)
	}
	// Second request: refused up front with the breaker header.
	status, body, hdr := postLog(t, srv.Client(), srv.URL+"/api/v1/diagnose", rec)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("breaker-open request = %d (%s), want 503", status, body)
	}
	if hdr.Get("X-AIIO-Breaker") != "open" {
		t.Fatalf("missing X-AIIO-Breaker header, got %q", hdr.Get("X-AIIO-Breaker"))
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("breaker-open 503 lacks Retry-After")
	}
	// Readiness goes red while every breaker is open.
	resp, err := srv.Client().Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with all breakers open = %d, want 503", resp.StatusCode)
	}
	// The typed client sees the header and gives up after ONE attempt.
	requests.Store(0)
	cl := NewClient(srv.URL)
	_, err = cl.Diagnose(rec)
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("client error = %v, want ErrBreakerOpen", err)
	}
	if got := requests.Load(); got != 1 {
		t.Fatalf("client sent %d requests against an open breaker, want exactly 1", got)
	}
}

// TestReadyzListsEveryServingBreaker: right after boot, before any model
// has served or failed, /readyz and /healthz list one closed breaker for
// each of the six serving models — not just the ones some path touched.
func TestReadyzListsEveryServingBreaker(t *testing.T) {
	ens := &core.Ensemble{}
	for i := 1; i <= 6; i++ {
		ens.Models = append(ens.Models, &faults.ConstantModel{Value: 1, ModelName: fmt.Sprintf("m%d", i)})
	}
	ws := NewServer(ens, fastOpts())
	ws.Breakers = breakerSet(5, time.Minute)
	if err := ws.AdoptGeneration(ens, &core.LoadReport{Generation: 1}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(ws.Handler())
	defer srv.Close()
	for _, path := range []string{"/readyz", "/healthz"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Breakers map[string]string `json:"breakers"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d, %v", path, resp.StatusCode, err)
		}
		if len(body.Breakers) != len(ens.Models) {
			t.Errorf("%s lists breakers %v, want all %d serving models", path, body.Breakers, len(ens.Models))
		}
		for _, m := range ens.Models {
			if got := body.Breakers[m.Name()]; got != "closed" {
				t.Errorf("%s: breaker %s = %q, want closed", path, m.Name(), got)
			}
		}
	}
}

func TestClientHonorsRetryAfterHint(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			_, _ = w.Write([]byte(`{"error":"server overloaded, request shed","retry_after":1}`))
			return
		}
		_ = json.NewEncoder(w).Encode([]ModelInfo{})
		// Unreachable for Diagnose, but Diagnose needs a real body:
	}))
	defer srv.Close()

	// A huge base backoff would make the default path take ~4s; the 1s
	// server hint must win.
	oldBase := retryBase
	retryBase = 4 * time.Second
	defer func() { retryBase = oldBase }()

	cl := NewClient(srv.URL)
	start := time.Now()
	_, err := cl.post(context.Background(), srv.URL+"/api/v1/diagnose", "text/plain", []byte("x"))
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("post after 429: %v", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("client made %d calls, want 2 (one shed, one retry)", calls.Load())
	}
	if elapsed < 900*time.Millisecond {
		t.Fatalf("retry came back in %v — Retry-After: 1 was not honored", elapsed)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("retry took %v — exponential backoff overrode the 1s server hint", elapsed)
	}
}

func TestUploadHotSwapRollbackOnInvalidModel(t *testing.T) {
	ws := NewServer(ensemble(t), fastOpts())
	srv := httptest.NewServer(ws.Handler())
	defer srv.Close()

	before, _, versionBefore := ws.snapshot()

	// A gob stream that decodes but predicts garbage dimensions: a tiny
	// model trained on the wrong feature count, aimed at an existing
	// model name so a validation miss would replace a live model.
	bad := badDimensionModelGob(t)
	resp, err := srv.Client().Post(
		srv.URL+"/api/v1/models?name="+before.Models[0].Name()+"&kind=mlp",
		"application/octet-stream", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid upload = %d (%s), want 400", resp.StatusCode, body)
	}
	var e struct {
		Error      string `json:"error"`
		RolledBack bool   `json:"rolled_back"`
	}
	if err := json.Unmarshal(body, &e); err != nil || !e.RolledBack {
		t.Fatalf("rollback not structured: %s", body)
	}
	after, _, versionAfter := ws.snapshot()
	if versionAfter != versionBefore {
		t.Fatal("failed upload bumped the model-set version")
	}
	if after.Models[0] != before.Models[0] {
		t.Fatal("failed upload replaced the live model — rollback did not happen")
	}
	// And the old set still diagnoses.
	status, dbody, _ := postLog(t, srv.Client(), srv.URL+"/api/v1/diagnose", testRecord())
	if status != http.StatusOK {
		t.Fatalf("diagnose after rolled-back upload = %d (%s)", status, dbody)
	}
}

// TestUploadRefusesPathInModelName: the registry writes an uploaded model
// to <name>.gob in the new generation's directory, so a name that walks out
// of it is refused with 400 before the body is decoded, and nothing is
// written outside generations/.
func TestUploadRefusesPathInModelName(t *testing.T) {
	dir := t.TempDir()
	ens := ensemble(t)
	st := core.OpenStore(dir)
	if _, err := st.Save(ens); err != nil {
		t.Fatal(err)
	}
	ws := NewServer(ens, fastOpts())
	ws.Store = st
	ws.SetGeneration(&core.LoadReport{Generation: 1})
	srv := httptest.NewServer(ws.Handler())
	defer srv.Close()

	var gob bytes.Buffer
	if err := ens.Models[0].Save(&gob); err != nil {
		t.Fatal(err)
	}
	outside := func() []string {
		var files []string
		err := filepath.WalkDir(filepath.Dir(dir), func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			if !strings.HasPrefix(path, filepath.Join(dir, "generations")+string(filepath.Separator)) {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	before := outside()
	for _, name := range []string{"../../evil", "../evil", "..", "a/b", `a\b`} {
		resp, err := srv.Client().Post(
			srv.URL+"/api/v1/models?name="+url.QueryEscape(name)+"&kind="+ens.Models[0].Kind(),
			"application/octet-stream", bytes.NewReader(gob.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("upload named %q = %d (%s), want 400", name, resp.StatusCode, body)
		}
	}
	if after := outside(); !slices.Equal(after, before) {
		t.Fatalf("files outside generations/ went from %v to %v", before, after)
	}
	if gens, err := st.Generations(); err != nil || len(gens) != 1 {
		t.Fatalf("generations after the refused uploads: %v, %v", gens, err)
	}
}

func TestUploadPersistsGenerationViaStore(t *testing.T) {
	dir := t.TempDir()
	ens := ensemble(t)
	st := core.OpenStore(dir)
	if _, err := st.Save(ens); err != nil {
		t.Fatal(err)
	}
	ws := NewServer(ens, fastOpts())
	ws.Store = st
	ws.SetGeneration(&core.LoadReport{Generation: 1})
	srv := httptest.NewServer(ws.Handler())
	defer srv.Close()

	// Re-upload a valid model (itself, re-serialized).
	var buf bytes.Buffer
	if err := ens.Models[0].Save(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(
		srv.URL+"/api/v1/models?name="+ens.Models[0].Name()+"&kind="+ens.Models[0].Kind(),
		"application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload = %d (%s)", resp.StatusCode, body)
	}
	var out struct {
		Generation uint64 `json:"generation"`
	}
	if err := json.Unmarshal(body, &out); err != nil || out.Generation != 2 {
		t.Fatalf("upload response %s, want generation 2", body)
	}
	// The new generation is on disk and loads.
	if _, err := os.Stat(filepath.Join(dir, "generations", "000002", "manifest.json")); err != nil {
		t.Fatalf("persisted generation missing: %v", err)
	}
	_, rep, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Generation != 2 {
		t.Fatalf("store serves generation %d after upload, want 2", rep.Generation)
	}
	if got := ws.GenerationReport(); got == nil || got.Generation != 2 {
		t.Fatalf("server generation report = %+v, want generation 2", got)
	}
}

// TestUploadRefusedWhenCommitFails: with a Store wired in, an upload is
// committed before it serves, so a set the registry cannot commit — one no
// restart would load — never goes live.
func TestUploadRefusedWhenCommitFails(t *testing.T) {
	ens := ensemble(t)
	ws := NewServer(ens, fastOpts())
	blocker := filepath.Join(t.TempDir(), "models")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil { // a file where the registry directory belongs
		t.Fatal(err)
	}
	ws.Store = core.OpenStore(blocker)
	srv := httptest.NewServer(ws.Handler())
	defer srv.Close()
	_, _, versionBefore := ws.snapshot()

	var buf bytes.Buffer
	if err := ens.Models[0].Save(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+"/api/v1/models?name=extra&kind="+ens.Models[0].Kind(),
		"application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var e struct {
		RolledBack bool `json:"rolled_back"`
	}
	if resp.StatusCode != http.StatusInternalServerError || json.Unmarshal(body, &e) != nil || !e.RolledBack {
		t.Fatalf("uncommittable upload = %d (%s), want 500 rolled_back", resp.StatusCode, body)
	}
	if serving, _, v := ws.snapshot(); v != versionBefore || serving.Model("extra") != nil {
		t.Fatalf("uncommittable upload went live (version %d -> %d)", versionBefore, v)
	}
}

// TestUploadUnderNewNameKeepsBothModels uploads a valid MLP under a new
// name beside the served one. The upload must keep the name it was given:
// two models named after their kind would be written to one file, and the
// generation just committed would fail its own checksum on the next load.
func TestUploadUnderNewNameKeepsBothModels(t *testing.T) {
	opts := core.DefaultTrainOptions()
	opts.Fast = true
	opts.Models = []string{core.NameLightGBM, core.NameMLP}
	ens, _, err := core.TrainEnsemble(features.Build(logdb.Generate(logdb.GenConfig{Jobs: 300, Seed: 41})), opts)
	if err != nil {
		t.Fatal(err)
	}
	st := core.OpenStore(t.TempDir())
	if _, err := st.Save(ens); err != nil {
		t.Fatal(err)
	}
	ws := NewServer(ens, fastOpts())
	ws.Store = st
	srv := httptest.NewServer(ws.Handler())
	defer srv.Close()

	var buf bytes.Buffer
	if err := ens.Model(core.NameMLP).Save(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+"/api/v1/models?name=mlp-v2&kind=mlp", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload = %d (%s)", resp.StatusCode, body)
	}
	loaded, _, err := st.Load()
	if err != nil {
		t.Fatalf("store load after the upload: %v", err)
	}
	var names []string
	for _, m := range loaded.Models {
		names = append(names, m.Name())
	}
	if len(names) != 3 || !slices.Contains(names, core.NameMLP) || !slices.Contains(names, "mlp-v2") {
		t.Fatalf("store serves %v, want lightgbm, mlp and mlp-v2", names)
	}
}

// badDimensionModelGob serializes a tiny MLP trained over 5 features —
// structurally valid gob, wrong dimensionality for the 45-counter schema.
func badDimensionModelGob(t *testing.T) []byte {
	t.Helper()
	x := linalg.NewMatrix(8, 5)
	y := make([]float64, 8)
	for i := 0; i < 8; i++ {
		for j := 0; j < 5; j++ {
			x.Set(i, j, float64(i+j))
		}
		y[i] = float64(i)
	}
	cfg := mlp.DefaultConfig()
	cfg.Hidden = []int{4}
	cfg.Epochs = 1
	wrong, err := mlp.Train(cfg, x, y, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := wrong.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadySurfacesGenerationAndFallback(t *testing.T) {
	ws := NewServer(ensemble(t), fastOpts())
	ws.SetGeneration(&core.LoadReport{
		Generation: 3,
		FellBack:   true,
		Rejected:   []core.GenerationError{{Generation: 4, Err: "checksum mismatch"}},
	})
	srv := httptest.NewServer(ws.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200 (fallback is degraded, not dead)", resp.StatusCode)
	}
	var body struct {
		Generation struct {
			Generation uint64 `json:"generation"`
			FellBack   bool   `json:"fell_back"`
		} `json:"generation"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Generation.Generation != 3 || !body.Generation.FellBack {
		t.Fatalf("generation block = %+v, want gen 3 fell_back", body.Generation)
	}
}

// TestShedDoesNotRetryForever guards the Retry-After parse path against
// a bogus header.
func TestRetryAfterHintParsing(t *testing.T) {
	mk := func(v string) *http.Response {
		h := http.Header{}
		if v != "" {
			h.Set("Retry-After", v)
		}
		return &http.Response{Header: h}
	}
	if d := retryAfterHint(mk("2")); d != 2*time.Second {
		t.Fatalf("hint(2) = %v", d)
	}
	if d := retryAfterHint(mk("")); d != 0 {
		t.Fatalf("hint(absent) = %v", d)
	}
	if d := retryAfterHint(mk("garbage")); d != 0 {
		t.Fatalf("hint(garbage) = %v", d)
	}
	if d := retryAfterHint(mk(strconv.Itoa(86400))); d != maxRetryAfter {
		t.Fatalf("hint(1 day) = %v, want clamped to %v", d, maxRetryAfter)
	}
}
