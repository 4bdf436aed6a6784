package faults

import (
	"bytes"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpc-repro/aiio/internal/core"
	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/features"
	"github.com/hpc-repro/aiio/internal/iosim"
	"github.com/hpc-repro/aiio/internal/logdb"
	"github.com/hpc-repro/aiio/internal/webservice"
	"github.com/hpc-repro/aiio/internal/workload"
)

var (
	chaosOnce sync.Once
	chaosEns  *core.Ensemble
	chaosErr  error
)

// chaosEnsemble trains a three-model ensemble once for the whole suite:
// two boosted variants plus the MLP, so degraded merges still have at
// least two survivors after one injected failure.
func chaosEnsemble(t testing.TB) *core.Ensemble {
	t.Helper()
	chaosOnce.Do(func() {
		ds := logdb.Generate(logdb.GenConfig{Jobs: 400, Seed: 7})
		frame := features.Build(ds)
		opts := core.DefaultTrainOptions()
		opts.Fast = true
		opts.Models = []string{core.NameXGBoost, core.NameLightGBM, core.NameMLP}
		chaosEns, _, chaosErr = core.TrainEnsemble(frame, opts)
	})
	if chaosErr != nil {
		t.Fatalf("chaos fixture training failed: %v", chaosErr)
	}
	return chaosEns
}

func chaosOpts() core.DiagnoseOptions {
	o := core.DefaultDiagnoseOptions()
	o.SHAP.MaxExact = 8
	o.SHAP.NSamples = 512
	return o
}

func chaosRecord(t testing.TB) *darshan.Record {
	t.Helper()
	params := iosim.DefaultParams()
	params.NoiseSigma = 0
	cfg := workload.Patterns()[0].Config.Scale(16, 4)
	rec, _ := cfg.Run("ior", 42, 13, params)
	return rec
}

// Chaos scenario (a): one model panics on every prediction. The diagnosis
// must degrade — valid merged output from the survivors, the casualty named
// — and never crash.
func TestChaosPanickingModelDegrades(t *testing.T) {
	ens := chaosEnsemble(t)
	fault := &FaultyModel{PanicOn: true}
	broken := Break(ens, 1, fault)

	d, err := broken.Diagnose(chaosRecord(t), chaosOpts())
	if err != nil {
		t.Fatalf("one panicking model out of three must degrade, got: %v", err)
	}
	if !d.Degraded {
		t.Error("Degraded flag not set")
	}
	if got := d.SkippedModels(); len(got) != 1 || got[0] != ens.Models[1].Name() {
		t.Errorf("SkippedModels = %v", got)
	}
	if !strings.Contains(d.PerModel[1].Err, "injected model panic") {
		t.Errorf("PerModel[1].Err = %q, want the injected panic", d.PerModel[1].Err)
	}
	if math.IsNaN(d.Average.Predicted) || len(d.Average.Contributions) == 0 {
		t.Error("degraded merge is not a valid diagnosis")
	}
	if fault.Calls() == 0 {
		t.Error("fault wrapper never invoked — TreeSHAP bypassed the injector?")
	}
}

// Sequential and parallel diagnosis of a degraded ensemble must agree
// bitwise on the surviving models (the acceptance criterion of the
// fault-injection harness).
func TestChaosSequentialParallelBitwiseIdentical(t *testing.T) {
	ens := chaosEnsemble(t)
	rec := chaosRecord(t)

	for name, fault := range map[string]*FaultyModel{
		"panic": {PanicOn: true},
		"nan":   {NaNOn: true},
	} {
		t.Run(name, func(t *testing.T) {
			broken := Break(ens, 0, fault)
			opts := chaosOpts()
			opts.Parallelism = 1
			seq, err := broken.Diagnose(rec, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Parallelism = 8
			par, err := broken.Diagnose(rec, opts)
			if err != nil {
				t.Fatal(err)
			}
			if seq.Average.Predicted != par.Average.Predicted {
				t.Fatalf("Average.Predicted differs: %v vs %v", seq.Average.Predicted, par.Average.Predicted)
			}
			for j := range seq.Average.Contributions {
				if seq.Average.Contributions[j] != par.Average.Contributions[j] {
					t.Fatalf("contribution %d differs between pool sizes", j)
				}
			}
			if seq.ClosestIndex != par.ClosestIndex || seq.Closest.Predicted != par.Closest.Predicted {
				t.Fatal("Closest merge differs between pool sizes")
			}
			for i := range seq.Weights {
				if seq.Weights[i] != par.Weights[i] {
					t.Fatalf("weight %d differs between pool sizes", i)
				}
			}
		})
	}
}

// A model that works for a while and then starts panicking (FailAfter)
// still degrades cleanly.
func TestChaosFailAfterDegrades(t *testing.T) {
	ens := chaosEnsemble(t)
	fault := &FaultyModel{FailAfter: 1}
	broken := Break(ens, 2, fault)

	d, err := broken.Diagnose(chaosRecord(t), chaosOpts())
	if err != nil {
		t.Fatalf("FailAfter model must degrade, got: %v", err)
	}
	if !d.Degraded || !strings.Contains(d.PerModel[2].Err, "FailAfter") {
		t.Errorf("degraded=%v err=%q", d.Degraded, d.PerModel[2].Err)
	}
	if fault.Calls() < 2 {
		t.Errorf("wrapper saw %d calls, want the first to pass and a later one to trip", fault.Calls())
	}
}

// Chaos scenario (b): a log stream where roughly 10%% of records carry a
// corrupt line. The lenient parser must quarantine the casualties and keep
// the rest; the strict parser refuses the stream outright.
func TestChaosCorruptStreamQuarantined(t *testing.T) {
	ds := logdb.Generate(logdb.GenConfig{Jobs: 60, Seed: 3})
	var clean bytes.Buffer
	if err := darshan.WriteDataset(&clean, ds); err != nil {
		t.Fatal(err)
	}
	// ~51 lines per record; a per-line rate of 0.002 corrupts roughly one
	// line in every tenth record.
	corrupted, err := io.ReadAll(CorruptStream(bytes.NewReader(clean.Bytes()), 0.002, 99))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(corrupted, clean.Bytes()) {
		t.Fatal("CorruptStream changed nothing at this seed/rate")
	}

	got, quarantine, err := darshan.ParseDatasetLenient(bytes.NewReader(corrupted))
	if err != nil {
		t.Fatalf("lenient parse of corrupt stream hard-failed: %v", err)
	}
	if len(quarantine) == 0 {
		t.Fatal("nothing quarantined from a corrupted stream")
	}
	if got.Len() < ds.Len()/2 {
		t.Fatalf("only %d of %d records survived 10%% corruption", got.Len(), ds.Len())
	}
	if got.Len()+len(quarantine) > ds.Len() {
		t.Fatalf("accepted %d + quarantined %d exceeds input %d", got.Len(), len(quarantine), ds.Len())
	}
	summary := darshan.QuarantineSummary(got.Len(), quarantine)
	if !strings.Contains(summary, "quarantined") {
		t.Errorf("summary = %q", summary)
	}

	// Determinism: the same seed corrupts the same bytes.
	again, err := io.ReadAll(CorruptStream(bytes.NewReader(clean.Bytes()), 0.002, 99))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(corrupted, again) {
		t.Error("CorruptStream is not deterministic for a fixed seed")
	}

	// The surviving records still build a finite feature frame.
	frame := features.Build(got)
	if err := frame.Validate(); err != nil {
		t.Errorf("survivors produced a corrupt frame: %v", err)
	}
}

// A stream truncated mid-record quarantines at most the final record; a
// reader that fails outright surfaces a hard error, never a panic.
func TestChaosTruncatedAndFailingReaders(t *testing.T) {
	ds := logdb.Generate(logdb.GenConfig{Jobs: 5, Seed: 9})
	var clean bytes.Buffer
	if err := darshan.WriteDataset(&clean, ds); err != nil {
		t.Fatal(err)
	}

	cut := TruncateReader(bytes.NewReader(clean.Bytes()), int64(clean.Len())-40)
	got, quarantine, err := darshan.ParseDatasetLenient(cut)
	if err != nil {
		t.Fatalf("truncated stream hard-failed: %v", err)
	}
	// The last record lost its tail: it either still parses (only trailing
	// counters missing — sparsity semantics) or is quarantined; both are
	// acceptable, losing more than one record is not.
	if got.Len()+len(quarantine) != ds.Len() || got.Len() < ds.Len()-1 {
		t.Errorf("truncation: %d accepted + %d quarantined of %d", got.Len(), len(quarantine), ds.Len())
	}

	bang := errors.New("disk on fire")
	_, _, err = darshan.ParseDatasetLenient(ErrReader(bytes.NewReader(clean.Bytes()), 100, bang))
	if !errors.Is(err, bang) {
		t.Errorf("reader failure not surfaced: %v", err)
	}
}

// Chaos scenario (c): a model slower than the request deadline. The web
// service must answer 503 — not hang, not crash — and the service must
// stay healthy afterwards.
func TestChaosSlowModelHitsRequestDeadline(t *testing.T) {
	ens := chaosEnsemble(t)
	broken := Break(ens, 0, &FaultyModel{Latency: 250 * time.Millisecond})

	s := webservice.NewServer(broken, chaosOpts())
	s.RequestTimeout = 50 * time.Millisecond
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var body bytes.Buffer
	if err := darshan.WriteLog(&body, chaosRecord(t)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := srv.Client().Post(srv.URL+"/api/v1/diagnose", "text/plain", &body)
	if err != nil {
		t.Fatalf("deadlined request errored at transport level: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("slow model got HTTP %d, want 503", resp.StatusCode)
	}
	// Cooperative cancellation lets in-flight model calls finish, so the
	// bound is deadline + a few injected latencies, far under a full
	// diagnosis of the slow ensemble.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("503 took %v — cancellation not cooperative", elapsed)
	}

	// The service still answers health checks.
	h, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h.Body.Close()
	if h.StatusCode != http.StatusOK {
		t.Errorf("healthz after deadline storm: HTTP %d", h.StatusCode)
	}
}

// A FaultyModel with no knobs set is a transparent wrapper.
func TestFaultyModelTransparent(t *testing.T) {
	ens := chaosEnsemble(t)
	wrapped := Break(ens, 0, &FaultyModel{})

	want, err := ens.Diagnose(chaosRecord(t), chaosOpts())
	if err != nil {
		t.Fatal(err)
	}
	got, err := wrapped.Diagnose(chaosRecord(t), chaosOpts())
	if err != nil {
		t.Fatal(err)
	}
	if got.Degraded {
		t.Error("transparent wrapper marked the diagnosis degraded")
	}
	// The wrapped model's prediction is identical; the merged contributions
	// may differ because wrapping disables the TreeSHAP fast path, which is
	// the wrapper working as designed.
	if got.PerModel[0].Predicted != want.PerModel[0].Predicted {
		t.Errorf("wrapped prediction %v != bare prediction %v",
			got.PerModel[0].Predicted, want.PerModel[0].Predicted)
	}
}

// Chaos scenario (g): the process dies mid-save — at every durable step
// of the model store in turn. Whatever partial state each crash leaves,
// the next load must serve the previous committed generation, bit-exact,
// and a later clean save must recover fully.
func TestChaosCrashDuringSaveRecoversPreviousGeneration(t *testing.T) {
	ens := chaosEnsemble(t)
	st := core.OpenStore(t.TempDir())
	if _, err := st.Save(ens); err != nil {
		t.Fatalf("baseline save: %v", err)
	}
	// Sweep the crash point forward one durable step at a time until a
	// save finally survives the whole gauntlet.
	crashed := 0
	for n := 0; ; n++ {
		st.SetHook(CrashAfterSteps(n))
		_, err := st.Save(ens)
		st.SetHook(nil)
		if err == nil {
			break
		}
		if !errors.Is(err, ErrInjectedCrash) {
			t.Fatalf("crash at step %d surfaced the wrong error: %v", n, err)
		}
		crashed++
		e, rep, err := st.Load()
		if err != nil {
			t.Fatalf("load after crash at step %d: %v", n, err)
		}
		if rep.Generation != 1 {
			t.Fatalf("crash at step %d served generation %d, want the committed generation 1", n, rep.Generation)
		}
		if rep.FellBack {
			t.Fatalf("crash at step %d left checksum-corrupt visible state: %+v", n, rep)
		}
		if len(e.Models) != len(ens.Models) {
			t.Fatalf("crash at step %d lost models: %d of %d", n, len(e.Models), len(ens.Models))
		}
		if n > 100 {
			t.Fatal("save never completed; hook sweep runaway")
		}
	}
	if crashed == 0 {
		t.Fatal("sweep never crashed a save; the injector is dead")
	}
	// The surviving save is the new current generation.
	_, rep, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Generation <= 1 || rep.FellBack {
		t.Fatalf("after recovery save: %+v, want a clean newer generation", rep)
	}
}

// Chaos scenario (h): a crash aimed exactly at the gen-commit rename
// (CrashAtStep) — the widest window for torn state — then a byte flip in
// the surviving generation proves the checksum fallback chains with
// crash recovery.
func TestChaosCrashAtGenCommit(t *testing.T) {
	ens := chaosEnsemble(t)
	st := core.OpenStore(t.TempDir())
	if _, err := st.Save(ens); err != nil {
		t.Fatal(err)
	}
	st.SetHook(CrashAtStep(core.StepGenCommit))
	if _, err := st.Save(ens); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("save did not crash at gen-commit: %v", err)
	}
	st.SetHook(nil)
	_, rep, err := st.Load()
	if err != nil {
		t.Fatalf("load after gen-commit crash: %v", err)
	}
	if rep.Generation != 1 || rep.FellBack {
		t.Fatalf("report = %+v, want clean generation 1", rep)
	}
}

// Flood sanity: the injector really does run all invocations and keeps
// their errors in order.
func TestFloodRunsAllInvocations(t *testing.T) {
	var calls atomic.Int64
	errs := Flood(32, func(i int) error {
		calls.Add(1)
		if i%2 == 1 {
			return ErrInjectedCrash
		}
		return nil
	})
	if calls.Load() != 32 {
		t.Fatalf("flood ran %d of 32 invocations", calls.Load())
	}
	for i, err := range errs {
		if (i%2 == 1) != (err != nil) {
			t.Fatalf("errs[%d] = %v, order not preserved", i, err)
		}
	}
}
