package replica

// Shared fixtures for the replica tests: one fast-trained ensemble (the
// expensive part, built once) and real webservice replicas with their own
// registry stores, so routing and chaos tests exercise the actual serving
// and replication stack rather than stubs.

import (
	"bytes"
	"net/http/httptest"
	"sync"
	"testing"

	"github.com/hpc-repro/aiio/internal/core"
	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/features"
	"github.com/hpc-repro/aiio/internal/iosim"
	"github.com/hpc-repro/aiio/internal/logdb"
	"github.com/hpc-repro/aiio/internal/webservice"
	"github.com/hpc-repro/aiio/internal/workload"
)

var (
	ensOnce sync.Once
	ensVal  *core.Ensemble
	ensErr  error
)

func ensemble(t testing.TB) *core.Ensemble {
	t.Helper()
	ensOnce.Do(func() {
		ds := logdb.Generate(logdb.GenConfig{Jobs: 500, Seed: 31})
		frame := features.Build(ds)
		opts := core.DefaultTrainOptions()
		opts.Fast = true
		opts.Models = []string{core.NameLightGBM, core.NameCatBoost} // keep tests quick
		ensVal, _, ensErr = core.TrainEnsemble(frame, opts)
	})
	if ensErr != nil {
		t.Fatalf("train: %v", ensErr)
	}
	return ensVal
}

func fastOpts() core.DiagnoseOptions {
	o := core.DefaultDiagnoseOptions()
	o.SHAP.MaxExact = 8
	o.SHAP.NSamples = 512
	return o
}

// testRecord builds a deterministic synthetic job; distinct scales give
// distinct jobs (distinct affinity keys).
func testRecord(t testing.TB, scale int) *darshan.Record {
	t.Helper()
	params := iosim.DefaultParams()
	params.NoiseSigma = 0
	cfg := workload.Patterns()[0].Config.Scale(scale, 4)
	rec, _ := cfg.Run("ior", 1, 5, params)
	return rec
}

func recordBody(t testing.TB, rec *darshan.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := darshan.WriteLog(&buf, rec); err != nil {
		t.Fatalf("encode record: %v", err)
	}
	return buf.Bytes()
}

// testReplica is one real aiio-server replica: a webservice over its own
// registry store, seeded with the shared ensemble as generation 1.
type testReplica struct {
	WS    *webservice.Server
	Store *core.Store
	HTTP  *httptest.Server
}

func (r *testReplica) URL() string { return r.HTTP.URL }

// newReplica commits models to a fresh store under dir and serves them.
func newReplica(t testing.TB, dir string, models *core.Ensemble) *testReplica {
	t.Helper()
	store := core.OpenStore(dir)
	if _, err := store.Save(models); err != nil {
		t.Fatalf("seed store: %v", err)
	}
	ens, rep, err := store.Load()
	if err != nil {
		t.Fatalf("load store: %v", err)
	}
	ws := webservice.NewServer(ens, fastOpts())
	ws.Store = store
	ws.SetGeneration(rep)
	srv := httptest.NewServer(ws.Handler())
	t.Cleanup(srv.Close)
	return &testReplica{WS: ws, Store: store, HTTP: srv}
}

// syncerFor wires a replica's generation syncer against peers.
func syncerFor(r *testReplica, peers ...string) *webservice.Syncer {
	return &webservice.Syncer{
		Server: r.WS,
		Peers:  peers,
	}
}
