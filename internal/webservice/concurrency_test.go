package webservice

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"github.com/hpc-repro/aiio/internal/core"
	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/linalg"
	"github.com/hpc-repro/aiio/internal/mlp"
	"github.com/hpc-repro/aiio/internal/tune"
)

// TestConcurrentUploadAndDiagnose hammers the service with interleaved
// model uploads (write lock) and diagnoses (snapshot reads). Under
// `go test -race` this is the regression test for the old behavior of
// holding the read lock across the whole SHAP computation; it also checks
// that every diagnosis completes against a coherent model set.
func TestConcurrentUploadAndDiagnose(t *testing.T) {
	base := ensemble(t)
	private := &core.Ensemble{Models: append([]core.Model(nil), base.Models...)}
	srv := httptest.NewServer(NewServer(private, fastOpts()).Handler())
	defer srv.Close()
	client := NewClient(srv.URL)

	var gob bytes.Buffer
	if err := base.Model(core.NameLightGBM).Save(&gob); err != nil {
		t.Fatal(err)
	}
	modelBytes := gob.Bytes()
	rec := testRecord()

	const diagnosers, uploads = 4, 6
	errc := make(chan error, diagnosers+1)
	var wg sync.WaitGroup

	for d := 0; d < diagnosers; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := client.Diagnose(rec)
			if err != nil {
				errc <- err
				return
			}
			if len(resp.Models) < 2 {
				errc <- fmt.Errorf("diagnosis saw %d models", len(resp.Models))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for u := 0; u < uploads; u++ {
			// Alternate between replacing an existing model and adding a
			// new name, so both upload paths race against diagnoses.
			name := core.NameLightGBM
			if u%2 == 1 {
				name = "lightgbm-hotswap"
			}
			if err := client.UploadModel(name, "gbdt", bytes.NewReader(modelBytes)); err != nil {
				errc <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestConcurrentUploadsKeepBothModels races two uploads of distinct names.
// Each builds its candidate from the set serving at the time, so both must
// survive — in memory and in the generation the registry commits last —
// only if reading the set, committing and installing are one step.
func TestConcurrentUploadsKeepBothModels(t *testing.T) {
	base := ensemble(t)
	s := NewServer(&core.Ensemble{Models: append([]core.Model(nil), base.Models...)}, fastOpts())
	s.Store = core.OpenStore(t.TempDir())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	var gob bytes.Buffer
	if err := base.Model(core.NameLightGBM).Save(&gob); err != nil {
		t.Fatal(err)
	}

	names := []string{"left", "right"}
	start := make(chan struct{})
	errc := make(chan error, len(names))
	var wg sync.WaitGroup
	for _, name := range names {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			<-start
			errc <- NewClient(srv.URL).UploadModel(name, "gbdt", bytes.NewReader(gob.Bytes()))
		}(name)
	}
	close(start)
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}

	committed, _, err := s.Store.Load()
	if err != nil {
		t.Fatal(err)
	}
	for where, ens := range map[string]*core.Ensemble{"serving": s.ServingEnsemble(), "committed": committed} {
		if len(ens.Models) != len(base.Models)+len(names) {
			t.Errorf("%s set has %d models, want %d", where, len(ens.Models), len(base.Models)+len(names))
		}
		for _, name := range names {
			if ens.Model(name) == nil {
				t.Errorf("%s set lost the upload %q", where, name)
			}
		}
	}
}

// TestUploadRejectsMismatchedFeatureDimension uploads a structurally valid
// model trained on the wrong feature count and expects a 400, not a model
// swap that would panic the next diagnosis.
func TestUploadRejectsMismatchedFeatureDimension(t *testing.T) {
	base := ensemble(t)
	private := &core.Ensemble{Models: append([]core.Model(nil), base.Models...)}
	srv := httptest.NewServer(NewServer(private, fastOpts()).Handler())
	defer srv.Close()
	client := NewClient(srv.URL)

	// A tiny MLP over 5 features instead of the 45-counter schema.
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

	if err := client.UploadModel("mlp-wrong-dim", "mlp", &buf); err == nil {
		t.Fatal("upload of a 5-feature model succeeded")
	}
	// The bad model must not have been swapped in: diagnosis still works.
	if _, err := client.Diagnose(testRecord()); err != nil {
		t.Fatalf("diagnosis after rejected upload: %v", err)
	}
	models, err := client.Models()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range models {
		if m.Name == "mlp-wrong-dim" {
			t.Error("rejected model appears in the registry")
		}
	}
}

// TestAdvisoryErrorDegradesGracefully verifies that a tuning-advisor
// failure returns the successful diagnosis with an advisory_error field
// instead of a 500.
func TestAdvisoryErrorDegradesGracefully(t *testing.T) {
	s := NewServer(ensemble(t), fastOpts())
	s.advise = func(*core.Ensemble, *core.Diagnosis) ([]tune.Recommendation, error) {
		return nil, errors.New("synthetic advisor failure")
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := NewClient(srv.URL).Diagnose(testRecord())
	if err != nil {
		t.Fatalf("diagnosis failed outright: %v", err)
	}
	if resp.AdvisoryError == "" {
		t.Error("advisory_error not set")
	}
	if len(resp.Recommendations) != 0 {
		t.Error("recommendations present despite advisor failure")
	}
	if len(resp.Factors) == 0 || resp.ClosestModel == "" {
		t.Error("diagnosis payload incomplete")
	}
}

// TestDiagnoseBatchEndpoint round-trips several records through the batch
// endpoint and checks order and content.
func TestDiagnoseBatchEndpoint(t *testing.T) {
	srv := httptest.NewServer(NewServer(ensemble(t), fastOpts()).Handler())
	defer srv.Close()

	rec := testRecord()
	var body bytes.Buffer
	if err := darshan.WriteDataset(&body, &darshan.Dataset{Records: []*darshan.Record{rec, rec, rec}}); err != nil {
		t.Fatal(err)
	}
	httpResp, err := srv.Client().Post(srv.URL+"/api/v1/diagnose/batch", "text/plain", &body)
	if err != nil {
		t.Fatal(err)
	}
	var resps []*DiagnosisResponse
	err = json.NewDecoder(httpResp.Body).Decode(&resps)
	httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("batch diagnose: HTTP %d, decode: %v", httpResp.StatusCode, err)
	}
	if len(resps) != 3 {
		t.Fatalf("got %d responses, want 3", len(resps))
	}
	for i, r := range resps {
		if r.App != rec.App {
			t.Errorf("response %d: app %q, want %q", i, r.App, rec.App)
		}
		if len(r.Factors) == 0 {
			t.Errorf("response %d: no factors", i)
		}
		if !r.Robust {
			t.Errorf("response %d: not robust", i)
		}
	}

	// A blank line or a comment before the first record is no job: two
	// records get two replies, and no all-zero phantom.
	for _, pre := range []string{"\n", "# produced by site-sweep v2\n"} {
		body.Reset()
		body.WriteString(pre)
		if err := darshan.WriteDataset(&body, &darshan.Dataset{Records: []*darshan.Record{rec, rec}}); err != nil {
			t.Fatal(err)
		}
		httpResp, err = srv.Client().Post(srv.URL+"/api/v1/diagnose/batch", "text/plain", &body)
		if err != nil {
			t.Fatal(err)
		}
		resps = nil
		err = json.NewDecoder(httpResp.Body).Decode(&resps)
		httpResp.Body.Close()
		if httpResp.StatusCode != http.StatusOK || err != nil {
			t.Fatalf("batch with preamble %q: HTTP %d, decode: %v", pre, httpResp.StatusCode, err)
		}
		if len(resps) != 2 {
			t.Fatalf("batch with preamble %q: got %d responses, want 2", pre, len(resps))
		}
		for i, r := range resps {
			if r.App != rec.App || r.ActualMiBps != rec.PerfMiBps {
				t.Errorf("batch with preamble %q: response %d is app %q at %v MiB/s, want %q at %v",
					pre, i, r.App, r.ActualMiBps, rec.App, rec.PerfMiBps)
			}
		}
	}

	// Empty body is a 400.
	httpResp, err = srv.Client().Post(srv.URL+"/api/v1/diagnose/batch", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	httpResp.Body.Close()
	if httpResp.StatusCode != 400 {
		t.Errorf("empty batch got HTTP %d", httpResp.StatusCode)
	}
}
