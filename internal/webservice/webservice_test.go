package webservice

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"github.com/hpc-repro/aiio/internal/core"
	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/features"
	"github.com/hpc-repro/aiio/internal/iosim"
	"github.com/hpc-repro/aiio/internal/logdb"
	"github.com/hpc-repro/aiio/internal/workload"
)

var (
	once sync.Once
	ens  *core.Ensemble
	eErr error
)

func ensemble(t testing.TB) *core.Ensemble {
	t.Helper()
	once.Do(func() {
		ds := logdb.Generate(logdb.GenConfig{Jobs: 500, Seed: 31})
		frame := features.Build(ds)
		opts := core.DefaultTrainOptions()
		opts.Fast = true
		opts.Models = []string{core.NameLightGBM, core.NameCatBoost} // keep tests quick
		ens, _, eErr = core.TrainEnsemble(frame, opts)
	})
	if eErr != nil {
		t.Fatalf("train: %v", eErr)
	}
	return ens
}

func fastOpts() core.DiagnoseOptions {
	o := core.DefaultDiagnoseOptions()
	o.SHAP.MaxExact = 8
	o.SHAP.NSamples = 512
	return o
}

func testRecord() *darshan.Record {
	params := iosim.DefaultParams()
	params.NoiseSigma = 0
	cfg := workload.Patterns()[0].Config.Scale(16, 4)
	rec, _ := cfg.Run("ior", 1, 5, params)
	return rec
}

func TestDiagnoseRoundTrip(t *testing.T) {
	srv := httptest.NewServer(NewServer(ensemble(t), fastOpts()).Handler())
	defer srv.Close()
	client := NewClient(srv.URL)

	resp, err := client.Diagnose(testRecord())
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Models) != 2 {
		t.Errorf("response has %d models", len(resp.Models))
	}
	if resp.ClosestModel == "" {
		t.Error("no closest model")
	}
	if !resp.Robust {
		t.Error("diagnosis not robust")
	}
	if len(resp.Factors) == 0 {
		t.Error("no factors returned")
	}
	wsum := 0.0
	for _, m := range resp.Models {
		wsum += m.Weight
	}
	if wsum < 0.99 || wsum > 1.01 {
		t.Errorf("weights sum to %v", wsum)
	}
}

func TestModelsEndpointAndUpload(t *testing.T) {
	// Use a private ensemble copy so the upload does not affect others.
	base := ensemble(t)
	private := &core.Ensemble{Models: append([]core.Model(nil), base.Models...)}
	srv := httptest.NewServer(NewServer(private, fastOpts()).Handler())
	defer srv.Close()
	client := NewClient(srv.URL)

	models, err := client.Models()
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 2 {
		t.Fatalf("got %d models", len(models))
	}

	// Re-upload lightgbm's serialization under a new name.
	var buf bytes.Buffer
	if err := private.Model(core.NameLightGBM).Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := client.UploadModel("lightgbm-v2", "gbdt", &buf); err != nil {
		t.Fatal(err)
	}
	models, err = client.Models()
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 3 {
		t.Errorf("after upload: %d models", len(models))
	}

	// Replacing an existing name keeps the count. A fresh buffer, not
	// buf.Reset(): the transport may still be finishing the first body
	// after Post returns, and the race detector catches the reuse.
	var replacement bytes.Buffer
	if err := private.Model(core.NameCatBoost).Save(&replacement); err != nil {
		t.Fatal(err)
	}
	if err := client.UploadModel(core.NameCatBoost, "gbdt", &replacement); err != nil {
		t.Fatal(err)
	}
	models, _ = client.Models()
	if len(models) != 3 {
		t.Errorf("after replace: %d models", len(models))
	}
}

func TestServerErrorPaths(t *testing.T) {
	srv := httptest.NewServer(NewServer(ensemble(t), fastOpts()).Handler())
	defer srv.Close()

	// Bad log body.
	resp, err := srv.Client().Post(srv.URL+"/api/v1/diagnose", "text/plain",
		strings.NewReader("POSIX_READS not-a-number\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("bad log got HTTP %d", resp.StatusCode)
	}

	// Wrong method.
	resp, err = srv.Client().Get(srv.URL + "/api/v1/diagnose")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Errorf("GET diagnose got HTTP %d", resp.StatusCode)
	}

	// Upload without parameters.
	resp, err = srv.Client().Post(srv.URL+"/api/v1/models", "application/octet-stream",
		strings.NewReader("junk"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("param-less upload got HTTP %d", resp.StatusCode)
	}

	// Upload junk gob.
	resp, err = srv.Client().Post(srv.URL+"/api/v1/models?name=x&kind=gbdt",
		"application/octet-stream", strings.NewReader("junk"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("junk upload got HTTP %d", resp.StatusCode)
	}

	// Health endpoint.
	resp, err = srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("healthz got HTTP %d", resp.StatusCode)
	}
}

// TestDiagnoseRejectsMultiRecordBody: two jobs posted to the single-job
// endpoint are a 400 that points at the batch endpoint, not a diagnosis of
// one merged job that never ran.
func TestDiagnoseRejectsMultiRecordBody(t *testing.T) {
	srv := httptest.NewServer(NewServer(ensemble(t), fastOpts()).Handler())
	defer srv.Close()

	job1, job2 := testRecord(), testRecord()
	job2.App, job2.JobID = "other", job1.JobID+1
	job2.SetCounter(darshan.PosixWrites, job1.Counter(darshan.PosixWrites)+7)
	var body bytes.Buffer
	if err := darshan.WriteDataset(&body, &darshan.Dataset{Records: []*darshan.Record{job1, job2}}); err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+"/api/v1/diagnose", "text/plain", &body)
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "/api/v1/diagnose/batch") {
		t.Errorf("two jobs posted to /api/v1/diagnose: HTTP %d %s, want 400 naming /api/v1/diagnose/batch", resp.StatusCode, msg)
	}
}

func TestClientAgainstDeadServer(t *testing.T) {
	client := NewClient("http://127.0.0.1:1") // nothing listens here
	if _, err := client.Diagnose(&darshan.Record{}); err == nil {
		t.Error("Diagnose against dead server succeeded")
	}
	if _, err := client.Models(); err == nil {
		t.Error("Models against dead server succeeded")
	}
}

func TestHTMLFrontend(t *testing.T) {
	srv := httptest.NewServer(NewServer(ensemble(t), fastOpts()).Handler())
	defer srv.Close()

	// Index page.
	resp, err := srv.Client().Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "<form") {
		t.Fatalf("index page broken: HTTP %d", resp.StatusCode)
	}

	// Form submission.
	var logText bytes.Buffer
	if err := darshan.WriteLog(&logText, testRecord()); err != nil {
		t.Fatal(err)
	}
	form := url.Values{"log": {logText.String()}}
	resp, err = srv.Client().PostForm(srv.URL+"/diagnose", form)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	html := string(body)
	if resp.StatusCode != 200 {
		t.Fatalf("diagnose form got HTTP %d: %s", resp.StatusCode, html)
	}
	for _, want := range []string{"Merged contributions", "Model predictions", "class=\"bar"} {
		if !strings.Contains(html, want) {
			t.Errorf("HTML result missing %q", want)
		}
	}

	// Bad log in the form.
	resp, err = srv.Client().PostForm(srv.URL+"/diagnose", url.Values{"log": {"POSIX_READS x"}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("bad form log got HTTP %d", resp.StatusCode)
	}

	// GET /diagnose redirects to the form.
	noRedirect := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err = noRedirect.Get(srv.URL + "/diagnose")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusSeeOther {
		t.Errorf("GET /diagnose got HTTP %d", resp.StatusCode)
	}

	// Unknown path under / is a 404.
	resp, err = srv.Client().Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("unknown path got HTTP %d", resp.StatusCode)
	}
}

// UploadModel registers a new pre-trained model from its gob serialization
// through POST /api/v1/models. Uploads are not retried.
func (c *Client) UploadModel(name, kind string, gobData io.Reader) error {
	url := fmt.Sprintf("%s/api/v1/models?name=%s&kind=%s", c.BaseURL, name, kind)
	resp, err := c.HTTP.Post(url, "application/octet-stream", gobData)
	if err != nil {
		return fmt.Errorf("webservice: upload model: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	return nil
}
