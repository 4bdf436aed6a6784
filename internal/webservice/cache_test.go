package webservice

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/hpc-repro/aiio/internal/core"
	"github.com/hpc-repro/aiio/internal/darshan"
)

// postDiagnose posts one record and returns the cache header and decoded body.
func postDiagnose(t *testing.T, srv *httptest.Server, rec *darshan.Record) (string, *DiagnosisResponse, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := darshan.WriteLog(&buf, rec); err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+"/api/v1/diagnose", "text/plain", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("diagnose: HTTP %d: %s", resp.StatusCode, raw)
	}
	var body DiagnosisResponse
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatal(err)
	}
	return resp.Header.Get("X-AIIO-Cache"), &body, raw
}

// TestDiagnoseCacheHit: a repeat query for the same job is served from the
// cache, byte-identical to the first answer.
func TestDiagnoseCacheHit(t *testing.T) {
	srv := httptest.NewServer(NewServer(ensemble(t), fastOpts()).Handler())
	defer srv.Close()
	rec := testRecord()

	state1, _, raw1 := postDiagnose(t, srv, rec)
	if state1 != "miss" {
		t.Fatalf("first diagnose: X-AIIO-Cache = %q, want miss", state1)
	}
	state2, _, raw2 := postDiagnose(t, srv, rec)
	if state2 != "hit" {
		t.Fatalf("repeat diagnose: X-AIIO-Cache = %q, want hit", state2)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Error("cached response differs from the original")
	}

	// A different job must not hit the first job's entry.
	other := testRecord()
	other.App = "other-app"
	other.Counters[darshan.NProcs] *= 2
	if state, _, _ := postDiagnose(t, srv, other); state != "miss" {
		t.Errorf("distinct job: X-AIIO-Cache = %q, want miss", state)
	}

	// The health endpoint surfaces the traffic.
	hr, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var health struct {
		Cache struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
			Size   int    `json:"size"`
		} `json:"cache"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Cache.Hits != 1 || health.Cache.Misses != 2 || health.Cache.Size != 2 {
		t.Errorf("healthz cache stats = %+v, want 1 hit / 2 misses / size 2", health.Cache)
	}
}

// TestUploadInvalidatesCachedDiagnosis is the regression test for the
// stale-cache bug: replacing a model via upload must invalidate every cached
// diagnosis, so the very next query for the same job reruns against the new
// ensemble instead of echoing the pre-upload answer.
func TestUploadInvalidatesCachedDiagnosis(t *testing.T) {
	base := ensemble(t)
	private := &core.Ensemble{Models: append([]core.Model(nil), base.Models...)}
	srv := httptest.NewServer(NewServer(private, fastOpts()).Handler())
	defer srv.Close()
	client := NewClient(srv.URL)
	rec := testRecord()

	// Warm the cache and confirm it answers.
	_, before, _ := postDiagnose(t, srv, rec)
	if state, _, _ := postDiagnose(t, srv, rec); state != "hit" {
		t.Fatalf("warm-up repeat was %q, want hit", state)
	}

	// Replace the lightgbm slot with catboost's serialization: the model
	// under the name "lightgbm" now computes catboost's prediction.
	var buf bytes.Buffer
	if err := private.Model(core.NameCatBoost).Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := client.UploadModel(core.NameLightGBM, "gbdt", &buf); err != nil {
		t.Fatal(err)
	}

	state, after, _ := postDiagnose(t, srv, rec)
	if state != "miss" {
		t.Fatalf("post-upload diagnose served %q, want miss (stale cache)", state)
	}
	// The replaced slot must now predict exactly what the catboost model
	// predicted for this job before the upload — proof the fresh ensemble,
	// not the stale cache entry, produced the answer.
	pred := func(r *DiagnosisResponse, name string) float64 {
		for _, m := range r.Models {
			if m.Name == name {
				return m.PredictedMiBps
			}
		}
		t.Fatalf("model %s missing from response", name)
		return 0
	}
	if got, want := pred(after, core.NameLightGBM), pred(before, core.NameCatBoost); got != want {
		t.Errorf("post-upload %s predicts %v, want the uploaded model's %v",
			core.NameLightGBM, got, want)
	}
}

// TestBatchDiagnosePartialCacheHits: the batch endpoint resolves cached
// records up front and runs the parallel engine only over the misses, keeping
// input order.
func TestBatchDiagnosePartialCacheHits(t *testing.T) {
	srv := httptest.NewServer(NewServer(ensemble(t), fastOpts()).Handler())
	defer srv.Close()

	recA := testRecord()
	recB := testRecord()
	recB.App = "batch-b"
	recB.Counters[darshan.NProcs] *= 4

	// Prime only recA through the single-job endpoint.
	_, wantA, _ := postDiagnose(t, srv, recA)

	var buf bytes.Buffer
	if err := darshan.WriteDataset(&buf, &darshan.Dataset{Records: []*darshan.Record{recA, recB}}); err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+"/api/v1/diagnose/batch", "text/plain", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: HTTP %d", resp.StatusCode)
	}
	if h := resp.Header.Get("X-AIIO-Cache"); h != "hits=1 misses=1" {
		t.Errorf("batch X-AIIO-Cache = %q, want hits=1 misses=1", h)
	}
	var out []*DiagnosisResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("batch returned %d responses", len(out))
	}
	if out[0].App != recA.App || out[1].App != "batch-b" {
		t.Errorf("batch order broken: got %q, %q", out[0].App, out[1].App)
	}
	for _, m := range wantA.Models {
		if got := out[0].Models; len(got) == 0 {
			t.Fatal("cached batch entry lost its models")
		} else {
			found := false
			for _, g := range got {
				if g.Name == m.Name && g.PredictedMiBps == m.PredictedMiBps {
					found = true
				}
			}
			if !found {
				t.Errorf("cached batch entry drifted for model %s", m.Name)
			}
		}
	}

	// The whole batch is now warm. A fresh buffer, not buf.Reset(): the
	// transport may still be finishing the first body after Post returns.
	var again bytes.Buffer
	if err := darshan.WriteDataset(&again, &darshan.Dataset{Records: []*darshan.Record{recA, recB}}); err != nil {
		t.Fatal(err)
	}
	resp2, err := srv.Client().Post(srv.URL+"/api/v1/diagnose/batch", "text/plain", &again)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if h := resp2.Header.Get("X-AIIO-Cache"); h != "hits=2 misses=0" {
		t.Errorf("warm batch X-AIIO-Cache = %q, want hits=2 misses=0", h)
	}
}

// TestCacheDisabled: CacheSize < 0 turns the cache off entirely — no header,
// no stored entries.
func TestCacheDisabled(t *testing.T) {
	s := NewServer(ensemble(t), fastOpts())
	s.CacheSize = -1
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	rec := testRecord()

	for i := 0; i < 2; i++ {
		if state, _, _ := postDiagnose(t, srv, rec); state != "" {
			t.Fatalf("request %d: X-AIIO-Cache = %q with caching disabled", i, state)
		}
	}
}

// TestDiagCacheLRU exercises the container directly: capacity eviction,
// update-in-place, and purge semantics.
func TestDiagCacheLRU(t *testing.T) {
	c := newDiagCache(2)
	d1, d2, d3 := &core.Diagnosis{}, &core.Diagnosis{}, &core.Diagnosis{}
	c.put("a", d1)
	c.put("b", d2)
	if got, _, ok := c.lookup("a"); !ok || got != d1 {
		t.Fatal("a missing after insert")
	}
	// "b" is now least recently used; inserting "c" evicts it.
	c.put("c", d3)
	if _, _, ok := c.lookup("b"); ok {
		t.Error("LRU entry b survived past capacity")
	}
	if _, _, ok := c.lookup("a"); !ok {
		t.Error("recently-used entry a evicted")
	}
	// Update-in-place does not grow the cache.
	c.put("a", d2)
	if got, _, _ := c.lookup("a"); got != d2 {
		t.Error("put did not replace the cached value")
	}
	if _, _, size := c.stats(); size != 2 {
		t.Errorf("size %d after update-in-place, want 2", size)
	}
	c.purge()
	hits, misses, size := c.stats()
	if size != 0 {
		t.Errorf("purge left %d entries", size)
	}
	if hits == 0 || misses == 0 {
		t.Error("purge reset the observability counters")
	}
}

// TestCacheKeyIdentity: the key covers the version prefix, the application
// name (with a terminator that stops concatenation forgeries), and every
// counter bit.
func TestCacheKeyIdentity(t *testing.T) {
	rec := testRecord()
	base := cacheKey(1, rec)
	if cacheKey(1, rec) != base {
		t.Fatal("cacheKey is not deterministic")
	}
	if cacheKey(2, rec) == base {
		t.Error("version change did not change the key")
	}
	mod := *rec
	mod.App = rec.App + "x"
	if cacheKey(1, &mod) == base {
		t.Error("app change did not change the key")
	}
	mod = *rec
	mod.PerfMiBps++
	if cacheKey(1, &mod) == base {
		t.Error("performance change did not change the key")
	}
	mod = *rec
	mod.Counters[darshan.NumCounters-1]++
	if cacheKey(1, &mod) == base {
		t.Error("last counter change did not change the key")
	}
}
