package webservice

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpc-repro/aiio/internal/admission"
	"github.com/hpc-repro/aiio/internal/core"
	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/drift"
	"github.com/hpc-repro/aiio/internal/faults"
	"github.com/hpc-repro/aiio/internal/lifecycle"
	"github.com/hpc-repro/aiio/internal/tune"
)

// Tests of the result cache's rendered-response tier: a repeat answered from
// its request bytes must be indistinguishable — status, headers, body — from
// the same request parsed, diagnosed, advised and encoded from scratch, and
// every event that changes the answer must make the frozen bytes unreachable.

// logBytes is rec in the text log format.
func logBytes(t testing.TB, rec *darshan.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := darshan.WriteLog(&buf, rec); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// respell rewrites a log as a different byte string for the same job:
// counter lines in reverse order, padded with blank lines and trailing
// whitespace.
func respell(log []byte) []byte {
	var header, counters []string
	for _, line := range strings.Split(strings.TrimSpace(string(log)), "\n") {
		if strings.HasPrefix(line, "#") {
			header = append(header, line)
		} else {
			counters = append(counters, line)
		}
	}
	var out strings.Builder
	for _, line := range header {
		out.WriteString(line + "\n")
	}
	for i := len(counters) - 1; i >= 0; i-- {
		out.WriteString("\n  " + counters[i] + " \t\n")
	}
	return []byte(out.String())
}

type reply struct {
	status int
	header http.Header
	body   []byte
}

// post sends body to POST /api/v1/diagnose on h, in process.
func post(h http.Handler, body []byte) reply {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/v1/diagnose", bytes.NewReader(body)))
	return reply{status: w.Code, header: w.Header(), body: w.Body.Bytes()}
}

// countAdvise wraps s's advisor with a call counter.
func countAdvise(s *Server) *atomic.Int64 {
	var calls atomic.Int64
	inner := s.advise
	s.advise = func(e *core.Ensemble, d *core.Diagnosis) ([]tune.Recommendation, error) {
		calls.Add(1)
		return inner(e, d)
	}
	return &calls
}

func cacheStats(t *testing.T, h http.Handler) (hits, misses uint64) {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var health struct {
		Cache struct{ Hits, Misses uint64 } `json:"cache"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	return health.Cache.Hits, health.Cache.Misses
}

// TestRepeatAnsweredFromRequestBytes: the first request computes, the second
// freezes, and from the third on the same bytes are answered without the
// advisor — with exactly the body the keyed path, and a server with no cache
// at all, produce.
func TestRepeatAnsweredFromRequestBytes(t *testing.T) {
	rep := &core.LoadReport{Generation: 7, Fingerprint: "0123456789abcdef0123"}
	s := NewServer(ensemble(t), fastOpts())
	s.SetGeneration(rep)
	advised := countAdvise(s)
	h := s.Handler()
	plain := NewServer(ensemble(t), fastOpts())
	plain.CacheSize = -1
	plain.SetGeneration(rep)

	log := logBytes(t, testRecord())
	want := post(plain.Handler(), log)
	if want.status != http.StatusOK || !bytes.Contains(want.body, []byte(`"source":"model-registry"`)) {
		t.Fatalf("cache-disabled reference: HTTP %d: %s", want.status, want.body)
	}
	for i, step := range []struct {
		cache   string
		advised int64
	}{
		{"miss", 1}, // computed
		{"hit", 2},  // keyed hit: second touch, frozen
		{"hit", 2},  // answered from the request bytes
		{"hit", 2},
	} {
		got := post(h, log)
		if got.status != http.StatusOK {
			t.Fatalf("request %d: HTTP %d: %s", i+1, got.status, got.body)
		}
		if c := got.header.Get("X-AIIO-Cache"); c != step.cache {
			t.Errorf("request %d: X-AIIO-Cache = %q, want %q", i+1, c, step.cache)
		}
		if n := advised.Load(); n != step.advised {
			t.Errorf("request %d: advisor has run %d times, want %d", i+1, n, step.advised)
		}
		if !bytes.Equal(got.body, want.body) {
			t.Errorf("request %d: body differs from the cache-disabled server's:\n got %s\nwant %s", i+1, got.body, want.body)
		}
		for _, name := range []string{"X-AIIO-Generation", "X-AIIO-Fingerprint", "Content-Type", "Content-Length"} {
			if g, w := got.header.Get(name), want.header.Get(name); g != w {
				t.Errorf("request %d: %s = %q, cache-disabled server sent %q", i+1, name, g, w)
			}
		}
	}
	if hits, misses := cacheStats(t, h); hits != 3 || misses != 1 {
		t.Errorf("healthz counts %d hits / %d misses for 4 requests, want 3 / 1", hits, misses)
	}

	// The same job spelled differently has another digest: it takes the
	// parsed-key path, finds the frozen entry, and gets the same bytes.
	got := post(h, respell(log))
	if c := got.header.Get("X-AIIO-Cache"); got.status != http.StatusOK || c != "hit" {
		t.Fatalf("respelled log: HTTP %d, X-AIIO-Cache %q, want 200 hit", got.status, c)
	}
	if !bytes.Equal(got.body, want.body) {
		t.Errorf("respelled log answered differently:\n got %s\nwant %s", got.body, want.body)
	}
	if n := advised.Load(); n != 2 {
		t.Errorf("respelled log re-ran the advisor (%d runs)", n)
	}
	if hits, misses := cacheStats(t, h); hits+misses != 5 {
		t.Errorf("healthz counts %d requests, 5 were served", hits+misses)
	}
}

// freezeEntry asks for log until the next identical request would be answered
// from its bytes, and checks that it is.
func freezeEntry(t *testing.T, h http.Handler, advised *atomic.Int64, log []byte) {
	t.Helper()
	post(h, log)
	post(h, log)
	before := advised.Load()
	if got := post(h, log); got.status != http.StatusOK || got.header.Get("X-AIIO-Cache") != "hit" {
		t.Fatalf("third request: HTTP %d, X-AIIO-Cache %q", got.status, got.header.Get("X-AIIO-Cache"))
	}
	if advised.Load() != before {
		t.Fatal("third identical request still ran the advisor: the entry was not frozen")
	}
}

// TestModelSwapInvalidatesFrozenEntry: every way the model set can change —
// upload, AdoptGeneration, rollback — makes the very next identical request
// a miss computed on, and stamped with, the new generation.
func TestModelSwapInvalidatesFrozenEntry(t *testing.T) {
	base := ensemble(t)
	single := &core.Ensemble{Models: []core.Model{base.Model(core.NameLightGBM)}}
	for _, tc := range []struct {
		name string
		// swap changes the serving model set and returns the generation the
		// next reply must carry and how many models it must report.
		swap func(t *testing.T, s *Server, h http.Handler, served uint64) (gen uint64, models int)
	}{
		{"upload", func(t *testing.T, s *Server, h http.Handler, served uint64) (uint64, int) {
			var gob bytes.Buffer
			if err := base.Model(core.NameCatBoost).Save(&gob); err != nil {
				t.Fatal(err)
			}
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/v1/models?name=extra&kind=gbdt", &gob))
			if w.Code != http.StatusOK {
				t.Fatalf("upload: HTTP %d: %s", w.Code, w.Body)
			}
			return served + 1, 3
		}},
		{"adopt", func(t *testing.T, s *Server, h http.Handler, served uint64) (uint64, int) {
			gen, err := s.Store.Save(single)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.AdoptGeneration(single, s.storeReport(gen)); err != nil {
				t.Fatal(err)
			}
			return gen, 1
		}},
		{"rollback", func(t *testing.T, s *Server, h http.Handler, served uint64) (uint64, int) {
			gen, err := s.Store.Save(single)
			if err != nil {
				t.Fatal(err)
			}
			s.lifecycleMu.Lock()
			s.rollback(lifecycle.Rollback{From: served, To: gen})
			s.lifecycleMu.Unlock()
			// The restore commits gen's content again as the next generation.
			return gen + 1, 1
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewServer(&core.Ensemble{Models: append([]core.Model(nil), base.Models...)}, fastOpts())
			s.Store = core.OpenStore(t.TempDir())
			served, err := s.Store.Save(base)
			if err != nil {
				t.Fatal(err)
			}
			s.SetGeneration(s.storeReport(served))
			advised := countAdvise(s)
			h := s.Handler()
			log := logBytes(t, testRecord())
			freezeEntry(t, h, advised, log)

			gen, models := tc.swap(t, s, h, served)
			before := advised.Load()
			got := post(h, log)
			if c := got.header.Get("X-AIIO-Cache"); got.status != http.StatusOK || c != "miss" {
				t.Fatalf("request after the swap: HTTP %d, X-AIIO-Cache %q, want 200 miss", got.status, c)
			}
			if g := got.header.Get("X-AIIO-Generation"); g != strconv.FormatUint(gen, 10) {
				t.Errorf("X-AIIO-Generation = %q after the swap, want %d", g, gen)
			}
			var resp DiagnosisResponse
			if err := json.Unmarshal(got.body, &resp); err != nil {
				t.Fatal(err)
			}
			if len(resp.Models) != models {
				t.Errorf("reply reports %d models, the new set has %d: stale body", len(resp.Models), models)
			}
			if advised.Load() != before+1 {
				t.Error("request after the swap did not run the advisor")
			}
		})
	}
}

// TestAdvisoriesStayFreshOnFrozenEntry: the advisories are the one part of a
// frozen reply encoded per request, so a lifecycle event between two
// identical requests shows in the second.
func TestAdvisoriesStayFreshOnFrozenEntry(t *testing.T) {
	s := NewServer(ensemble(t), fastOpts())
	s.Drift = drift.New(drift.Config{})
	s.SetGeneration(&core.LoadReport{Generation: 2})
	advised := countAdvise(s)
	h := s.Handler()
	log := logBytes(t, testRecord())
	freezeEntry(t, h, advised, log)
	before := post(h, log)
	if bytes.Contains(before.body, []byte("rollback-watch")) {
		t.Fatalf("rollback advisory before any rollback: %s", before.body)
	}

	s.lifecycleMu.Lock()
	s.step(lifecycle.RolledBack{From: 3, To: 2, Reason: "rolling RMSE tripled"})
	s.lifecycleMu.Unlock()
	runs := advised.Load()
	after := post(h, log)
	if advised.Load() != runs {
		t.Error("lifecycle event forced the advisor to re-run: the entry thawed")
	}
	var resp DiagnosisResponse
	if err := json.Unmarshal(after.body, &resp); err != nil {
		t.Fatalf("reply is not valid JSON: %v\n%s", err, after.body)
	}
	found := false
	for _, a := range resp.Advisories {
		if a.Source == "rollback-watch" && strings.Contains(a.Claim, "rolling RMSE tripled") {
			found = true
		}
	}
	if !found {
		t.Errorf("rollback advisory missing from the frozen entry's next reply: %+v", resp.Advisories)
	}
	// Up to the advisories the two replies are the same frozen bytes.
	cut := bytes.Index(before.body, []byte(`,"advisories":`))
	if cut < 0 || !bytes.HasPrefix(after.body, before.body[:cut]) {
		t.Errorf("frozen prefix changed across the lifecycle event:\nbefore %s\n after %s", before.body, after.body)
	}
}

// TestIncompleteReplyNeverFrozen: a reply whose advisor failed, or that
// covers only part of the ensemble, is rebuilt on every request — the next
// one may do better.
func TestIncompleteReplyNeverFrozen(t *testing.T) {
	log := logBytes(t, testRecord())
	t.Run("advisor error", func(t *testing.T) {
		s := NewServer(ensemble(t), fastOpts())
		var runs atomic.Int64
		var broken atomic.Bool
		broken.Store(true)
		inner := s.advise
		s.advise = func(e *core.Ensemble, d *core.Diagnosis) ([]tune.Recommendation, error) {
			runs.Add(1)
			if broken.Load() {
				return nil, errors.New("synthetic advisor failure")
			}
			return inner(e, d)
		}
		h := s.Handler()
		for i := int64(1); i <= 3; i++ {
			got := post(h, log)
			if !bytes.Contains(got.body, []byte(`"advisory_error"`)) {
				t.Fatalf("request %d: no advisory_error: %s", i, got.body)
			}
			if runs.Load() != i {
				t.Fatalf("request %d: advisor ran %d times: a failed advisory was frozen", i, runs.Load())
			}
		}
		// Once the advisor recovers, the next hit freezes the good answer.
		broken.Store(false)
		healed := post(h, log)
		if bytes.Contains(healed.body, []byte(`"advisory_error"`)) || runs.Load() != 4 {
			t.Fatalf("recovered advisor not consulted (runs %d): %s", runs.Load(), healed.body)
		}
		if again := post(h, log); runs.Load() != 4 || !bytes.Equal(again.body, healed.body) {
			t.Errorf("healed reply not frozen: advisor runs %d", runs.Load())
		}
	})
	t.Run("degraded", func(t *testing.T) {
		s := NewServer(faults.Break(ensemble(t), 0, &faults.FaultyModel{PanicOn: true}), fastOpts())
		advised := countAdvise(s)
		h := s.Handler()
		for i := int64(1); i <= 4; i++ {
			got := post(h, log)
			if got.status != http.StatusOK || !bytes.Contains(got.body, []byte(`"degraded":true`)) {
				t.Fatalf("request %d: HTTP %d, not degraded: %s", i, got.status, got.body)
			}
			if advised.Load() != i {
				t.Fatalf("request %d: advisor ran %d times: a degraded reply was frozen", i, advised.Load())
			}
		}
	})
	t.Run("breaker open", func(t *testing.T) {
		s := NewServer(faults.Break(ensemble(t), 0, &faults.FaultyModel{PanicOn: true}), fastOpts())
		s.Breakers = breakerSet(1, time.Hour)
		advised := countAdvise(s)
		h := s.Handler()
		for i := int64(1); i <= 4; i++ {
			got := post(h, log)
			if got.status != http.StatusOK || !bytes.Contains(got.body, []byte(`"degraded":true`)) {
				t.Fatalf("request %d: HTTP %d, not degraded: %s", i, got.status, got.body)
			}
			if advised.Load() != i {
				t.Fatalf("request %d: advisor ran %d times: a breaker-degraded reply was frozen", i, advised.Load())
			}
		}
		if st := s.Breakers.For(s.modelNames()[0]).State(); st != admission.StateOpen {
			t.Fatalf("breaker = %v, want open: the case did not exercise the breaker path", st)
		}
	})
}

// TestFrozenEntryRacingUpload: identical requests hammering a frozen entry
// while uploads flip a model back and forth only ever see one of the two
// whole bodies, and a request that ran entirely between two uploads sees the
// body of the set that served then.
func TestFrozenEntryRacingUpload(t *testing.T) {
	base := ensemble(t)
	var original, swapped bytes.Buffer
	if err := base.Model(core.NameLightGBM).Save(&original); err != nil {
		t.Fatal(err)
	}
	if err := base.Model(core.NameCatBoost).Save(&swapped); err != nil {
		t.Fatal(err)
	}
	upload := func(h http.Handler, gob []byte) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost,
			"/api/v1/models?name="+core.NameLightGBM+"&kind=gbdt", bytes.NewReader(gob)))
		if w.Code != http.StatusOK {
			t.Errorf("upload: HTTP %d: %s", w.Code, w.Body)
		}
	}
	private := func() *core.Ensemble {
		return &core.Ensemble{Models: append([]core.Model(nil), base.Models...)}
	}
	log := logBytes(t, testRecord())

	// The two bodies, from a server that caches nothing.
	ref := NewServer(private(), fastOpts())
	ref.CacheSize = -1
	var bodies [2][]byte
	bodies[0] = post(ref.Handler(), log).body
	upload(ref.Handler(), swapped.Bytes())
	bodies[1] = post(ref.Handler(), log).body
	if bytes.Equal(bodies[0], bodies[1]) {
		t.Fatal("the swap does not change the reply: the test cannot tell versions apart")
	}

	s := NewServer(private(), fastOpts())
	h := s.Handler()
	freezeEntry(t, h, countAdvise(s), log)

	// epoch is odd while an upload is in flight; epoch/2 uploads have
	// completed when it is even.
	var epoch atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				e0 := epoch.Load()
				got := post(h, log)
				e1 := epoch.Load()
				if got.status != http.StatusOK {
					t.Errorf("HTTP %d during the race: %s", got.status, got.body)
					return
				}
				if !bytes.Equal(got.body, bodies[0]) && !bytes.Equal(got.body, bodies[1]) {
					t.Errorf("body is neither version's reply: %s", got.body)
					return
				}
				if e0 == e1 && e0%2 == 0 && !bytes.Equal(got.body, bodies[(e0/2)%2]) {
					t.Errorf("request between uploads %d and %d got the other version's body", e0/2, e0/2+1)
					return
				}
			}
		}()
	}
	for u := 0; u < 6; u++ {
		gob := swapped.Bytes()
		if u%2 == 1 {
			gob = original.Bytes()
		}
		epoch.Add(1)
		upload(h, gob)
		epoch.Add(1)
		// Let the clients freeze the new version's entry before the next flip.
		for i := 0; i < 3; i++ {
			post(h, log)
		}
	}
	close(stop)
	wg.Wait()
}

// TestDigestIndexNeverOutlivesEntry drives the container directly: the digest
// index only ever points at live, frozen entries — through eviction, in-place
// replacement, a superseded version's claim on the same bytes, and purge.
func TestDigestIndexNeverOutlivesEntry(t *testing.T) {
	c := newDiagCache(2)
	check := func(when string) {
		t.Helper()
		if len(c.digests) > len(c.entries) {
			t.Fatalf("%s: %d digests indexed for %d entries", when, len(c.digests), len(c.entries))
		}
		for dg, el := range c.digests {
			e := el.Value.(*cacheEntry)
			if c.entries[e.key] != el || e.rendered == nil || e.digest != dg {
				t.Fatalf("%s: digest slot points at a dead or thawed entry %q", when, e.key)
			}
		}
	}
	digest := func(s string) bodyDigest { return sha256.Sum256([]byte(s)) }
	d := &core.Diagnosis{}

	c.put("a", d)
	c.freeze("a", 1, digest("body-a"), []byte("rendered-a"))
	c.freeze("gone", 1, digest("body-gone"), []byte("x")) // no such entry
	check("freeze")
	if got, ok := c.byDigest(digest("body-a"), 1); !ok || string(got) != "rendered-a" {
		t.Fatalf("frozen entry not served by digest: %q %v", got, ok)
	}
	if _, ok := c.byDigest(digest("body-a"), 2); ok {
		t.Fatal("entry rendered under version 1 served at version 2")
	}
	if _, ok := c.byDigest(digest("body-gone"), 1); ok {
		t.Fatal("freeze of a missing key left a digest behind")
	}
	c.freeze("a", 1, digest("other-spelling"), []byte("y")) // already frozen: first spelling stays
	check("refreeze")
	if _, ok := c.byDigest(digest("other-spelling"), 1); ok {
		t.Fatal("second freeze re-indexed a frozen entry")
	}

	// A newer version's entry for the same bytes takes the slot.
	c.put("a2", d)
	c.freeze("a2", 2, digest("body-a"), []byte("rendered-a2"))
	check("superseded version")
	if got, ok := c.byDigest(digest("body-a"), 2); !ok || string(got) != "rendered-a2" {
		t.Fatalf("newer version did not take the digest slot: %q %v", got, ok)
	}
	if _, rendered, _ := c.lookup("a"); rendered != nil {
		t.Fatal("superseded entry kept rendered bytes with no index slot")
	}

	// Eviction drops the slot with the entry ("a" was just used, "a2" is LRU).
	c.put("b", d)
	check("eviction")
	if _, ok := c.byDigest(digest("body-a"), 2); ok {
		t.Fatal("evicted entry still reachable by digest")
	}
	// Replacing an entry's diagnosis thaws it.
	c.freeze("b", 2, digest("body-b"), []byte("rendered-b"))
	c.put("b", &core.Diagnosis{})
	check("replace in place")
	if _, ok := c.byDigest(digest("body-b"), 2); ok {
		t.Fatal("replaced entry kept its rendered bytes")
	}

	c.freeze("b", 2, digest("body-b"), []byte("rendered-b"))
	c.purge()
	check("purge")
	if len(c.digests) != 0 {
		t.Fatalf("purge left %d digests", len(c.digests))
	}
}

// TestBufferedBodyErrorsUnchanged pins the 413 and 400 bodies now that the
// request is read whole before it is parsed.
func TestBufferedBodyErrorsUnchanged(t *testing.T) {
	s := NewServer(ensemble(t), fastOpts())
	s.MaxBody = 4096
	h := s.Handler()
	for _, tc := range []struct {
		name   string
		body   io.Reader
		status int
		want   string
	}{
		{"oversized", strings.NewReader(strings.Repeat("# padding comment line\n", 400)),
			http.StatusRequestEntityTooLarge, `{"error":"request body exceeds 4096 bytes"}` + "\n"},
		{"garbage", strings.NewReader("not a darshan log"),
			http.StatusBadRequest, `{"error":"parse log: darshan: line 1: want \"name value\", got \"not a darshan log\""}` + "\n"},
		{"non-finite", strings.NewReader("POSIX_READS\tNaN\n"),
			http.StatusBadRequest, `{"error":"parse log: darshan: line 1: non-finite value \"NaN\""}` + "\n"},
		{"torn read", faults.ErrReader(strings.NewReader("# exe: ior\n"), 5, errors.New("connection reset")),
			http.StatusBadRequest, `{"error":"parse log: darshan: read log: connection reset"}` + "\n"},
	} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/v1/diagnose", tc.body))
		if w.Code != tc.status || w.Body.String() != tc.want {
			t.Errorf("%s: HTTP %d %q, want %d %q", tc.name, w.Code, w.Body, tc.status, tc.want)
		}
	}
}

// TestRenderedHitAllocations holds the handler's own share of a hit answered
// from the request bytes to ROADMAP item 5's target of 10 allocations (the
// parsed path made 164). The request is built once and rewound, so none of
// http.NewRequest's allocations are counted.
func TestRenderedHitAllocations(t *testing.T) {
	s := NewServer(ensemble(t), fastOpts())
	h := s.Handler()
	log := logBytes(t, testRecord())
	body := bytes.NewReader(log)
	req := httptest.NewRequest(http.MethodPost, "/api/v1/diagnose", body)
	req.Body = io.NopCloser(body)
	w := &nopResponseWriter{h: make(http.Header, 8)}
	serve := func() {
		body.Reset(log)
		clear(w.h)
		h.ServeHTTP(w, req)
	}
	for i := 0; i < 3; i++ {
		serve()
	}
	if w.h.Get("X-AIIO-Cache") != "hit" {
		t.Fatalf("warm-up did not end on a hit: %v", w.h)
	}
	// The quietest of many single runs: under -race sync.Pool drops a quarter
	// of what is put back, which is the detector's cost, not the handler's.
	best := testing.AllocsPerRun(1, serve)
	for i := 0; i < 50; i++ {
		best = min(best, testing.AllocsPerRun(1, serve))
	}
	if best > 10 {
		t.Errorf("a hit answered from the request bytes makes %.0f allocations, want ≤ 10", best)
	}
}

// FuzzDiagnoseCacheTransparent: whatever bytes arrive, and however often, a
// caching server answers exactly as a server with no cache does — status,
// generation header and body. Three sends walk an accepted body through all
// three paths: computed, frozen on the keyed hit, answered from its bytes.
func FuzzDiagnoseCacheTransparent(f *testing.F) {
	valid := logBytes(f, testRecord())
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated mid-counter-list
	f.Add(bytes.Replace(valid, []byte("POSIX_READS\t"), []byte("POSIX_READS\tNaN "), 1))
	f.Add(respell(valid))
	f.Add([]byte("# exe: <ior>&\nPOSIX_WRITES 1e3\n"))
	f.Add([]byte("# performance_mibps: NaN\nPOSIX_WRITES 1e3\n")) // parses; the reply cannot be encoded

	rep := &core.LoadReport{Generation: 3, Fingerprint: "feedfacefeedfacefeed"}
	cached := NewServer(ensemble(f), fastOpts())
	cached.SetGeneration(rep)
	plain := NewServer(ensemble(f), fastOpts())
	plain.CacheSize = -1
	plain.SetGeneration(rep)
	ch, ph := cached.Handler(), plain.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		want := post(ph, body)
		for i := 1; i <= 3; i++ {
			got := post(ch, body)
			if got.status != want.status {
				t.Fatalf("send %d: HTTP %d with the cache, %d without", i, got.status, want.status)
			}
			if g, w := got.header.Get("X-AIIO-Generation"), want.header.Get("X-AIIO-Generation"); g != w {
				t.Fatalf("send %d: X-AIIO-Generation %q with the cache, %q without", i, g, w)
			}
			if !bytes.Equal(got.body, want.body) {
				t.Fatalf("send %d: body differs:\n   cached %s\nuncached %s", i, got.body, want.body)
			}
		}
	})
}

// TestCoalescedMissCountedOnce: a request that misses at the handler and is
// looked up again before its flight starts is still one miss on /healthz.
func TestCoalescedMissCountedOnce(t *testing.T) {
	s := NewServer(ensemble(t), fastOpts())
	h := s.Handler()
	const jobs = 6
	logs := make([][]byte, jobs)
	for i := range logs {
		logs[i] = logBytes(t, coalesceRecord(12+i))
	}
	var wg sync.WaitGroup
	for i, log := range logs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := post(h, log); got.status != http.StatusOK {
				t.Errorf("job %d: HTTP %d: %s", i, got.status, got.body)
			}
		}()
	}
	wg.Wait()
	if _, answered := s.flights.stats(); answered != jobs {
		t.Fatalf("flights answered %d of %d requests", answered, jobs)
	}
	if hits, misses := cacheStats(t, h); hits != 0 || misses != jobs {
		t.Errorf("healthz counts %d hits / %d misses for %d distinct coalesced requests, want 0 / %d",
			hits, misses, jobs, jobs)
	}
	// And a repeat of each is exactly one hit.
	for _, log := range logs {
		post(h, log)
	}
	if hits, misses := cacheStats(t, h); hits != jobs || misses != jobs {
		t.Errorf("after one repeat each: %d hits / %d misses, want %d / %d", hits, misses, jobs, jobs)
	}
}
