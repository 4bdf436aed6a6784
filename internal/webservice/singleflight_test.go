package webservice

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpc-repro/aiio/internal/admission"
	"github.com/hpc-repro/aiio/internal/core"
	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/faults"
	"github.com/hpc-repro/aiio/internal/iosim"
	"github.com/hpc-repro/aiio/internal/linalg"
	"github.com/hpc-repro/aiio/internal/tune"
	"github.com/hpc-repro/aiio/internal/workload"
)

// coalesceRecord builds a distinct deterministic job per scale.
func coalesceRecord(scale int) *darshan.Record {
	params := iosim.DefaultParams()
	params.NoiseSigma = 0
	cfg := workload.Patterns()[0].Config.Scale(scale, 4)
	rec, _ := cfg.Run("ior", 1, 5, params)
	return rec
}

// almostEqual is the 1e-9 parity bound the core determinism suite uses.
func almostEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func assertParity(t *testing.T, got, want *DiagnosisResponse, label string) {
	t.Helper()
	if len(got.Models) != len(want.Models) || len(got.Factors) != len(want.Factors) {
		t.Fatalf("%s: shape mismatch: %d/%d models, %d/%d factors",
			label, len(got.Models), len(want.Models), len(got.Factors), len(want.Factors))
	}
	for i := range want.Models {
		if got.Models[i].Name != want.Models[i].Name ||
			!almostEqual(got.Models[i].PredictedMiBps, want.Models[i].PredictedMiBps) ||
			!almostEqual(got.Models[i].Weight, want.Models[i].Weight) {
			t.Errorf("%s: model %s prediction %v/%v weight %v/%v diverged",
				label, want.Models[i].Name,
				got.Models[i].PredictedMiBps, want.Models[i].PredictedMiBps,
				got.Models[i].Weight, want.Models[i].Weight)
		}
	}
	for i := range want.Factors {
		if got.Factors[i].Counter != want.Factors[i].Counter ||
			!almostEqual(got.Factors[i].Contribution, want.Factors[i].Contribution) {
			t.Errorf("%s: factor %d (%s) contribution %v, in-process %v",
				label, i, want.Factors[i].Counter,
				got.Factors[i].Contribution, want.Factors[i].Contribution)
		}
	}
	if got.ClosestModel != want.ClosestModel {
		t.Errorf("%s: closest model %q vs %q", label, got.ClosestModel, want.ClosestModel)
	}
}

// countingModel counts PredictBatch calls (how Kernel SHAP and the tuning
// advisor use the model) and holds every call until gate is closed.
type countingModel struct {
	core.Model
	calls atomic.Int64
	gate  chan struct{}
}

func (m *countingModel) PredictBatch(x *linalg.Matrix) []float64 {
	m.calls.Add(1)
	<-m.gate
	return m.Model.PredictBatch(x)
}

// countingEnsemble wraps the first test model in a countingModel whose
// gate is open when open is set.
func countingEnsemble(t *testing.T, open bool) (*core.Ensemble, *countingModel) {
	base := ensemble(t)
	cm := &countingModel{Model: base.Models[0], gate: make(chan struct{})}
	if open {
		close(cm.gate)
	}
	return &core.Ensemble{Models: []core.Model{cm, base.Models[1]}}, cm
}

// waiting counts the requests parked on s's running flights.
func waiting(g *flightGroup) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, f := range g.flights {
		n += f.refs
	}
	return n
}

// awaitWaiting polls until n requests wait on g's flights.
func awaitWaiting(t *testing.T, g *flightGroup, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for waiting(g) != n {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests waiting on flights, want %d", waiting(g), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFlightParity: concurrent distinct jobs, each sent twice, are served
// numerically identical (≤1e-9) to an in-process Diagnose of each job.
func TestFlightParity(t *testing.T) {
	ens := ensemble(t)
	s := NewServer(ens, fastOpts())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	const jobs, copies = 8, 2
	want := make([]*DiagnosisResponse, jobs)
	for i := range want {
		d, err := ens.Diagnose(coalesceRecord(12+i), fastOpts())
		if err != nil {
			t.Fatal(err)
		}
		want[i] = buildResponse(d)
	}
	client := NewClient(srv.URL)
	got := make([]*DiagnosisResponse, jobs*copies)
	errs := make([]error, jobs*copies)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = client.Diagnose(coalesceRecord(12 + i%jobs))
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		assertParity(t, got[i], want[i%jobs], fmt.Sprintf("request %d (job %d)", i, i%jobs))
	}
}

// TestFlightDogpile: identical concurrent cold requests run exactly one
// ensemble pass, and that flight answers every one of them.
func TestFlightDogpile(t *testing.T) {
	// One request's model calls, measured on their own: the ensemble pass,
	// which a flight runs once for all its waiters, and the advisor's
	// counterfactual batch, which every request runs for itself.
	refEns, ref := countingEnsemble(t, true)
	diag, err := refEns.Diagnose(testRecord(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	perPass := ref.calls.Load()
	if perPass == 0 {
		t.Fatal("a diagnosis never called the counting model")
	}
	if _, err := tune.New(refEns).Advise(diag, 1.05); err != nil {
		t.Fatal(err)
	}
	perAdvise := ref.calls.Load() - perPass

	ens, cm := countingEnsemble(t, false)
	s := NewServer(ens, fastOpts())
	h := s.Handler()
	const clients = 16
	log := logBytes(t, testRecord())
	replies := make([]reply, clients)
	var wg sync.WaitGroup
	for i := range replies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			replies[i] = post(h, log)
		}()
	}
	// The flight is held at its first model call until every client has
	// joined it.
	awaitWaiting(t, &s.flights, clients)
	close(cm.gate)
	wg.Wait()
	for i, r := range replies {
		if r.status != http.StatusOK {
			t.Fatalf("client %d: HTTP %d: %s", i, r.status, r.body)
		}
		if got := r.header.Get("X-AIIO-Coalesced"); got != fmt.Sprint(clients) {
			t.Errorf("client %d: X-AIIO-Coalesced %q, want %d", i, got, clients)
		}
		if !bytes.Equal(r.body, replies[0].body) {
			t.Errorf("client %d: body differs from client 0's", i)
		}
	}
	if calls, want := cm.calls.Load(), perPass+clients*perAdvise; calls != want {
		t.Errorf("%d model calls for %d identical requests; want %d: one ensemble pass makes %d, each request's advisor %d",
			calls, clients, want, perPass, perAdvise)
	}
	if runs, answered := s.flights.stats(); runs != 1 || answered != clients {
		t.Errorf("flights: %d run, %d requests answered; want 1, %d", runs, answered, clients)
	}
}

// TestFlightImpatientWaiter: a waiter whose deadline passes leaves at once
// with its error, and the flight runs on to serve the others.
func TestFlightImpatientWaiter(t *testing.T) {
	var g flightGroup
	release := make(chan struct{})
	var flightErr atomic.Value
	run := func(ctx context.Context) flightResult {
		<-release
		flightErr.Store(fmt.Sprint(ctx.Err()))
		return flightResult{}
	}
	patient := make(chan flightResult, 1)
	go func() { patient <- g.do(context.Background(), "job", nil, run) }()
	awaitWaiting(t, &g, 1)

	impatient, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if res := g.do(impatient, "job", nil, run); !errors.Is(res.err, context.DeadlineExceeded) {
		t.Fatalf("impatient waiter got %v, want its deadline", res.err)
	}
	close(release)
	select {
	case res := <-patient:
		if res.err != nil || res.answered != 1 {
			t.Fatalf("patient waiter: err %v, answered %d; want nil, 1", res.err, res.answered)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the flight never served the patient waiter")
	}
	if got := flightErr.Load(); got != "<nil>" {
		t.Errorf("the flight's context ended (%v) while a waiter remained", got)
	}
	if runs, _ := g.stats(); runs != 1 {
		t.Errorf("%d flights for one key, want 1", runs)
	}
}

// TestFlightCancelledWhenLastWaiterLeaves: the flight's context survives
// its first waiter leaving and ends when the last one does; the next
// request for the key starts a new flight.
func TestFlightCancelledWhenLastWaiterLeaves(t *testing.T) {
	var g flightGroup
	cancelled := make(chan struct{})
	run := func(ctx context.Context) flightResult {
		<-ctx.Done()
		close(cancelled)
		return flightResult{err: ctx.Err()}
	}
	ctxA, cancelA := context.WithCancel(context.Background())
	ctxB, cancelB := context.WithCancel(context.Background())
	defer cancelB()
	done := make(chan flightResult, 2)
	go func() { done <- g.do(ctxA, "job", nil, run) }()
	awaitWaiting(t, &g, 1)
	go func() { done <- g.do(ctxB, "job", nil, run) }()
	awaitWaiting(t, &g, 2)

	cancelA()
	if res := <-done; !errors.Is(res.err, context.Canceled) {
		t.Fatalf("first waiter got %v, want its cancellation", res.err)
	}
	select {
	case <-cancelled:
		t.Fatal("the flight was cancelled while a waiter remained")
	case <-time.After(50 * time.Millisecond):
	}
	cancelB()
	<-done
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("the flight was not cancelled when its last waiter left")
	}

	if res := g.do(context.Background(), "job", nil, func(context.Context) flightResult {
		return flightResult{}
	}); res.err != nil {
		t.Fatalf("a request after the cancelled flight: %v", res.err)
	}
	if runs, _ := g.stats(); runs != 2 {
		t.Errorf("%d flights, want 2: a cancelled flight must not be joined", runs)
	}
}

// TestFlightVersionIsolation: a request after a model swap never joins a
// flight started under the previous model set, and is stamped with the
// new generation.
func TestFlightVersionIsolation(t *testing.T) {
	ens, cm := countingEnsemble(t, false)
	s := NewServer(ens, fastOpts())
	s.SetGeneration(&core.LoadReport{Generation: 1})
	h := s.Handler()
	log := logBytes(t, testRecord())

	old := make(chan reply, 1)
	go func() { old <- post(h, log) }()
	awaitWaiting(t, &s.flights, 1)
	if err := s.AdoptGeneration(ensemble(t), &core.LoadReport{Generation: 2}); err != nil {
		t.Fatal(err)
	}
	// The old flight is still held at its gate: a join would hang here.
	fresh := post(h, log)
	if fresh.status != http.StatusOK {
		t.Fatalf("request after the swap: HTTP %d: %s", fresh.status, fresh.body)
	}
	if g := fresh.header.Get("X-AIIO-Generation"); g != "2" {
		t.Errorf("request after the swap stamped generation %q, want 2", g)
	}
	close(cm.gate)
	if r := <-old; r.status != http.StatusOK || r.header.Get("X-AIIO-Generation") != "1" {
		t.Errorf("request before the swap: HTTP %d, generation %q; want 200, 1",
			r.status, r.header.Get("X-AIIO-Generation"))
	}
	if runs, _ := s.flights.stats(); runs != 2 {
		t.Errorf("%d flights across a swap, want 2", runs)
	}
}

// TestFlightBreakerOpenError: a flight refused because every breaker is
// open hands the typed error to each of its waiters.
func TestFlightBreakerOpenError(t *testing.T) {
	var g flightGroup
	release := make(chan struct{})
	run := func(context.Context) flightResult {
		<-release
		return flightResult{err: errAllBreakersOpen}
	}
	const waiters = 3
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() { errs <- g.do(context.Background(), "job", nil, run).err }()
	}
	awaitWaiting(t, &g, waiters)
	close(release)
	for i := 0; i < waiters; i++ {
		if err := <-errs; !errors.Is(err, errAllBreakersOpen) {
			t.Errorf("waiter got %v, want errAllBreakersOpen", err)
		}
	}
}

// datasetBytes is recs as one batch request body.
func datasetBytes(t testing.TB, recs ...*darshan.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := darshan.WriteDataset(&buf, &darshan.Dataset{Records: recs}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// postBatch sends body to POST /api/v1/diagnose/batch on h, in process.
func postBatch(h http.Handler, body []byte) reply {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/v1/diagnose/batch", bytes.NewReader(body)))
	return reply{status: w.Code, header: w.Header(), body: w.Body.Bytes()}
}

// postForm sends log as the HTML form's field to POST /diagnose on h, in
// process.
func postForm(h http.Handler, log []byte) reply {
	w := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/diagnose",
		strings.NewReader(url.Values{"log": {string(log)}}.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	h.ServeHTTP(w, req)
	return reply{status: w.Code, header: w.Header(), body: w.Body.Bytes()}
}

// TestBatchSharesFlights: a batch [a, a, a] and a concurrent single-job
// request for a run one ensemble pass between them.
func TestBatchSharesFlights(t *testing.T) {
	// One batch worker per element, so every element waits on the flight
	// at once.
	opts := fastOpts()
	opts.Parallelism = 3
	refEns, ref := countingEnsemble(t, true)
	diag, err := refEns.Diagnose(testRecord(), opts)
	if err != nil {
		t.Fatal(err)
	}
	perPass := ref.calls.Load()
	if _, err := tune.New(refEns).Advise(diag, 1.05); err != nil {
		t.Fatal(err)
	}
	perAdvise := ref.calls.Load() - perPass

	ens, cm := countingEnsemble(t, false)
	s := NewServer(ens, opts)
	h := s.Handler()
	rec := testRecord()
	batchBody, log := datasetBytes(t, rec, rec, rec), logBytes(t, rec)
	batch, single := make(chan reply, 1), make(chan reply, 1)
	go func() { batch <- postBatch(h, batchBody) }()
	go func() { single <- post(h, log) }()
	awaitWaiting(t, &s.flights, 4)
	close(cm.gate)

	if r := <-single; r.status != http.StatusOK {
		t.Fatalf("single request: HTTP %d: %s", r.status, r.body)
	}
	r := <-batch
	if r.status != http.StatusOK {
		t.Fatalf("batch: HTTP %d: %s", r.status, r.body)
	}
	var out []*DiagnosisResponse
	if err := json.Unmarshal(r.body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("batch returned %d responses, want 3", len(out))
	}
	for i, resp := range out {
		if resp.App != rec.App || !reflect.DeepEqual(resp, out[0]) {
			t.Errorf("batch element %d differs from element 0", i)
		}
	}
	var hits, misses int
	if _, err := fmt.Sscanf(r.header.Get("X-AIIO-Cache"), "hits=%d misses=%d", &hits, &misses); err != nil || hits+misses != 3 {
		t.Errorf("batch X-AIIO-Cache %q, want hits+misses = 3", r.header.Get("X-AIIO-Cache"))
	}
	if calls, want := cm.calls.Load(), perPass+perAdvise; calls != want {
		t.Errorf("%d model calls; want %d: one ensemble pass makes %d, the single request's advisor %d",
			calls, want, perPass, perAdvise)
	}
	if runs, answered := s.flights.stats(); runs != 1 || answered != 4 {
		t.Errorf("flights: %d run, %d requests answered; want 1, 4", runs, answered)
	}
}

// TestBatchElementMatchesSingleReply: element i of a batch reply is the
// single-job reply for job i without its advisor and lifecycle fields, with
// the cache on and off.
func TestBatchElementMatchesSingleReply(t *testing.T) {
	recs := make([]*darshan.Record, 4)
	for i := range recs {
		recs[i] = coalesceRecord(12 + i)
	}
	for _, size := range []int{0, -1} {
		s := NewServer(ensemble(t), fastOpts())
		s.CacheSize = size
		h := s.Handler()
		r := postBatch(h, datasetBytes(t, recs...))
		if r.status != http.StatusOK {
			t.Fatalf("cache size %d: batch: HTTP %d: %s", size, r.status, r.body)
		}
		var batch []*DiagnosisResponse
		if err := json.Unmarshal(r.body, &batch); err != nil {
			t.Fatal(err)
		}
		if len(batch) != len(recs) {
			t.Fatalf("cache size %d: batch returned %d responses, want %d", size, len(batch), len(recs))
		}
		for i, rec := range recs {
			single := post(h, logBytes(t, rec))
			if single.status != http.StatusOK {
				t.Fatalf("cache size %d: job %d: HTTP %d: %s", size, i, single.status, single.body)
			}
			var want DiagnosisResponse
			if err := json.Unmarshal(single.body, &want); err != nil {
				t.Fatal(err)
			}
			want.Recommendations, want.AdvisoryError, want.Advisories = nil, "", nil
			if !reflect.DeepEqual(batch[i], &want) {
				t.Errorf("cache size %d: batch element %d differs from the single reply:\n batch %+v\nsingle %+v",
					size, i, batch[i], &want)
			}
		}
	}
}

// TestHTMLFormHonoursBreakersAndCache: the form endpoint charges and
// respects the breakers and reads and fills the cache like the JSON ones.
func TestHTMLFormHonoursBreakersAndCache(t *testing.T) {
	log := logBytes(t, testRecord())
	t.Run("breakers", func(t *testing.T) {
		ens := ensemble(t)
		faulty := make([]*faults.FaultyModel, len(ens.Models))
		for i := range faulty {
			faulty[i] = &faults.FaultyModel{PanicOn: true}
			ens = faults.Break(ens, i, faulty[i])
		}
		calls := func() (n int64) {
			for _, m := range faulty {
				n += m.Calls()
			}
			return n
		}
		s := NewServer(ens, fastOpts())
		s.Breakers = breakerSet(1, time.Minute)
		h := s.Handler()
		if r := postForm(h, log); r.status != http.StatusInternalServerError {
			t.Fatalf("form post with every model failing: HTTP %d, want 500: %s", r.status, r.body)
		}
		before := calls()
		r := postForm(h, log)
		if r.status != http.StatusServiceUnavailable || r.header.Get("X-AIIO-Breaker") != "open" {
			t.Fatalf("form post with every breaker open: HTTP %d, X-AIIO-Breaker %q; want 503, open",
				r.status, r.header.Get("X-AIIO-Breaker"))
		}
		if n := calls() - before; n != 0 {
			t.Errorf("form post with every breaker open made %d model calls, want 0", n)
		}
	})
	t.Run("cache", func(t *testing.T) {
		h := NewServer(ensemble(t), fastOpts()).Handler()
		if r := postForm(h, log); r.status != http.StatusOK {
			t.Fatalf("form post: HTTP %d: %s", r.status, r.body)
		}
		before, _ := cacheStats(t, h)
		if r := postForm(h, log); r.status != http.StatusOK {
			t.Fatalf("repeat form post: HTTP %d: %s", r.status, r.body)
		}
		if after, _ := cacheStats(t, h); after != before+1 {
			t.Errorf("repeat form post moved cache.hits %d → %d, want one hit", before, after)
		}
	})
}

// TestBatchChargesBreakersPerDiagnosis: a batch charges a failing model's
// breaker once per job it diagnoses, as the same jobs sent one by one would.
func TestBatchChargesBreakersPerDiagnosis(t *testing.T) {
	ens := faults.Break(ensemble(t), 0, &faults.FaultyModel{PanicOn: true})
	s := NewServer(ens, fastOpts())
	set := breakerSet(2, time.Minute)
	s.Breakers = set
	r := postBatch(s.Handler(), datasetBytes(t, coalesceRecord(12), coalesceRecord(13)))
	if r.status != http.StatusOK {
		t.Fatalf("batch: HTTP %d: %s", r.status, r.body)
	}
	if st := set.For(ens.Models[0].Name()).State(); st != admission.StateOpen {
		t.Errorf("failing model's breaker = %v after a batch of two diagnoses at threshold 2, want open", st)
	}
	if st := set.For(ens.Models[1].Name()).State(); st != admission.StateClosed {
		t.Errorf("healthy model's breaker = %v, want closed", st)
	}
}
