package webservice

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpc-repro/aiio/internal/core"
	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/iosim"
	"github.com/hpc-repro/aiio/internal/linalg"
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

// countingModel counts PredictBatch calls (Kernel SHAP's only use of the
// model) and holds every call until gate is closed.
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
	// One pass's worth of model calls, measured on its own.
	refEns, ref := countingEnsemble(t, true)
	if _, err := refEns.Diagnose(testRecord(), fastOpts()); err != nil {
		t.Fatal(err)
	}
	perPass := ref.calls.Load()
	if perPass == 0 {
		t.Fatal("a diagnosis never called the counting model")
	}

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
	if calls := cm.calls.Load(); calls != perPass {
		t.Errorf("%d model calls for %d identical requests; one ensemble pass makes %d", calls, clients, perPass)
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
