package webservice

import (
	"context"
	"errors"
	"sync"
	"time"

	"github.com/hpc-repro/aiio/internal/core"
	"github.com/hpc-repro/aiio/internal/darshan"
)

// The diagnose stage: every diagnose endpoint — single-job, batch and the
// HTML form — resolves each job through diagnoseJob, which runs the counted
// keyed cache lookup and, on a miss, a single-flight cold miss. A flight is
// keyed by cacheKey(version, rec), and every identical miss that arrives
// while it runs joins it instead of paying its own ensemble pass. A dogpile
// of N requests for the same cold job costs one pass, whichever endpoints
// they came through; a lone miss starts at once, without waiting for company.
//
//   - The key carries the model-set version, so a request under a newer
//     model set never joins a flight started under an older one.
//   - Before starting a flight the group peeks at the cache (without
//     counting a hit or miss: the stage's lookup already counted the job)
//     under its own lock. A flight fills the cache before it leaves the
//     group, so a miss racing a just-finished flight finds its result.
//   - A flight runs detached from any one caller, under a context that is
//     cancelled only when its last waiter has left. A waiter whose own
//     context dies leaves at once; the flight runs on for the others.
//   - Breakers are charged once per computed diagnosis, inside the flight:
//     a job answered from the cache or by joining a flight charges nothing.
//
// Distinct jobs are not fused: a batch of two costs the same CPU as two
// single diagnoses, so fusing them saved no work and cost each one a wait.

// DefaultCoalesceWindow is ignored.
//
// Deprecated: ignored since single-flight replaced the window; kept only so
// cmd/aiio-bench compiles until a [benchmark] PR drops it.
const DefaultCoalesceWindow time.Duration = 0

// errAllBreakersOpen tells a flight's waiters to answer with the structured
// breaker-open 503 (writeBreakerOpen).
var errAllBreakersOpen = errors.New("webservice: every model's circuit breaker is open")

// flightResult is what every waiter of one flight receives, and what the
// diagnose stage returns for one job.
type flightResult struct {
	diag *core.Diagnosis
	// allowed is the breaker-filtered ensemble the flight ran on; the
	// single-job handler advises against it.
	allowed *core.Ensemble
	// open names the breaker-open models the flight skipped.
	open []string
	err  error
	// answered is how many requests the flight answered. fromCache marks a
	// job answered from the cache instead: by the stage's keyed lookup, or
	// by an entry a flight filled after that lookup missed. rendered is the
	// entry's frozen response, when the keyed lookup found one.
	answered  int
	fromCache bool
	rendered  []byte
}

// flight is one in-progress diagnosis and the requests waiting on it.
type flight struct {
	done   chan struct{}
	cancel context.CancelFunc
	// refs counts the waiters still waiting; finished is set, and res
	// published, once the run returns. All three are guarded by the
	// group's mu.
	refs     int
	finished bool
	res      flightResult
}

// flightGroup deduplicates concurrent cold misses. The zero value is ready.
type flightGroup struct {
	mu      sync.Mutex
	flights map[string]*flight
	// runs/answered count flights started and the requests they answered,
	// for /healthz.
	runs, answered uint64
}

// do returns key's diagnosis: from cache when a finished flight already
// filled it, by joining the flight running for key, or by starting one that
// calls run. run fills the cache itself, before the flight leaves the group.
// When ctx dies first, do returns at once with ctx's error.
func (g *flightGroup) do(ctx context.Context, key string, cache *diagCache,
	run func(ctx context.Context) flightResult) flightResult {
	g.mu.Lock()
	f, ok := g.flights[key]
	if !ok {
		if cache != nil {
			if d, hit := cache.peek(key); hit {
				g.mu.Unlock()
				return flightResult{diag: d, fromCache: true}
			}
		}
		if g.flights == nil {
			g.flights = make(map[string]*flight)
		}
		fctx, cancel := context.WithCancel(context.Background())
		f = &flight{done: make(chan struct{}), cancel: cancel}
		g.flights[key] = f
		g.runs++
		go g.run(fctx, key, f, run)
	}
	f.refs++
	g.mu.Unlock()

	select {
	case <-f.done:
		return f.res
	case <-ctx.Done():
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if f.finished {
		// The flight finished as this waiter gave up; it was counted as
		// answered, so it takes the answer.
		return f.res
	}
	f.refs--
	if f.refs == 0 {
		// The last waiter left: nobody wants the result any more. The
		// flight leaves the group now, so a later miss starts afresh.
		delete(g.flights, key)
		f.cancel()
	}
	return flightResult{err: ctx.Err()}
}

// run executes one flight and hands its result to every remaining waiter.
func (g *flightGroup) run(ctx context.Context, key string, f *flight,
	run func(ctx context.Context) flightResult) {
	res := run(ctx)
	g.mu.Lock()
	// A flight its last waiter cancelled has already left the group, and a
	// newer flight may hold the key.
	if g.flights[key] == f {
		delete(g.flights, key)
	}
	res.answered = f.refs
	g.answered += uint64(f.refs)
	f.res = res
	f.finished = true
	g.mu.Unlock()
	f.cancel()
	close(f.done)
}

// stats reports flights run and the requests they answered.
func (g *flightGroup) stats() (runs, answered uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.runs, g.answered
}

// diagnoseJob is the diagnose stage: it answers one job against the model
// set snapshot (ens, opts, version), with opts.Parallelism as the job's own
// worker budget, and returns the job's cache key with the answer. The keyed
// lookup counts the job's one hit or miss. A miss joins or starts the job's
// flight, which partitions the ensemble by breaker, runs one ensemble pass
// over the allowed models, charges the breakers and caches a full-ensemble
// result.
func (s *Server) diagnoseJob(ctx context.Context, ens *core.Ensemble, opts core.DiagnoseOptions,
	version uint64, rec *darshan.Record) (string, flightResult) {
	key := cacheKey(version, rec)
	cache := s.diagnosisCache()
	if cache != nil {
		if d, rendered, ok := cache.lookup(key); ok {
			return key, flightResult{diag: d, fromCache: true, rendered: rendered}
		}
	}
	return key, s.flights.do(ctx, key, cache, func(ctx context.Context) flightResult {
		allowed, open := s.applyBreakers(ens)
		if len(allowed.Models) == 0 {
			return flightResult{err: errAllBreakersOpen}
		}
		diag, err := allowed.DiagnoseContext(ctx, rec, opts)
		if err != nil && ctx.Err() != nil {
			// Per-model blame is meaningless for a cancelled pass.
			return flightResult{err: err}
		}
		s.chargeBreakers(allowed, diag)
		if err != nil {
			return flightResult{err: err}
		}
		// A result computed with breaker-open models excluded is partial:
		// caching it would keep serving the degraded answer after the
		// breakers close, so only full-ensemble results are cached.
		if cache != nil && len(open) == 0 {
			cache.put(key, diag)
		}
		return flightResult{diag: diag, allowed: allowed, open: open}
	})
}
