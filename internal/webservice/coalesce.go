package webservice

import (
	"context"
	"errors"
	"sync"
	"time"

	"github.com/hpc-repro/aiio/internal/core"
	"github.com/hpc-repro/aiio/internal/darshan"
)

// Request micro-batch coalescing: single-job diagnose requests that arrive
// within a small window are fused into one DiagnoseBatch call behind the
// admission funnel, and the per-job results are demultiplexed back to their
// callers. Two effects stack:
//
//   - N distinct jobs in a window become one sharded ensemble pass instead
//     of N independent passes — one snapshot, one breaker partition, one
//     outcome accounting, and the batch engine's row-paired kernels.
//   - Duplicate jobs in a window (the dogpile: many clients diagnosing the
//     same cold job before any of them has filled the cache) collapse to a
//     single diagnosis fanned out to every waiter. Uncoalesced, each
//     admitted duplicate pays a full ensemble pass; coalesced, exactly one
//     does.
//
// Each waiter keeps its own context: a caller whose deadline expires while
// the fused batch is still running gets its structured 503 immediately,
// while the batch runs on for the survivors. The batch itself is bounded by
// the latest deadline among its waiters, so a fused pass can never outlive
// every caller that wanted it. Because the diagnosis engine is
// deterministic and seeds its explainers independently of batch position,
// a coalesced result is numerically identical (≤1e-9, the same bound the
// core parity suite enforces) to the uncoalesced one.

// DefaultCoalesceWindow is how long the first waiter of a batch holds the
// batch open for followers. ~2ms is far below a single ensemble pass
// (milliseconds to seconds) but wide enough to fuse a concurrent flood.
const DefaultCoalesceWindow = 2 * time.Millisecond

// DefaultCoalesceMax caps a fused batch; a full batch dispatches
// immediately instead of waiting out the window.
const DefaultCoalesceMax = 32

// errAllBreakersOpen tells a coalesced waiter's handler to answer with the
// structured breaker-open 503 (writeBreakerOpen), exactly like the
// uncoalesced path.
var errAllBreakersOpen = errors.New("webservice: every model's circuit breaker is open")

// coalescedResult is what one waiter receives from its fused batch.
type coalescedResult struct {
	diag *core.Diagnosis
	// allowed is the breaker-filtered ensemble the batch ran on; the
	// handler advises against it so recommendations match the uncoalesced
	// path.
	allowed *core.Ensemble
	// open names breaker-open models skipped by the whole batch.
	open []string
	// batched is how many requests the fused pass served (1 = no fusion);
	// fromCache marks a result resolved from the LRU at flush time (a
	// previous batch filled it between this waiter's handler-level cache
	// check and the flush).
	batched   int
	fromCache bool
	err       error
}

// coalesceWaiter is one parked single-job request.
type coalesceWaiter struct {
	rec *darshan.Record
	ctx context.Context
	// ch is buffered: the dispatcher never blocks on a waiter that gave up.
	ch chan coalescedResult
}

// coalescer fuses single-job diagnose requests into micro-batches.
type coalescer struct {
	window time.Duration
	max    int
	// run executes one fused batch over deduplicated records; it is
	// Server.runCoalesced bound at construction.
	run func(ctx context.Context, recs []*darshan.Record) ([]*coalescedResult, error)

	mu      sync.Mutex
	pending []*coalesceWaiter
	timer   *time.Timer

	// batches/fused count dispatched batches and the requests they served,
	// for /healthz observability.
	batches uint64
	fused   uint64
}

func newCoalescer(window time.Duration, max int,
	run func(ctx context.Context, recs []*darshan.Record) ([]*coalescedResult, error)) *coalescer {
	if max <= 0 {
		max = DefaultCoalesceMax
	}
	return &coalescer{window: window, max: max, run: run}
}

// submit parks the request until its batch flushes and returns its share of
// the fused result. A ctx expiry while parked or while the batch runs
// returns ctx's error; the batch itself is unaffected.
func (c *coalescer) submit(ctx context.Context, rec *darshan.Record) (coalescedResult, error) {
	w := &coalesceWaiter{rec: rec, ctx: ctx, ch: make(chan coalescedResult, 1)}
	c.mu.Lock()
	c.pending = append(c.pending, w)
	if len(c.pending) >= c.max {
		// A full batch dispatches now; the window only bounds how long a
		// partial batch waits for followers.
		batch := c.takeLocked()
		c.mu.Unlock()
		go c.dispatch(batch)
	} else {
		if len(c.pending) == 1 {
			c.timer = time.AfterFunc(c.window, c.flush)
		}
		c.mu.Unlock()
	}
	select {
	case res := <-w.ch:
		return res, res.err
	case <-ctx.Done():
		return coalescedResult{}, ctx.Err()
	}
}

// flush is the window timer's callback: dispatch whatever accumulated.
func (c *coalescer) flush() {
	c.mu.Lock()
	batch := c.takeLocked()
	c.mu.Unlock()
	if len(batch) > 0 {
		c.dispatch(batch)
	}
}

// takeLocked detaches the pending batch and disarms the timer. Callers hold
// c.mu.
func (c *coalescer) takeLocked() []*coalesceWaiter {
	batch := c.pending
	c.pending = nil
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
	return batch
}

// stats reports dispatched batches and the requests they served.
func (c *coalescer) stats() (batches, fused uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.batches, c.fused
}

// dispatch runs one fused batch: duplicate jobs are collapsed to one
// record, the batch executes once, and every waiter — including each
// duplicate — receives its job's result.
func (c *coalescer) dispatch(batch []*coalesceWaiter) {
	c.mu.Lock()
	c.batches++
	c.fused += uint64(len(batch))
	c.mu.Unlock()
	// Collapse duplicates: waiters are grouped by exact job identity (the
	// same full-bits key the diagnosis cache uses, minus the model-set
	// version), so the fused pass diagnoses each distinct job once.
	groupOf := make([]int, len(batch))
	index := make(map[string]int, len(batch))
	var recs []*darshan.Record
	for i, w := range batch {
		key := cacheKey(0, w.rec)
		g, ok := index[key]
		if !ok {
			g = len(recs)
			index[key] = g
			recs = append(recs, w.rec)
		}
		groupOf[i] = g
	}
	ctx, cancel := batchContext(batch)
	results, err := c.run(ctx, recs)
	cancel()
	for i, w := range batch {
		if err != nil {
			w.ch <- coalescedResult{err: err, batched: len(batch)}
			continue
		}
		res := *results[groupOf[i]]
		res.batched = len(batch)
		w.ch <- res
	}
}

// batchContext bounds the fused pass by the latest deadline among its
// waiters: the batch must be allowed to outlive any single impatient
// caller (the others still want the result), but never every caller.
func batchContext(batch []*coalesceWaiter) (context.Context, context.CancelFunc) {
	var latest time.Time
	for _, w := range batch {
		d, ok := w.ctx.Deadline()
		if !ok {
			// One unbounded waiter means the batch is unbounded too.
			return context.Background(), func() {}
		}
		if d.After(latest) {
			latest = d
		}
	}
	return context.WithDeadline(context.Background(), latest)
}

// coalescerIfEnabled returns the server's coalescer, built at first use
// when CoalesceWindow > 0.
func (s *Server) coalescerIfEnabled() *coalescer {
	s.coalesceOnce.Do(func() {
		if s.CoalesceWindow > 0 {
			s.coal = newCoalescer(s.CoalesceWindow, s.CoalesceMax, s.runCoalesced)
		}
	})
	return s.coal
}

// runCoalesced executes one fused batch the same way handleDiagnoseBatch
// serves a multi-record body: snapshot, flush-time cache resolution,
// breaker partition, one DiagnoseBatch over the misses, outcome
// accounting, cache fills. recs are already deduplicated.
func (s *Server) runCoalesced(ctx context.Context, recs []*darshan.Record) ([]*coalescedResult, error) {
	ens, opts, version := s.snapshot()
	cache := s.diagnosisCache()
	results := make([]*coalescedResult, len(recs))
	keys := make([]string, len(recs))
	var missIdx []int
	for i, rec := range recs {
		if cache != nil {
			keys[i] = cacheKey(version, rec)
			// Flush-time resolution: a batch dispatched a window ago may
			// have filled this key after the waiter's handler-level miss.
			// That miss already counted the request on /healthz, so this
			// lookup must not count it again.
			if d, ok := cache.peek(keys[i]); ok {
				results[i] = &coalescedResult{diag: d, fromCache: true}
				continue
			}
		}
		missIdx = append(missIdx, i)
	}
	if len(missIdx) > 0 {
		allowed, open := s.applyBreakers(ens)
		if len(allowed.Models) == 0 {
			return nil, errAllBreakersOpen
		}
		missRecs := make([]*darshan.Record, len(missIdx))
		for k, i := range missIdx {
			missRecs[k] = recs[i]
		}
		fresh, err := allowed.DiagnoseBatchContext(ctx, missRecs, opts)
		if err != nil {
			if ctx.Err() == nil {
				s.recordAllFailures(allowed)
			}
			return nil, err
		}
		s.recordOutcomes(allowed, fresh...)
		for k, i := range missIdx {
			results[i] = &coalescedResult{diag: fresh[k], allowed: allowed, open: open}
			// Partial (breaker-degraded) results stay out of the cache,
			// like every other diagnosis path.
			if cache != nil && len(open) == 0 {
				cache.put(keys[i], fresh[k])
			}
		}
	}
	return results, nil
}
