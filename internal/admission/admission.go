// Package admission is the web service's overload-protection layer: a
// bounded admission queue with per-endpoint concurrency limits and
// deadline-aware load shedding, plus per-model circuit breakers
// (breaker.go). The production deployments AIIO targets (HPDC '23 §5 —
// a diagnosis service running continuously against a Darshan log stream)
// must answer traffic spikes by shedding excess load with a structured
// 429 and a Retry-After hint, never by queueing unboundedly until the
// process OOMs or the listener stalls.
//
// The design is the classic bounded two-stage funnel:
//
//	request ──▶ [ queue ≤ QueueDepth ] ──▶ [ inflight ≤ MaxInflight ] ──▶ work
//	                  │ full                      ▲ slot freed
//	                  ▼                           │
//	            shed (429)                    release()
//
// Acquire never blocks when the queue is full — the caller gets
// ErrQueueFull immediately and turns it into a 429 — and a queued
// request whose context deadline fires while waiting is shed with
// ErrDeadline instead of occupying a slot it can no longer use.
package admission

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Shed reasons. Callers map these onto HTTP statuses: ErrQueueFull and
// ErrDeadline become 429 + Retry-After, ErrDraining becomes 503.
var (
	// ErrQueueFull is returned when both every inflight slot and every
	// queue slot are taken: the server is saturated and the request is
	// shed immediately, without blocking.
	ErrQueueFull = errors.New("admission: queue full")
	// ErrDeadline is returned when the request's deadline expired (or its
	// client vanished) while it waited in the queue, or would expire
	// before it could plausibly be served.
	ErrDeadline = errors.New("admission: deadline expired while queued")
	// ErrDraining is returned once BeginDrain has been called: the server
	// is shutting down and admits no new work.
	ErrDraining = errors.New("admission: draining")
)

// Config bounds one endpoint's admission.
type Config struct {
	// MaxInflight is the number of requests allowed to execute
	// concurrently. Zero or negative falls back to DefaultMaxInflight.
	MaxInflight int
	// QueueDepth is how many requests may wait for an inflight slot.
	// Zero falls back to DefaultQueueDepth; negative means no queue
	// (shed the instant all slots are busy).
	QueueDepth int
	// RetryAfter is the hint handed to shed clients. Zero falls back to
	// DefaultRetryAfter.
	RetryAfter time.Duration
}

// Defaults for Config's zero values.
const (
	DefaultMaxInflight = 16
	DefaultQueueDepth  = 64
	DefaultRetryAfter  = time.Second
)

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = DefaultMaxInflight
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	// Negative stays negative ("no queue") so normalizing twice — the
	// Controller normalizes its defaults, NewLimiter normalizes again —
	// cannot resurrect the default depth. Acquire's waiting >= QueueDepth
	// check sheds unconditionally for any depth <= 0.
	if c.RetryAfter <= 0 {
		c.RetryAfter = DefaultRetryAfter
	}
	return c
}

// Limiter is the bounded admission gate for one endpoint.
type Limiter struct {
	cfg Config
	sem chan struct{}

	mu      sync.Mutex
	waiting int

	draining atomic.Bool
	admitted atomic.Uint64
	shed     atomic.Uint64
}

// NewLimiter builds a limiter from cfg (zero fields take the package
// defaults).
func NewLimiter(cfg Config) *Limiter {
	cfg = cfg.withDefaults()
	return &Limiter{cfg: cfg, sem: make(chan struct{}, cfg.MaxInflight)}
}

// RetryAfter is the backoff hint for shed requests.
func (l *Limiter) RetryAfter() time.Duration { return l.cfg.RetryAfter }

// Acquire admits the request or sheds it. On success the returned
// release function MUST be called exactly once when the work finishes.
// Acquire never blocks past ctx's deadline and never blocks at all when
// the queue is full.
func (l *Limiter) Acquire(ctx context.Context) (release func(), err error) {
	if l.draining.Load() {
		l.shed.Add(1)
		return nil, ErrDraining
	}
	// Fast path: a free inflight slot, no queueing.
	select {
	case l.sem <- struct{}{}:
		l.admitted.Add(1)
		return l.releaseFunc(), nil
	default:
	}
	// Deadline-aware shedding: a request that is already dead (or will
	// be before the earliest plausible slot) is refused outright rather
	// than parked in the queue.
	if err := ctx.Err(); err != nil {
		l.shed.Add(1)
		return nil, fmt.Errorf("%w: %v", ErrDeadline, err)
	}
	// Queue, bounded.
	l.mu.Lock()
	if l.waiting >= l.cfg.QueueDepth {
		l.mu.Unlock()
		l.shed.Add(1)
		return nil, ErrQueueFull
	}
	l.waiting++
	l.mu.Unlock()
	defer func() {
		l.mu.Lock()
		l.waiting--
		l.mu.Unlock()
	}()
	select {
	case l.sem <- struct{}{}:
		if l.draining.Load() {
			<-l.sem
			l.shed.Add(1)
			return nil, ErrDraining
		}
		l.admitted.Add(1)
		return l.releaseFunc(), nil
	case <-ctx.Done():
		l.shed.Add(1)
		return nil, fmt.Errorf("%w: %v", ErrDeadline, ctx.Err())
	}
}

func (l *Limiter) releaseFunc() func() {
	var once sync.Once
	return func() { once.Do(func() { <-l.sem }) }
}

// Inflight is the number of currently executing requests.
func (l *Limiter) Inflight() int { return len(l.sem) }

// Queued is the number of requests waiting for a slot.
func (l *Limiter) Queued() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.waiting
}

// Stats reports lifetime admitted and shed counts.
func (l *Limiter) Stats() (admitted, shed uint64) {
	return l.admitted.Load(), l.shed.Load()
}

// BeginDrain stops admitting new work; in-flight requests finish.
func (l *Limiter) BeginDrain() { l.draining.Store(true) }

// Drain begins the drain (idempotently) and blocks until every inflight
// request has released its slot or ctx expires, returning ctx's error in
// the latter case.
func (l *Limiter) Drain(ctx context.Context) error {
	l.BeginDrain()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if l.Inflight() == 0 {
			return nil
		}
		select {
		case <-tick.C:
		case <-ctx.Done():
			return fmt.Errorf("admission: drain incomplete with %d inflight: %w", l.Inflight(), ctx.Err())
		}
	}
}

// Controller groups one Limiter per endpoint so each route gets its own
// concurrency budget (a batch-diagnosis flood must not starve the
// single-job endpoint). Limiters are created lazily from the default
// config; SetConfig installs a per-endpoint override.
type Controller struct {
	defaults Config

	mu        sync.Mutex
	limiters  map[string]*Limiter
	overrides map[string]Config
	// drainBegun makes limiters built after BeginDrain start out
	// draining, so a drain covers endpoints that appear mid-shutdown.
	drainBegun bool
}

// NewController builds a controller whose limiters default to cfg.
func NewController(cfg Config) *Controller {
	return &Controller{
		defaults:  cfg.withDefaults(),
		limiters:  make(map[string]*Limiter),
		overrides: make(map[string]Config),
	}
}

// SetConfig overrides the config for one endpoint. It must be called
// before the endpoint's first Acquire; a later call is ignored in favor
// of the already-built limiter.
func (c *Controller) SetConfig(endpoint string, cfg Config) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, built := c.limiters[endpoint]; !built {
		c.overrides[endpoint] = cfg
	}
}

// Limiter returns (building if needed) the limiter for endpoint.
func (c *Controller) Limiter(endpoint string) *Limiter {
	c.mu.Lock()
	defer c.mu.Unlock()
	l, ok := c.limiters[endpoint]
	if !ok {
		cfg := c.defaults
		if o, ok := c.overrides[endpoint]; ok {
			cfg = o
		}
		l = NewLimiter(cfg)
		if c.drainBegun {
			l.BeginDrain()
		}
		c.limiters[endpoint] = l
	}
	return l
}

// BeginDrain stops every endpoint (present and future) from admitting
// new work.
func (c *Controller) BeginDrain() {
	c.mu.Lock()
	c.drainBegun = true
	ls := make([]*Limiter, 0, len(c.limiters))
	for _, l := range c.limiters {
		ls = append(ls, l)
	}
	c.mu.Unlock()
	for _, l := range ls {
		l.BeginDrain()
	}
}

// Draining reports whether BeginDrain has been called.
func (c *Controller) Draining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.drainBegun
}

// Drain begins the drain everywhere and waits for all inflight work (or
// ctx). New endpoints created during the drain start out draining, so
// the inflight set can only shrink.
func (c *Controller) Drain(ctx context.Context) error {
	c.BeginDrain()
	c.mu.Lock()
	ls := make([]*Limiter, 0, len(c.limiters))
	for _, l := range c.limiters {
		ls = append(ls, l)
	}
	c.mu.Unlock()
	for _, l := range ls {
		if err := l.Drain(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Stats aggregates admitted/shed/inflight/queued over every endpoint.
func (c *Controller) Stats() map[string]EndpointStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]EndpointStats, len(c.limiters))
	for name, l := range c.limiters {
		adm, shed := l.Stats()
		out[name] = EndpointStats{
			Admitted: adm, Shed: shed,
			Inflight: l.Inflight(), Queued: l.Queued(),
		}
	}
	return out
}

// EndpointStats is one endpoint's admission counters.
type EndpointStats struct {
	Admitted uint64 `json:"admitted"`
	Shed     uint64 `json:"shed"`
	Inflight int    `json:"inflight"`
	Queued   int    `json:"queued"`
}
