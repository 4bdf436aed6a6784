package admission

import (
	"sync"
	"time"
)

// Circuit breakers guard the individual performance functions. A model
// that keeps panicking or timing out (a corrupt upload, a pathological
// SHAP interaction) already degrades a single diagnosis via the PR 2
// degraded-ensemble path; the breaker extends that to *traffic*: after
// Threshold consecutive failures the model is taken out of rotation
// entirely (open), so subsequent requests don't pay its latency or risk,
// and after Cooldown a single half-open probe decides whether it
// rejoins. State machine:
//
//	          Threshold consecutive failures
//	 closed ────────────────────────────────▶ open
//	   ▲                                       │ Cooldown elapsed
//	   │ probe succeeds                        ▼
//	   └──────────────────────────────────  half-open ──▶ open (probe fails)
//
// Everything takes an injectable clock so the tests never sleep.

// Breaker states.
type BreakerState int

const (
	StateClosed BreakerState = iota
	StateOpen
	StateHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateOpen:
		return "open"
	case StateHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// Breaker defaults.
const (
	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = 30 * time.Second
)

// BreakerConfig tunes one circuit breaker.
type BreakerConfig struct {
	// Threshold is the consecutive-failure count that opens the breaker
	// (DefaultBreakerThreshold when <= 0).
	Threshold int
	// Cooldown is how long the breaker stays open before admitting a
	// half-open probe (DefaultBreakerCooldown when <= 0).
	Cooldown time.Duration

	// now is the clock, time.Now unless a test of this package sets it.
	now func() time.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Threshold <= 0 {
		c.Threshold = DefaultBreakerThreshold
	}
	if c.Cooldown <= 0 {
		c.Cooldown = DefaultBreakerCooldown
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Breaker is one model's circuit breaker. The zero value is not usable;
// build with NewBreaker.
type Breaker struct {
	cfg BreakerConfig

	mu          sync.Mutex
	state       BreakerState
	consecFails int
	openedAt    time.Time
	probing     bool // a half-open probe is in flight
}

// NewBreaker builds a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// Allow reports whether the protected model may be used right now. In
// the open state it flips to half-open once the cooldown has elapsed and
// admits exactly one probe; concurrent callers see false until that
// probe reports Success or Failure.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateClosed:
		return true
	case StateOpen:
		if b.cfg.now().Sub(b.openedAt) < b.cfg.Cooldown {
			return false
		}
		b.state = StateHalfOpen
		b.probing = true
		return true
	case StateHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
	return false
}

// Success records a successful use: the breaker closes and the failure
// streak resets.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = StateClosed
	b.consecFails = 0
	b.probing = false
}

// Failure records a failed use (panic, NaN, timeout). A half-open probe
// failure reopens immediately; in the closed state the breaker opens
// once the consecutive-failure streak reaches the threshold.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecFails++
	if b.state == StateHalfOpen || b.consecFails >= b.cfg.Threshold {
		b.state = StateOpen
		b.openedAt = b.cfg.now()
		b.probing = false
	}
}

// State reports the current state without mutating it (unlike Allow, an
// elapsed cooldown does not flip open to half-open here).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Open reports whether the breaker is open AND still inside its
// cooldown — i.e. a request arriving now would certainly be refused.
// Used by readiness: an open breaker whose cooldown elapsed would admit
// a probe, so it does not count against readiness.
func (b *Breaker) Open() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == StateOpen && b.cfg.now().Sub(b.openedAt) < b.cfg.Cooldown
}

// BreakerSet holds one breaker per model name, built lazily from a
// shared config.
type BreakerSet struct {
	cfg BreakerConfig

	mu       sync.Mutex
	breakers map[string]*Breaker
}

// NewBreakerSet builds an empty set whose breakers use cfg.
func NewBreakerSet(cfg BreakerConfig) *BreakerSet {
	return &BreakerSet{cfg: cfg.withDefaults(), breakers: make(map[string]*Breaker)}
}

// For returns (building if needed) the breaker for model name.
func (s *BreakerSet) For(name string) *Breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.breakers[name]
	if !ok {
		b = NewBreaker(s.cfg)
		s.breakers[name] = b
	}
	return b
}

// AllOpen reports whether every one of the given models is currently
// hard-refused (Open). A model no request has touched yet has no breaker
// and counts as closed; nothing is built. False for an empty name list.
func (s *BreakerSet) AllOpen(names []string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, n := range names {
		if b := s.breakers[n]; b == nil || !b.Open() {
			return false
		}
	}
	return len(names) > 0
}

// States snapshots the state of each named model's breaker (for /readyz,
// /healthz and logs); an untouched model reads "closed" and gets no
// breaker built.
func (s *BreakerSet) States(names []string) map[string]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]string, len(names))
	for _, n := range names {
		out[n] = StateClosed.String()
		if b := s.breakers[n]; b != nil {
			out[n] = b.State().String()
		}
	}
	return out
}
