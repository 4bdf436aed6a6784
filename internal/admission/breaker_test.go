package admission

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock so breaker tests never sleep.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2023, 6, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func testBreaker(threshold int, cooldown time.Duration) (*Breaker, *fakeClock) {
	clk := newFakeClock()
	return NewBreaker(BreakerConfig{Threshold: threshold, Cooldown: cooldown, now: clk.now}), clk
}

func TestBreakerOpensAfterConsecutiveFailures(t *testing.T) {
	b, _ := testBreaker(3, time.Minute)
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker refused use at failure %d", i)
		}
		b.Failure()
	}
	if b.State() != StateClosed {
		t.Fatalf("state after 2/3 failures = %v, want closed", b.State())
	}
	b.Failure()
	if b.State() != StateOpen {
		t.Fatalf("state after 3/3 failures = %v, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker inside cooldown allowed use")
	}
	if !b.Open() {
		t.Fatal("Open() false for a breaker inside its cooldown")
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	b, _ := testBreaker(3, time.Minute)
	b.Failure()
	b.Failure()
	b.Success()
	b.Failure()
	b.Failure()
	if b.State() != StateClosed {
		t.Fatalf("state = %v, want closed (success must reset the streak)", b.State())
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	b, clk := testBreaker(1, time.Minute)
	b.Failure()
	if b.Allow() {
		t.Fatal("open breaker allowed use before cooldown")
	}
	clk.advance(time.Minute)
	if b.Open() {
		t.Fatal("Open() true after cooldown elapsed (readiness would stay red forever)")
	}
	// Exactly one probe is admitted.
	if !b.Allow() {
		t.Fatal("breaker refused the half-open probe after cooldown")
	}
	if b.State() != StateHalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	if b.Allow() {
		t.Fatal("second caller admitted while the probe is in flight")
	}
	// Probe succeeds: closed again.
	b.Success()
	if b.State() != StateClosed || !b.Allow() {
		t.Fatalf("state after successful probe = %v, want closed+allowing", b.State())
	}
}

func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	b, clk := testBreaker(2, time.Minute)
	b.Failure()
	b.Failure()
	clk.advance(time.Minute)
	if !b.Allow() {
		t.Fatal("probe refused")
	}
	b.Failure() // one probe failure reopens, no threshold needed
	if b.State() != StateOpen {
		t.Fatalf("state after failed probe = %v, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("reopened breaker allowed use before a fresh cooldown")
	}
	// And the cooldown restarted from the probe failure.
	clk.advance(time.Minute)
	if !b.Allow() {
		t.Fatal("probe refused after the fresh cooldown")
	}
}

func TestBreakerSetAllOpenAndStates(t *testing.T) {
	clk := newFakeClock()
	s := NewBreakerSet(BreakerConfig{Threshold: 1, Cooldown: time.Minute, now: clk.now})
	if s.AllOpen([]string{"m1", "m2"}) {
		t.Fatal("AllOpen true for fresh (closed) breakers")
	}
	s.For("m1").Failure()
	if s.AllOpen([]string{"m1", "m2"}) {
		t.Fatal("AllOpen true with one breaker still closed")
	}
	s.For("m2").Failure()
	if !s.AllOpen([]string{"m1", "m2"}) {
		t.Fatal("AllOpen false with every breaker open")
	}
	if s.AllOpen(nil) {
		t.Fatal("AllOpen true for an empty model list")
	}
	states := s.States([]string{"m1", "m2"})
	if states["m1"] != "open" || states["m2"] != "open" {
		t.Fatalf("states = %v, want both open", states)
	}
	// After the cooldown, probes become possible and readiness recovers.
	clk.advance(time.Minute)
	if s.AllOpen([]string{"m1", "m2"}) {
		t.Fatal("AllOpen true after cooldown elapsed")
	}
}

func TestBreakerConcurrentUse(t *testing.T) {
	b, _ := testBreaker(5, time.Millisecond)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				if b.Allow() {
					if (i+j)%3 == 0 {
						b.Failure()
					} else {
						b.Success()
					}
				}
				b.State()
				b.Open()
			}
		}(i)
	}
	wg.Wait()
}
