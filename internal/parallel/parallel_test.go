package parallel

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

func TestWorkersClamping(t *testing.T) {
	cases := []struct {
		requested, n, min, max int
	}{
		{0, 100, 1, 100}, // GOMAXPROCS default, clamped to n
		{-3, 5, 1, 5},
		{4, 2, 2, 2}, // never more workers than work
		{1, 100, 1, 1},
		{8, 0, 1, 1}, // empty work still yields a valid pool size
	}
	for _, c := range cases {
		got := Workers(c.requested, c.n)
		if got < c.min || got > c.max {
			t.Errorf("Workers(%d, %d) = %d, want in [%d, %d]",
				c.requested, c.n, got, c.min, c.max)
		}
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 7, 64} {
		for _, n := range []int{0, 1, 2, 5, 100, 1000} {
			hits := make([]int32, n)
			For(n, workers, func(lo, hi int) {
				if lo < 0 || hi > n || lo > hi {
					t.Fatalf("For(%d, %d): bad range [%d, %d)", n, workers, lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("For(%d, %d): index %d visited %d times", n, workers, i, h)
				}
			}
		}
	}
}

func TestEachCtxCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7} {
		for _, n := range []int{0, 1, 5, 100, 1000} {
			hits := make([]int32, n)
			if err := EachCtx(context.Background(), n, workers, func(i int) {
				atomic.AddInt32(&hits[i], 1)
			}); err != nil {
				t.Fatalf("EachCtx(%d, %d): %v", n, workers, err)
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("EachCtx(%d, %d): index %d visited %d times", n, workers, i, h)
				}
			}
		}
	}
}

func TestEachCtxStopsDispatchOnCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const n = 10000
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		err := EachCtx(ctx, n, workers, func(i int) {
			if ran.Add(1) == 5 {
				cancel()
			}
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// After cancel, at most the in-flight calls (one per worker) finish.
		if got := ran.Load(); got > int32(5+workers) {
			t.Errorf("workers=%d: %d calls ran after cancellation at call 5", workers, got)
		}
		cancel()
	}
}

func TestEachCtxPreCancelledRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	// With >1 workers the first index may still be pulled before the ctx
	// check; the sequential path must run nothing at all.
	if err := EachCtx(ctx, 100, 1, func(i int) { ran.Add(1) }); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Errorf("%d calls ran on a pre-cancelled context", ran.Load())
	}
}

func TestCallRecoversPanic(t *testing.T) {
	err := Call(func() error { panic("model exploded") })
	if err == nil || err.Error() != "panic: model exploded" {
		t.Fatalf("Call panic conversion: got %v", err)
	}
	if err := Call(func() error { return nil }); err != nil {
		t.Fatalf("Call of clean fn: %v", err)
	}
	sentinel := errors.New("boom")
	if err := Call(func() error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("Call error passthrough: %v", err)
	}
}

func TestForDeterministicChunkOwnership(t *testing.T) {
	// Workers write to disjoint ranges, so the assembled result must be
	// identical across pool sizes.
	const n = 513
	want := make([]int, n)
	For(n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			want[i] = i * i
		}
	})
	for _, workers := range []int{2, 5, 16} {
		got := make([]int, n)
		For(n, workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				got[i] = i * i
			}
		})
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: index %d differs", workers, i)
			}
		}
	}
}
