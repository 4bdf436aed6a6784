// Package parallel provides the bounded worker pools shared by the model
// backends (batch-prediction sharding) and the diagnosis engine (per-model
// and per-job fan-out). The helpers keep the calling goroutine working,
// never spawn more goroutines than there is work, and keep results
// deterministic: a worker writes only to the index or chunk it owns, so the
// caller's reduction order never depends on scheduling.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a parallelism knob: requested <= 0 means
// runtime.GOMAXPROCS(0), and the result is clamped to [1, n] so a pool is
// never larger than its work list.
func Workers(requested, n int) int {
	if requested <= 0 {
		requested = runtime.GOMAXPROCS(0)
	}
	if requested > n {
		requested = n
	}
	if requested < 1 {
		requested = 1
	}
	return requested
}

// For splits [0, n) into one contiguous chunk per worker and runs fn on
// every chunk, using the calling goroutine for the first chunk. fn must
// only touch state owned by its [lo, hi) range. workers <= 0 means
// GOMAXPROCS.
func For(n, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers, n)
	if workers == 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := chunk; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	fn(0, chunk)
	wg.Wait()
}

// EachCtx runs fn(i) for every i in [0, n) on a bounded pool with dynamic
// load balancing: workers pull the next free index, which suits unevenly
// sized jobs such as per-model SHAP explanations. fn must only touch state
// owned by index i. workers <= 0 means GOMAXPROCS. Once ctx is done, workers
// stop pulling new indices, already-started fn calls run to completion, and
// ctx's error is returned. All workers have exited by the time EachCtx
// returns, so no goroutine outlives the call. A nil return means fn ran for
// every index.
func EachCtx(ctx context.Context, n, workers int, fn func(i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return ctx.Err()
	}
	var next atomic.Int64
	drain := func() {
		for ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			drain()
		}()
	}
	drain()
	wg.Wait()
	return ctx.Err()
}

// Call runs fn and converts a panic into an ordinary error, so a worker
// pool can degrade (skip the failed unit of work) instead of crashing the
// process. The panic value is preserved in the error text.
func Call(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}
