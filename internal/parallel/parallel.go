// Package parallel provides the shared deterministic worker pool behind
// the repository's compute kernels (tensor GEMM and im2col, Conv2D batch
// items, the secure engine's per-item panel stages) and the experiment
// fan-outs in internal/exp.
//
// The paper's core tension is parallelism: GDDR bandwidth outruns any
// single AES engine, and real accelerators close the gap with many
// engines working on disjoint data (§II-B). This package is the software
// analogue — independent work units run on separate goroutines — under
// one hard rule the hardware shares: every worker owns a disjoint output
// range, and any cross-unit reduction happens in index order after the
// barrier. That rule makes every parallel result bit-identical to the
// serial one, so the experiment tables stay reproducible no matter the
// core count.
//
// Pool sizing comes from runtime.GOMAXPROCS, overridable with the
// SEAL_WORKERS environment variable; SEAL_WORKERS=1 forces the exact
// serial code path (no goroutines at all). Concurrency is bounded by a
// counting semaphore rather than a fixed task queue so that nested use
// (a parallel Conv2D batch whose items call a parallel MatMul) degrades
// to inline execution instead of deadlocking: when no worker slot is
// free, the submitting goroutine simply runs the chunk itself.
package parallel

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// workers is the configured pool width (total concurrent executors,
// including the submitting goroutine).
var workers atomic.Int32

// inflight counts chunks currently running on spawned goroutines. The
// limit is workers-1: the caller of For/DoErr always executes work too, so
// total concurrency never exceeds the configured width.
var inflight atomic.Int32

func init() { workers.Store(int32(envWorkers())) }

func envWorkers() int {
	if s := os.Getenv("SEAL_WORKERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n >= 1 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// Workers returns the current pool width (≥ 1). A width of 1 means every
// For/DoErr call runs serially on the calling goroutine.
func Workers() int { return int(workers.Load()) }

// SetWorkers overrides the pool width and returns the previous value.
// It exists for tests that compare serial and parallel execution within
// one process; production code should use the SEAL_WORKERS environment
// variable instead.
func SetWorkers(n int) int {
	if n < 1 {
		n = 1
	}
	return int(workers.Swap(int32(n)))
}

// tryAcquire claims a spawned-goroutine slot if one is free.
func tryAcquire() bool {
	limit := workers.Load() - 1
	if limit <= 0 {
		return false
	}
	if inflight.Add(1) > limit {
		inflight.Add(-1)
		return false
	}
	return true
}

func release() { inflight.Add(-1) }

// For runs fn over the index range [0, n) split into chunks of at most
// grain consecutive indices; fn(lo, hi) processes [lo, hi). If grain <= 0
// a default of ~4 chunks per worker is chosen, which amortizes dispatch
// overhead while still load-balancing uneven chunks.
//
// Chunks may run concurrently and complete in any order, so fn must
// write only state derived from its own index range. Under that
// contract the result is bit-identical to calling fn(0, n): each output
// index is produced by exactly one invocation, with the same
// per-index operation order as the serial loop. For returns after every
// chunk has finished.
func For(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := Workers()
	if grain <= 0 {
		grain = (n + 4*w - 1) / (4 * w)
		if grain < 1 {
			grain = 1
		}
	}
	if w == 1 || n <= grain {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += grain {
		hi := lo + grain
		if hi > n {
			hi = n
		}
		// Keep the final chunk inline: the caller must do work anyway
		// while it waits, and this guarantees progress when no slot is
		// free (nested parallelism).
		if hi < n && tryAcquire() {
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				defer release()
				fn(lo, hi)
			}(lo, hi)
		} else {
			fn(lo, hi)
		}
	}
	wg.Wait()
}

// DoErr runs the given tasks, possibly concurrently, and returns once
// all have finished. Tasks must be independent: any ordering between
// their side effects must be reconstructed by the caller after DoErr
// returns (e.g. assembling per-task results from an index-addressed
// slice). With a pool width of 1 the tasks run sequentially in argument
// order on the caller. DoErr returns the error of the lowest-indexed
// task that failed (matching what a serial loop with an early return
// would have reported), or nil if all succeeded. Unlike the serial loop,
// every task runs even when an earlier one fails; callers needing
// abort-on-error semantics should check a shared flag inside their
// tasks.
func DoErr(tasks ...func() error) error {
	errs := make([]error, len(tasks))
	if Workers() == 1 {
		for i, t := range tasks {
			errs[i] = t()
		}
	} else {
		var wg sync.WaitGroup
		for i, t := range tasks {
			if i < len(tasks)-1 && tryAcquire() {
				wg.Add(1)
				go func(i int, t func() error) {
					defer wg.Done()
					defer release()
					errs[i] = t()
				}(i, t)
			} else {
				errs[i] = t()
			}
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
