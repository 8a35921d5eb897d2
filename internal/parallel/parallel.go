// Package parallel provides the bounded fork/join primitive behind every
// concurrent phase of the repository: the per-round worker training loops in
// internal/core and internal/baseline, the concurrent-Grad path through
// internal/nn's per-call workspaces, and the independent-run fan-out in
// internal/experiment's sweeps.
//
// The contract is deliberately narrow so callers stay deterministic: ForEach
// runs one function per index over a bounded goroutine pool and always joins
// every goroutine before returning. Scheduling order is unspecified, but
// because every index writes only its own state (and its own error slot),
// the observable result is independent of the pool size. Callers perform all
// cross-index reductions after ForEach returns, in fixed index order — that
// discipline, not this package, is what makes runs bit-identical at any
// worker count.
package parallel

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// Option customizes a ForEach invocation. It is a plain value, not a
// function over a settings struct: an indirect call would force that struct
// onto the heap, one allocation per ForEach in every training iteration.
type Option struct {
	workers int
}

// WithWorkers bounds the goroutine pool to n concurrent workers. Values
// below 1 (including the default 0) select runtime.GOMAXPROCS(0).
func WithWorkers(n int) Option {
	return Option{workers: n}
}

// Resolve returns the effective pool size: n when positive, otherwise
// runtime.GOMAXPROCS(0). It is exported so config layers (fl.Config.Workers,
// the -workers CLI flag) report the same default ForEach applies.
func Resolve(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach invokes fn(i) for every i in [0, n), at most WithWorkers(n) at a
// time, and returns after all invocations finish. Errors are collected into
// per-index slots and combined with errors.Join in index order, so the
// returned error is deterministic regardless of scheduling. A pool size of 1
// (or n == 1) degenerates to a sequential loop on the calling goroutine with
// identical semantics: every index still runs even after one fails.
//
// fn must confine its writes to index-owned state; ForEach provides the
// barrier (all goroutines joined) but no other synchronization.
func ForEach(n int, fn func(i int) error, opts ...Option) error {
	if n <= 0 {
		return nil
	}
	workers := 0
	for _, opt := range opts {
		workers = opt.workers
	}
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}

	if workers == 1 {
		var errs []error
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				errs = append(errs, err)
			}
		}
		return errors.Join(errs...)
	}

	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for g := 0; g < workers; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	// errors.Join drops nils, so joining the full slot slice in index order
	// yields the same error value a sequential loop would have produced.
	return errors.Join(errs...)
}
