// Package par provides the bounded parallel-execution primitives used
// across the compilation pipeline: a work-stealing-free, bounded worker
// pool with deterministic result ordering and first-error semantics.
//
// Every parallel site in the compiler funnels through Each (or the
// generic Map built on it), so the whole stack obeys one contract:
//
//   - workers <= 0 means "use all cores" (GOMAXPROCS);
//   - workers == 1 runs every item inline on the calling goroutine, in
//     index order, stopping at the first error — bit-for-bit the
//     behavior of the serial loops this package replaced, which makes
//     Workers=1 the determinism oracle for the parallel paths;
//   - with N > 1 workers, items are claimed from an atomic counter, all
//     results land at their input index, and the returned error is the
//     one the serial loop would have returned (lowest failing index).
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count configuration value: anything <= 0
// means one worker per core (GOMAXPROCS).
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Each runs fn(i) for every i in [0, n) on at most workers goroutines
// (after Workers resolution) and returns the error with the lowest index,
// mirroring what a serial loop would have surfaced.
//
// With one worker the items run inline in index order and iteration stops
// at the first error, exactly like the serial loop it replaces. With more
// workers every item runs regardless of failures elsewhere, so the
// surfaced error does not depend on goroutine scheduling.
func Each(workers, n int, fn func(i int) error) error {
	return EachCtx(context.Background(), workers, n, fn)
}

// EachCtx is Each with cancellation: when ctx is done, workers stop
// claiming new items and EachCtx returns ctx.Err() without waiting for
// items already in flight (those finish on their own goroutines, which
// then exit — nothing leaks, the caller just isn't held hostage to a
// long-running item — even when n is 1). With an un-cancellable ctx the
// behavior and the surfaced error are identical to Each, including the
// workers==1 serial oracle (which checks ctx between items and never
// spawns a goroutine).
func EachCtx(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	w := Workers(workers)
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	// even one item runs on a goroutine of its own, so a cancelled ctx
	// returns without waiting for it
	w = min(w, n)
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	next.Store(-1)
	errs := make([]error, n)
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1))
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-ctx.Done():
		// errs may still be written by in-flight items; it is not read
		// on this path, so the early return is race-free
		return ctx.Err()
	case <-done:
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Map applies fn to every element of in on at most workers goroutines and
// returns the results in input order. On error the result slice is nil and
// the error is the lowest-index failure (see Each).
func Map[T, R any](workers int, in []T, fn func(T) (R, error)) ([]R, error) {
	out := make([]R, len(in))
	err := Each(workers, len(in), func(i int) error {
		r, err := fn(in[i])
		if err != nil {
			return err
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
