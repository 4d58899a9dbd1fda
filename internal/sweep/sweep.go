// Package sweep runs independent simulation points concurrently.
//
// Every figure of the benchmark suite is a sweep: N points, each an
// independent deterministic simulation (its own Simulator, cluster and
// parameter set). The points share nothing, so they can run on as many
// cores as the host offers — but their results must come back in point
// order, not completion order, so the rendered tables stay byte-identical
// to a sequential run.
//
// RunCtx is the only primitive: a bounded worker pool over the index
// space [0, n) whose result slice is keyed by index, aborted between
// points when its context is cancelled (a point that has already started
// runs to completion — simulations have no internal preemption — so a
// cancelled sweep never leaks a worker goroutine). Workers(p) resolves
// the user-facing parallelism knob (0 = one worker per GOMAXPROCS core).
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// Workers resolves a parallelism setting to a concrete worker count:
// values < 1 mean "auto" (GOMAXPROCS); anything else is taken as given.
func Workers(parallel int) int {
	if parallel < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return parallel
}

// RunCtx executes fn(i) for every i in [0, n) using up to
// Workers(parallel) concurrent workers and returns the results ordered
// by index. With parallel == 1 (or n == 1) it degenerates to a plain
// loop on the calling goroutine, so sequential runs have zero scheduling
// overhead.
//
// fn must be safe to call concurrently for distinct indexes: each point
// builds its own simulator and parameter set and shares no mutable state.
// A panic in any point stops the sweep as cancellation does: no further
// point starts, and the panic is re-raised on the calling goroutine once
// the points in flight have finished.
//
// Once ctx is cancelled no further point starts, the points already in
// flight run to completion (so no worker goroutine or half-built
// simulation leaks), and the call returns ctx.Err() with the partial
// result slice (unstarted points hold zero values). A nil error means
// every point ran.
func RunCtx[T any](ctx context.Context, parallel, n int, fn func(i int) T) ([]T, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	out := make([]T, n)
	workers := min(Workers(parallel), n)
	if workers == 1 {
		for i := range out {
			if err := ctx.Err(); err != nil {
				return out, err
			}
			out[i] = fn(i)
		}
		return out, ctx.Err()
	}

	var (
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any
	)
	idx := make(chan int)
	stop := make(chan struct{}) // closed at the first panic
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicMu.Lock()
							if panicked == nil {
								panicked = r
								close(stop)
							}
							panicMu.Unlock()
						}
					}()
					out[i] = fn(i)
				}()
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		// A worker that has just recovered a panic is ready to receive,
		// so stop is checked first: a select picks at random among
		// ready cases.
		select {
		case <-stop:
			break feed
		default:
		}
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		case <-stop:
			break feed
		}
	}
	close(idx)
	wg.Wait()
	if panicked != nil {
		panic(fmt.Sprintf("sweep: point panicked: %v", panicked))
	}
	return out, ctx.Err()
}
