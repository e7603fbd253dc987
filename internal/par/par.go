// Package par is the process's one fork-join primitive. Every parallel
// loop outside the streaming chunk engine runs through For, so they all
// share a single CPU budget: nested loops run inline instead of
// oversubscribing the host.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// helpers counts the goroutines For has started that are still running,
// process-wide. It never exceeds GOMAXPROCS-1: with every caller also
// running iterations itself, at most GOMAXPROCS goroutines of one loop
// nest are busy at once.
var helpers atomic.Int64

// For calls fn(i) for every i in [0, n), using up to workers goroutines
// (workers <= 0 means GOMAXPROCS). The calling goroutine always runs
// iterations itself; each extra goroutine is taken from the process-wide
// budget with a non-blocking try, so a For nested inside another For runs
// inline once the budget is spent and can never deadlock.
//
// Indices are handed out in increasing order. Once an iteration fails no
// new one starts, and For returns the error of the lowest failing index —
// the error a serial loop would have stopped at. fn must be safe for
// concurrent calls; For returns after every call has finished.
func For(n, workers int, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var (
		next   atomic.Int64
		stop   atomic.Int64 // lowest failing index so far; n while none
		mu     sync.Mutex
		first  error
		wg     sync.WaitGroup
		budget = int64(runtime.GOMAXPROCS(0) - 1)
	)
	stop.Store(int64(n))
	run := func() {
		for {
			i := next.Add(1) - 1
			if i >= stop.Load() {
				return
			}
			if err := fn(int(i)); err != nil {
				mu.Lock()
				if i < stop.Load() {
					stop.Store(i)
					first = err
				}
				mu.Unlock()
			}
			// Yield between iterations, as a goroutine per iteration does
			// when it exits. A loop that never yields keeps the GC's mark
			// worker off its P until the preemption tick, so each cycle
			// stays open longer and the heap overshoots its goal.
			runtime.Gosched()
		}
	}
	for w := 1; w < workers && w < n && take(budget); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer helpers.Add(-1) // before Done: the slot is free when For returns
			run()
		}()
	}
	run()
	wg.Wait()
	return first
}

// take claims one helper slot if fewer than budget are in use.
func take(budget int64) bool {
	for {
		h := helpers.Load()
		if h >= budget {
			return false
		}
		if helpers.CompareAndSwap(h, h+1) {
			return true
		}
	}
}
