package bat

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Morsel-driven work scheduling. Work units (radix partitions for builds,
// probe ranges for parallel scans) are claimed from a single atomic counter
// rather than assigned to workers up front: unit costs differ exactly where
// the bulk operators are hottest — a Zipf-distributed build concentrates
// most rows in the partitions holding the hot keys — and with a claim queue
// a worker stuck on an expensive unit simply stops claiming while the rest
// of the queue drains across the remaining workers.
//
// Claim order is nondeterministic, so morsel-dispatched work must depend
// only on the unit index — write disjoint output per unit, stitch by unit
// index, never by completion order. Under that contract every schedule
// (any worker count) produces bit-identical results.

// ErrAborted is the panic value raised by morsel dispatch when its stop hook
// reports cancellation: claimed work cannot be completed, so no (possibly
// partial) result may be stitched or published. The interpreter's statement
// recovery recognizes this sentinel and converts it back into the query's
// cancellation error; any other panic value is an internal fault.
var ErrAborted = errors.New("bat: parallel dispatch aborted by stop hook")

// WorkerPanic wraps a panic that occurred on a dispatched worker goroutine.
// Dispatch recovers it on the worker (an unrecovered goroutine panic would
// kill the whole process — fatal for a multi-session server) and re-raises
// it on the dispatching goroutine, where the per-statement recovery boundary
// can contain it. Value is the original panic payload, Stack the worker's
// stack at the point of panic.
type WorkerPanic struct {
	Value any
	Stack []byte
}

func (w *WorkerPanic) Error() string {
	return fmt.Sprintf("bat: panic on parallel worker: %v", w.Value)
}

// MorselDo runs fn(worker, unit) for every unit in [0, n), dispatching units
// to up to `workers` goroutines through an atomic claim counter. The worker
// id identifies the executing goroutine (0 <= worker < effective workers) so
// callers can reuse per-worker scratch; a given worker id never runs two
// units concurrently.
func MorselDo(workers, n int, fn func(worker, unit int)) {
	MorselDoStop(workers, n, nil, fn)
}

// MorselDoStop is MorselDo with a cancellation hook: when stop is non-nil,
// every worker consults it before claiming its next unit (one amortized
// check per morsel — the granularity at which a cancelled query stops
// burning CPU) and stops claiming once it reports true. Because some units
// then never ran, the dispatch cannot produce a usable result: it panics
// with ErrAborted after all workers have parked, and the caller's recovery
// boundary turns that into the query's cancellation error.
//
// A panic on a worker goroutine (a kernel bug, or an injected storage fault
// during a build or probe) is recovered on the worker, stops the remaining
// workers' claims, and is re-raised on the dispatching goroutine as a
// *WorkerPanic once every worker has parked — containment without losing
// the original panic value or stack.
func MorselDoStop(workers, n int, stop func() bool, fn func(worker, unit int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		runUnits(n, stop, fn)
		return
	}

	// aborted stops further claims after a stop signal or a worker panic;
	// firstPanic keeps the earliest worker panic to re-raise.
	var aborted atomic.Bool
	var panicMu sync.Mutex
	var firstPanic *WorkerPanic

	runGuarded := func(w, i int) {
		defer func() {
			if r := recover(); r != nil {
				panicMu.Lock()
				if firstPanic == nil {
					firstPanic = &WorkerPanic{Value: r, Stack: debug.Stack()}
				}
				panicMu.Unlock()
				aborted.Store(true)
			}
		}()
		fn(w, i)
	}
	halted := func() bool {
		if aborted.Load() {
			return true
		}
		if stop != nil && stop() {
			aborted.Store(true)
			return true
		}
		return false
	}

	var wg sync.WaitGroup
	if workers == n {
		// One unit per worker: a fixed assignment is the same schedule the
		// queue would produce, without the claim traffic.
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if halted() {
					return
				}
				runGuarded(i, i)
			}(i)
		}
	} else {
		var next atomic.Int64
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for !halted() {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					runGuarded(w, i)
				}
			}(w)
		}
	}
	wg.Wait()
	if firstPanic != nil {
		panic(firstPanic)
	}
	if aborted.Load() {
		panic(ErrAborted)
	}
}

// runUnits is the inline (single-worker) dispatch path: same stop-per-unit
// contract, no goroutines, so panics already surface on the caller.
func runUnits(n int, stop func() bool, fn func(worker, unit int)) {
	for i := 0; i < n; i++ {
		if stop != nil && stop() {
			panic(ErrAborted)
		}
		fn(0, i)
	}
}

// Sched describes how partition-grained work units are dispatched:
// morsel-claimed by up to Workers goroutines. Stop, when non-nil, is the
// owning query's cancellation check: dispatch consults it once per unit and
// aborts (panic ErrAborted) instead of completing — a cancelled query's
// accelerator build stops within one partition and is never published
// half-built. OnBuild, when non-nil, observes every accelerator construction
// this schedule wins (the singleflight slots invoke it once per actual
// build, with the build's wall time), attributing build cost to the query
// whose probe triggered it.
type Sched struct {
	Workers int
	Stop    func() bool
	OnBuild func(time.Duration)
}

// Dispatch runs fn(worker, unit) for every unit in [0, n) under the
// schedule s describes.
func (s Sched) Dispatch(n int, fn func(worker, unit int)) {
	MorselDoStop(s.Workers, n, s.Stop, fn)
}

// workersOver reports the effective worker count of s over n units (scratch
// arrays indexed by worker id are sized with this).
func (s Sched) workersOver(n int) int {
	if s.Workers < 1 {
		return 1
	}
	if s.Workers > n {
		return n
	}
	return s.Workers
}
