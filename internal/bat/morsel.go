package bat

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Morsel-driven work scheduling: the one parallel mechanism. Every parallel
// loop — a MIL operator's scan over its morsels, the key-rep fill — is a
// set of work units dispatched by Sched.Dispatch, the only place that
// starts goroutines. Units are claimed from a single atomic counter rather
// than assigned to workers up front: unit costs differ exactly where the
// bulk operators are hottest — a tail-ordered probe column clusters a hot
// key's expensive rows in a few morsels — and with a claim queue a worker
// stuck on an expensive unit simply stops claiming while the rest of the
// queue drains across the remaining workers.
//
// Claim order is nondeterministic, so dispatched work must depend only on
// the unit index — write disjoint output per unit, stitch by unit index,
// never by completion order. Under that contract every schedule (any worker
// count) produces bit-identical results.

// ParallelMinRows is the one engagement rule: an operator over fewer rows
// runs on one worker, below it goroutine overhead dominates. The MIL layer
// applies it when it sizes a Sched; the kernels run a Sched as given.
const ParallelMinRows = 1 << 14

// The parallel sites: every Dispatch names the loop it runs, so a profile
// can report which loops engaged more than one worker (Sched.OnParallel).
const (
	SiteScan   = "scan"   // a MIL operator's morsel loop over its input rows
	SiteKeyRep = "keyrep" // NewKeyRepP's fill of the key-rep vector
)

// Sites lists every parallel site.
var Sites = []string{SiteScan, SiteKeyRep}

// ErrAborted is the panic value raised by morsel dispatch, or a hash build,
// when its stop hook reports cancellation: claimed work cannot be completed,
// so no (possibly partial) result may be stitched or published. The
// interpreter's statement recovery recognizes this sentinel and converts it
// back into the query's cancellation error; any other panic value is an
// internal fault.
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

// Sched describes how work units are dispatched: morsel-claimed by up to
// Workers goroutines. Stop, when non-nil, is the owning query's
// cancellation check: dispatch consults it once per unit, and a hash build
// once per block of rows, and aborts (panic ErrAborted) instead of
// completing — a cancelled query's scan, key-rep fill or hash build stops
// within one unit and never yields a partial result. OnBuild,
// when non-nil, observes every accelerator construction this schedule wins
// (the singleflight slots invoke it once per actual build, with the build's
// wall time), attributing build cost to the query whose probe triggered it.
// OnParallel, when non-nil, observes every dispatch that engages more than
// one worker, by site.
type Sched struct {
	Workers    int
	Stop       func() bool
	OnBuild    func(time.Duration)
	OnParallel func(site string)
}

// Dispatch runs fn(worker, unit) for every unit in [0, n) on up to
// s.Workers goroutines. The worker id identifies the executing goroutine
// (0 <= worker < effective workers) so callers can reuse per-worker
// scratch; a given worker id never runs two units concurrently. site names
// the loop (one of Sites).
//
// Every worker consults s.Stop before claiming its next unit (one amortized
// check per unit — the granularity at which a cancelled query stops burning
// CPU) and stops claiming once it reports true. Because some units then
// never ran, the dispatch cannot produce a usable result: it panics with
// ErrAborted after all workers have parked, and the caller's recovery
// boundary turns that into the query's cancellation error.
//
// A panic on a worker goroutine (a kernel bug during a build or probe) is
// recovered on the worker, stops the remaining workers' claims, and is
// re-raised on the dispatching goroutine as a *WorkerPanic once every
// worker has parked — containment without losing the original panic value
// or stack. On one worker the units run inline and a panic surfaces on the
// caller as it is.
func (s Sched) Dispatch(site string, n int, fn func(worker, unit int)) {
	workers := s.workersOver(n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if s.Stop != nil && s.Stop() {
				panic(ErrAborted)
			}
			fn(0, i)
		}
		return
	}
	if s.OnParallel != nil {
		s.OnParallel(site)
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
		if s.Stop != nil && s.Stop() {
			aborted.Store(true)
			return true
		}
		return false
	}

	var wg sync.WaitGroup
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
	wg.Wait()
	if firstPanic != nil {
		panic(firstPanic)
	}
	if aborted.Load() {
		panic(ErrAborted)
	}
}

// workersOver reports the effective worker count of s over n units (scratch
// arrays indexed by worker id are sized with this).
func (s Sched) workersOver(n int) int {
	return max(1, min(s.Workers, n))
}

// splitRange cuts [0, n) into k contiguous pieces whose lengths differ by
// at most one (empty pieces when k > n).
func splitRange(n, k int) [][2]int {
	out := make([][2]int, k)
	for i := range out {
		out[i] = [2]int{i * n / k, (i + 1) * n / k}
	}
	return out
}
