package storage

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Fault injection for the chaos harness. Monet's storage faults are not
// error returns: a failed page-in of a memory-mapped BAT arrives as a
// signal (SIGBUS) in the middle of a kernel loop. The injector reproduces
// that failure shape — an eligible touch of the shared pool panics with a
// typed *InjectedFault (exercising the interpreter's panic-containment
// boundary) or stalls for a configured latency (exercising timeouts and
// cancellation). Injection happens BEFORE the pool lock is taken and
// before the touch is recorded, so a fault never wedges the pool and never
// breaks Σ(tracker counts) = pool counters conservation.

// FaultPlan configures deterministic fault injection on a Pager. Cadences
// count eligible touches process-wide: FailEvery = 1000 panics on eligible
// touch 1000, 2000, ... — a deterministic schedule per touch sequence (under
// concurrency the interleaving varies, but the fault *rate* does not). When
// touches reach the pool as a run (see Tracker.TouchPositions), the run that
// contains touch 1000 is the one that fails.
type FaultPlan struct {
	// FailEvery, when > 0, panics with *InjectedFault on every Nth eligible
	// touch.
	FailEvery uint64
	// DelayEvery, when > 0 (with Delay > 0), sleeps Delay on every Nth
	// eligible touch — simulated slow I/O, the lever that widens execution
	// windows so cancellation and deadlines land mid-operator.
	DelayEvery uint64
	Delay      time.Duration
	// Heap, when non-nil, restricts injection to touches whose heap it
	// accepts (e.g. only a specific base column). Nil means every
	// persistent heap is eligible.
	Heap func(HeapID) bool
}

// FaultInjector applies a FaultPlan to a Pager's touch stream. Attach with
// Pager.SetFaultInjector; a nil injector (the default) costs one atomic
// pointer load per tracker call.
type FaultInjector struct {
	plan    FaultPlan
	touches atomic.Uint64 // eligible touches seen
	faults  atomic.Uint64 // panics raised
	delays  atomic.Uint64 // delays injected
}

// NewFaultInjector returns an injector for plan.
func NewFaultInjector(plan FaultPlan) *FaultInjector {
	return &FaultInjector{plan: plan}
}

// Injected reports (panics raised, delays injected) so far.
func (f *FaultInjector) Injected() (faults, delays uint64) {
	if f == nil {
		return 0, 0
	}
	return f.faults.Load(), f.delays.Load()
}

// visit is called by the pool for every visit of a persistent heap: n
// touches of page k. Cadences count touches, not visits, so a run advances
// the eligible-touch counter by n and fires when it crosses a multiple of
// the cadence — the injection rate per touch is the same however the
// touches are batched. The delay comes first, then the panic; a fired run
// is recorded nowhere.
func (f *FaultInjector) visit(k pageKey, n uint64) {
	if f.plan.Heap != nil && !f.plan.Heap(k.heap) {
		return
	}
	hi := f.touches.Add(n)
	lo := hi - n
	if d := f.plan.DelayEvery; d > 0 && f.plan.Delay > 0 {
		if crossed := hi/d - lo/d; crossed > 0 {
			f.delays.Add(crossed)
			time.Sleep(f.plan.Delay * time.Duration(crossed))
		}
	}
	if e := f.plan.FailEvery; e > 0 && hi/e > lo/e {
		f.faults.Add(1)
		panic(&InjectedFault{Heap: k.heap, Page: k.page, N: (lo/e + 1) * e})
	}
}

// InjectedFault is the panic value of an injected storage fault: the
// simulated SIGBUS of a failed page-in. The interpreter's recovery boundary
// converts it into a typed internal error for the one query that hit it.
type InjectedFault struct {
	Heap HeapID
	Page int64
	N    uint64 // eligible-touch sequence number that fired
}

func (e *InjectedFault) Error() string {
	return fmt.Sprintf("storage: injected fault on heap %d page %d (touch %d)", e.Heap, e.Page, e.N)
}
