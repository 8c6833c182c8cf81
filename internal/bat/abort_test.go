package bat

import (
	"sync/atomic"
	"testing"
)

// recoverValue runs f and returns the value it panicked with (nil if none).
func recoverValue(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

// TestMorselDoStopAborts: once the stop hook fires, dispatch stops claiming
// within a bounded number of units and raises the ErrAborted sentinel — it
// must never complete the remaining units and let a partial result look
// finished.
func TestMorselDoStopAborts(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const n = 1000
		var ran atomic.Int64
		var stopped atomic.Bool
		stop := func() bool { return stopped.Load() }
		r := recoverValue(func() {
			Sched{Workers: workers, Stop: stop}.Dispatch(SiteScan, n, func(_, unit int) {
				if ran.Add(1) == 5 {
					stopped.Store(true)
				}
			})
		})
		if r != ErrAborted {
			t.Fatalf("workers=%d: dispatch panicked with %v, want ErrAborted", workers, r)
		}
		// Each of the w workers may have been mid-unit when the signal
		// fired; no worker claims another unit afterwards.
		if got := ran.Load(); got >= n || got > 5+int64(workers) {
			t.Fatalf("workers=%d: %d units ran after stop at unit 5", workers, got)
		}
	}
}

// TestMorselDoStopNoStop: a nil stop hook is the uncancellable fast path —
// every unit runs and nothing panics.
func TestMorselDoStopNoStop(t *testing.T) {
	var ran atomic.Int64
	Sched{Workers: 4}.Dispatch(SiteScan, 100, func(_, unit int) { ran.Add(1) })
	if ran.Load() != 100 {
		t.Fatalf("ran %d units, want 100", ran.Load())
	}
}

// TestMorselDoWorkerPanicContained: a panic on a worker goroutine must not
// kill the process (an unrecovered goroutine panic is fatal for every
// session in a server); it re-raises on the dispatcher as *WorkerPanic with
// the original value and the worker's stack, and the remaining workers stop
// claiming.
func TestMorselDoWorkerPanicContained(t *testing.T) {
	// Units this cheap drain at tens of millions a second, and the abort flag
	// goes up only after the panicking worker's stack is captured (~0.1 ms):
	// the queue must be long enough that it cannot drain in that window.
	const units = 1 << 22
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		r := recoverValue(func() {
			Sched{Workers: workers}.Dispatch(SiteScan, units, func(_, unit int) {
				if ran.Add(1) == 3 {
					panic("kernel invariant violated")
				}
			})
		})
		if workers == 1 {
			// Inline path: the panic surfaces raw on the caller.
			if r != "kernel invariant violated" {
				t.Fatalf("inline dispatch panicked with %v", r)
			}
			continue
		}
		wp, ok := r.(*WorkerPanic)
		if !ok {
			t.Fatalf("dispatch panicked with %T %v, want *WorkerPanic", r, r)
		}
		if wp.Value != "kernel invariant violated" || len(wp.Stack) == 0 {
			t.Fatalf("WorkerPanic lost value or stack: %+v", wp)
		}
		if ran.Load() >= units {
			t.Fatal("workers kept claiming units after a worker panic")
		}
	}
}

// TestSchedDispatchStop: dispatch honors the stop hook with the
// ErrAborted contract.
func TestSchedDispatchStop(t *testing.T) {
	var stopped atomic.Bool
	var ran atomic.Int64
	s := Sched{Workers: 4, Stop: func() bool { return stopped.Load() }}
	r := recoverValue(func() {
		s.Dispatch(SiteScan, 1000, func(_, unit int) {
			if ran.Add(1) == 4 {
				stopped.Store(true)
			}
		})
	})
	if r != ErrAborted {
		t.Fatalf("dispatch panicked with %v, want ErrAborted", r)
	}
	if ran.Load() >= 1000 {
		t.Fatal("dispatch completed all units despite stop")
	}
}

// TestAbortedBuildNeverPublishes: an accelerator build that panics (aborted
// by cancellation, or a kernel defect) must leave the slot
// unpublished and retryable — publishing a partial index would corrupt
// every later query. The retry builds from scratch, exactly once.
func TestAbortedBuildNeverPublishes(t *testing.T) {
	var slot accelSlot
	r := recoverValue(func() {
		slot.getOrBuild(func() *HashIndex { panic(ErrAborted) }, nil)
	})
	if r != ErrAborted {
		t.Fatalf("build panic did not propagate: %v", r)
	}
	if slot.load() != nil {
		t.Fatal("aborted build published a partial index")
	}
	before := AccelBuilds()
	col := NewIntCol([]int64{1, 2, 3, 2})
	idx := slot.getOrBuild(func() *HashIndex { return BuildHashIndex(col, nil) }, nil)
	if idx == nil || slot.load() != idx {
		t.Fatal("retry after aborted build did not publish")
	}
	if d := AccelBuilds() - before; d != 1 {
		t.Fatalf("retry performed %d builds, want 1 (aborted builds are uncounted)", d)
	}
}

// oddCol is a column layout the key-rep fill does not know: filling it
// panics, standing in for a kernel fault on a worker.
type oddCol struct{ *IntCol }

// TestKeyRepFillStopsAndContains: the multi-worker key-rep fill runs on the
// dispatcher, so a stop hook that fires during the fill aborts it with
// ErrAborted (a build around it publishes nothing), and a panic in the fill
// surfaces on the caller as *WorkerPanic.
func TestKeyRepFillStopsAndContains(t *testing.T) {
	const n = 1 << 16
	col := NewIntCol(make([]int64, n))
	var calls atomic.Int64
	s := Sched{Workers: 4, Stop: func() bool { return calls.Add(1) > 1 }}
	var slot accelSlot
	r := recoverValue(func() {
		slot.getOrBuild(func() *HashIndex {
			NewKeyRepP(col, s)
			return BuildHashIndex(col, nil)
		}, nil)
	})
	if r != ErrAborted {
		t.Fatalf("stopped fill panicked with %v, want ErrAborted", r)
	}
	if calls.Load() < 2 {
		t.Fatalf("stop hook consulted %d times: the fill never checked it", calls.Load())
	}
	if slot.load() != nil {
		t.Fatal("a build whose key-rep fill was stopped published an index")
	}
	r = recoverValue(func() { NewKeyRepP(oddCol{col}, Sched{Workers: 4}) })
	if _, ok := r.(*WorkerPanic); !ok {
		t.Fatalf("fill panic surfaced as %T %v, want *WorkerPanic", r, r)
	}
}

// TestHashBuildStops: a hash build consults its stop hook once per block of
// rows in each of its two passes, and a hook that fires aborts the build
// with ErrAborted.
func TestHashBuildStops(t *testing.T) {
	col := NewIntCol(make([]int64, 5*probeBlock+1))
	calls := 0
	BuildHashIndex(col, func() bool { calls++; return false })
	if calls != 2*6 {
		t.Fatalf("stop hook consulted %d times over 2 passes of 6 blocks, want 12", calls)
	}
	calls = 0
	r := recoverValue(func() { BuildHashIndex(col, func() bool { calls++; return calls > 8 }) })
	if r != ErrAborted {
		t.Fatalf("stopped build panicked with %v, want ErrAborted", r)
	}
}
