package storage

import (
	"testing"
	"time"
)

func catchPanic(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

// TestFaultInjectorCadence: FailEvery=N panics with *InjectedFault on
// exactly the Nth eligible touch, the pool records nothing for the failed
// touch (injection happens before the pool lock and before recording),
// and the injector's own counters report what it did.
func TestFaultInjectorCadence(t *testing.T) {
	p := NewPager(4096, 0)
	h := p.NewHeap()
	inj := NewFaultInjector(FaultPlan{FailEvery: 4})
	p.SetFaultInjector(inj)
	tr := p.NewTracker()

	touched := 0
	r := catchPanic(func() {
		for i := 0; i < 10; i++ {
			tr.Touch(h, int64(i)*4096) // distinct pages: all faults
			touched++
		}
	})
	f, ok := r.(*InjectedFault)
	if !ok {
		t.Fatalf("panicked with %T %v, want *InjectedFault", r, r)
	}
	if touched != 3 || f.N != 4 {
		t.Fatalf("fault fired after %d successful touches (seq %d), want 3 (seq 4)", touched, f.N)
	}
	if faults, _ := inj.Injected(); faults != 1 {
		t.Fatalf("injector reports %d faults, want 1", faults)
	}
	// The failed touch itself was recorded nowhere: pool == tracker == 3.
	if p.Faults() != 3 || tr.Faults() != 3 {
		t.Fatalf("pool/tracker faults = %d/%d, want 3/3 (failed touch must not be recorded)", p.Faults(), tr.Faults())
	}
	// Detaching the injector restores the clean path.
	p.SetFaultInjector(nil)
	tr.Touch(h, 100*4096)
	if p.Faults() != 4 {
		t.Fatalf("pool faults = %d after detach, want 4", p.Faults())
	}
}

// TestFaultInjectorCadenceBatched: cadences count touches, not pool visits.
// A batch reaches the pool as runs of n touches; a run advances the
// eligible-touch counter by n and fires when it crosses a multiple of the
// cadence, so the injection rate per touch is what the per-row protocol
// had. The run that fires is recorded nowhere, the runs visited before it
// stay attributed (Σ tracker == pool with the panic mid-batch), none after
// it is visited, and the next batch carries the counter on.
func TestFaultInjectorCadenceBatched(t *testing.T) {
	// 120 positions over 8-byte entries: 30 on each of pages 0..3.
	pos := make([]int32, 0, 120)
	for pg := int32(0); pg < 4; pg++ {
		for i := int32(0); i < 30; i++ {
			pos = append(pos, pg*512+i)
		}
	}
	for _, capacity := range []int{0, 64} { // folded, and ordered runs
		p := NewPager(4096, capacity)
		h := p.NewHeap()
		inj := NewFaultInjector(FaultPlan{FailEvery: 100})
		p.SetFaultInjector(inj)
		tr := p.NewTracker()

		r := catchPanic(func() { tr.TouchPositions(h, 0, 8, pos) })
		f, ok := r.(*InjectedFault)
		if !ok {
			t.Fatalf("capacity %d: panicked with %T %v, want *InjectedFault", capacity, r, r)
		}
		// Touch 100 is the 10th touch of the fourth run (touches 91..120).
		if f.N != 100 || f.Page != 3 {
			t.Fatalf("capacity %d: fired on touch %d page %d, want touch 100 on page 3", capacity, f.N, f.Page)
		}
		if got := inj.touches.Load(); got != 120 {
			t.Fatalf("capacity %d: eligible-touch counter %d after a 120-touch batch, want 120", capacity, got)
		}
		// Three runs recorded (one fault and 29 hits each), the fourth not.
		if tr.Faults() != 3 || tr.Hits() != 87 || p.Faults() != 3 || p.Hits() != 87 || p.Resident() != 3 {
			t.Fatalf("capacity %d: tracker %d+%d, pool %d+%d, resident %d; want 3+87 twice and 3",
				capacity, tr.Faults(), tr.Hits(), p.Faults(), p.Hits(), p.Resident())
		}
		// The counter carries over: 120 + 79 stays short of 200, one more
		// touch reaches it.
		if r := catchPanic(func() { tr.TouchPositions(h, 0, 8, pos[:79]) }); r != nil {
			t.Fatalf("capacity %d: fired at touch %d, before the cadence", capacity, inj.touches.Load())
		}
		if r := catchPanic(func() { tr.TouchPositions(h, 0, 8, pos[:1]) }); r == nil {
			t.Fatalf("capacity %d: touch 200 did not fire", capacity)
		}
		if faults, _ := inj.Injected(); faults != 2 {
			t.Fatalf("capacity %d: injector reports %d faults, want 2", capacity, faults)
		}
		if tr.Faults()+tr.Hits() != p.Faults()+p.Hits() {
			t.Fatalf("capacity %d: conservation broken: tracker %d, pool %d",
				capacity, tr.Faults()+tr.Hits(), p.Faults()+p.Hits())
		}
	}

	// Delays: one run of 120 touches crosses two multiples of 50 and pays
	// both, in one visit.
	p := NewPager(4096, 0)
	inj := NewFaultInjector(FaultPlan{DelayEvery: 50, Delay: 5 * time.Millisecond})
	p.SetFaultInjector(inj)
	tr := p.NewTracker()
	start := time.Now()
	tr.TouchPositions(p.NewHeap(), 0, 8, make([]int32, 120)) // 120 touches of entry 0
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Fatalf("run crossing two delay multiples took %v, want >= 10ms", elapsed)
	}
	if _, delays := inj.Injected(); delays != 2 {
		t.Fatalf("injector reports %d delays, want 2", delays)
	}
	if tr.Faults() != 1 || tr.Hits() != 119 {
		t.Fatalf("delayed run recorded %d+%d, want 1+119", tr.Faults(), tr.Hits())
	}
}

// TestFaultInjectorHeapFilter: a Heap predicate restricts eligibility, so a
// chaos plan can target one base column while everything else proceeds.
func TestFaultInjectorHeapFilter(t *testing.T) {
	p := NewPager(4096, 0)
	hA, hB := p.NewHeap(), p.NewHeap()
	inj := NewFaultInjector(FaultPlan{FailEvery: 1, Heap: func(h HeapID) bool { return h == hB }})
	p.SetFaultInjector(inj)
	tr := p.NewTracker()

	if r := catchPanic(func() { tr.TouchRange(hA, 0, 10*4096) }); r != nil {
		t.Fatalf("filtered heap faulted: %v", r)
	}
	r := catchPanic(func() { tr.Touch(hB, 0) })
	if _, ok := r.(*InjectedFault); !ok {
		t.Fatalf("eligible heap did not fault: %v", r)
	}
}

// TestTouchRangeConservationUnderPanic: when an injected fault panics in
// the middle of a multi-page TouchRange, the pages recorded in the pool
// before the panic must still be attributed to the tracker (deferred
// attribution) — otherwise Σ(trackers) = pool counters breaks and the
// chaos suite's conservation assertions become unprovable.
func TestTouchRangeConservationUnderPanic(t *testing.T) {
	p := NewPager(4096, 0)
	h := p.NewHeap()
	inj := NewFaultInjector(FaultPlan{FailEvery: 5})
	p.SetFaultInjector(inj)
	tr := p.NewTracker()

	r := catchPanic(func() { tr.TouchRange(h, 0, 64*4096) }) // would touch 64 pages
	if _, ok := r.(*InjectedFault); !ok {
		t.Fatalf("expected injected fault, got %v", r)
	}
	if tr.Faults()+tr.Hits() != p.Faults()+p.Hits() {
		t.Fatalf("conservation broken after mid-range panic: tracker %d+%d, pool %d+%d",
			tr.Faults(), tr.Hits(), p.Faults(), p.Hits())
	}
	if tr.Faults() != 4 {
		t.Fatalf("tracker attributed %d faults, want 4 (pages before the 5th touch)", tr.Faults())
	}
}

// TestFaultInjectorDelay: DelayEvery stalls the Nth eligible touch by
// Delay — the lever that widens execution windows so deadlines and
// cancellations land mid-operator. The touch still completes and records.
func TestFaultInjectorDelay(t *testing.T) {
	p := NewPager(4096, 0)
	h := p.NewHeap()
	inj := NewFaultInjector(FaultPlan{DelayEvery: 2, Delay: 5 * time.Millisecond})
	p.SetFaultInjector(inj)
	tr := p.NewTracker()

	start := time.Now()
	tr.TouchRange(h, 0, 4*4096)
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Fatalf("4 touches with DelayEvery=2 took %v, want >= 10ms (2 delays)", elapsed)
	}
	if _, delays := inj.Injected(); delays != 2 {
		t.Fatalf("injector reports %d delays, want 2", delays)
	}
	if tr.Faults() != 4 {
		t.Fatalf("delayed touches not recorded: %d faults, want 4", tr.Faults())
	}
}
