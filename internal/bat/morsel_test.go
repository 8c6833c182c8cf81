package bat

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestMorselDoCoversAllUnits: every unit index is executed exactly once, for
// every relation between worker count and unit count.
func TestMorselDoCoversAllUnits(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		for _, w := range []int{0, 1, 2, 3, 8, 64, 200} {
			hits := make([]int32, n)
			Sched{Workers: w}.Dispatch(SiteScan, n, func(_, i int) {
				atomic.AddInt32(&hits[i], 1)
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("w=%d n=%d: unit %d ran %d times", w, n, i, h)
				}
			}
		}
	}
}

// TestMorselDoWorkerIDsDisjoint: a worker id never runs two units
// concurrently (per-worker scratch must be safe), and ids stay in range.
func TestMorselDoWorkerIDsDisjoint(t *testing.T) {
	const n = 500
	const w = 8
	var mu sync.Mutex
	busy := make(map[int]bool, w)
	Sched{Workers: w}.Dispatch(SiteScan, n, func(wi, _ int) {
		if wi < 0 || wi >= w {
			t.Errorf("worker id %d out of range", wi)
		}
		mu.Lock()
		if busy[wi] {
			mu.Unlock()
			t.Errorf("worker %d ran two units concurrently", wi)
			return
		}
		busy[wi] = true
		mu.Unlock()
		// hold the busy mark across a yield so an aliased worker id would
		// actually overlap with this unit rather than slipping through a
		// microsecond window
		runtime.Gosched()
		mu.Lock()
		busy[wi] = false
		mu.Unlock()
	})
}
