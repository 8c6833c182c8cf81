package bat

import (
	"fmt"
	"math/rand"
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
			MorselDo(w, n, func(_, i int) {
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
	MorselDo(w, n, func(wi, _ int) {
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

// adversarialPartitionKeys crafts keys that collapse every radix scatter
// in this test into partition 0 — the worst case for partition-grained
// scheduling: one partition holds every row while the others are empty.
// The grouping scatter partitions by the top bits of fibHash (top byte
// zero covers every fan-out up to 256); the hash-index build partitions
// by the top bits of the masked bucket, which for this test's n=4096
// (sz=4096, p=8) are hash bits [9,12) — so both windows are pinned to
// zero. 512 distinct keys repeat cyclically to fill n rows.
func adversarialPartitionKeys(n int) []uint64 {
	distinct := make([]uint64, 0, 512)
	for x := uint64(1); len(distinct) < cap(distinct); x++ {
		if h := fibHash(x); h>>24 == 0 && (h>>9)&7 == 0 {
			distinct = append(distinct, x)
		}
	}
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = distinct[i%len(distinct)]
	}
	return keys
}

// TestScheduleParityAdversarialBuckets: builds and groupings over inputs
// whose keys all collapse into one radix partition (plus Zipf and
// all-one-key inputs) are bit-identical across sequential and morsel-claimed
// schedules of any worker count.
func TestScheduleParityAdversarialBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	const n = 1 << 12
	zipf := rand.NewZipf(rng, 1.2, 1, 1<<10)
	inputs := map[string][]uint64{
		"advbucket": adversarialPartitionKeys(n),
		"allone":    make([]uint64, n),
		"zipf":      make([]uint64, n),
	}
	for i := range inputs["allone"] {
		inputs["allone"][i] = 42
		inputs["zipf"][i] = zipf.Uint64()
	}
	scheds := []Sched{{Workers: 3}, {Workers: 8}, {Workers: 200}}
	for name, keys := range inputs {
		// grouping parity against the sequential Grouper reference
		wantSlots, wantFirst := refGroupSlots(keys, nil)
		for _, s := range scheds {
			label := fmt.Sprintf("%s/w=%d", name, s.Workers)
			gs := BuildGroupSlotsPartitionedSched(keys, nil, s)
			if len(gs.First) != len(wantFirst) {
				t.Fatalf("%s: %d groups, want %d", label, len(gs.First), len(wantFirst))
			}
			for i := range wantSlots {
				if gs.Slots[i] != wantSlots[i] {
					t.Fatalf("%s: slot[%d] = %d, want %d", label, i, gs.Slots[i], wantSlots[i])
				}
			}
		}
		// accelerator-build parity against the sequential build
		vals := make([]int64, n)
		for i, k := range keys {
			vals[i] = int64(k)
		}
		col := NewIntCol(vals)
		seq := BuildHashIndexSched(col, 1, Sched{Workers: 1})
		for _, s := range scheds {
			label := fmt.Sprintf("%s/w=%d", name, s.Workers)
			idx := BuildHashIndexSched(col, 8, s)
			if idx.Card() != seq.Card() {
				t.Fatalf("%s: card %d != %d", label, idx.Card(), seq.Card())
			}
			for i := 0; i < n; i += 7 {
				got, want := idx.Lookup(col.Get(i)), seq.Lookup(col.Get(i))
				if len(got) != len(want) {
					t.Fatalf("%s: lookup[%d] %d hits, want %d", label, i, len(got), len(want))
				}
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("%s: lookup[%d] order differs", label, i)
					}
				}
			}
		}
	}
}
