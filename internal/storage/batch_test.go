package storage

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// poolState is everything a batch may change that a later touch can see.
type poolState struct {
	trFaults, trHits     uint64
	poolFaults, poolHits uint64
	resident             int
}

func stateOf(tr *Tracker) poolState {
	p := tr.Pool()
	return poolState{tr.Faults(), tr.Hits(), p.Faults(), p.Hits(), p.Resident()}
}

// batchShapes are the position lists of the property test, each over rows
// entries. They cover what the operators produce: ascending selections,
// LOOKUP arrays in the right operand's order, group-first rows with many
// repeats, a point cluster, and lists too short to fold.
var batchShapes = []struct {
	name string
	gen  func(rng *rand.Rand, rows int) []int32
}{
	{"sorted", func(rng *rand.Rand, rows int) []int32 {
		pos := randomPositions(rng, rows, 3000)
		sort.Slice(pos, func(i, j int) bool { return pos[i] < pos[j] })
		return pos
	}},
	{"random", func(rng *rand.Rand, rows int) []int32 { return randomPositions(rng, rows, 3000) }},
	{"duplicate-heavy", func(rng *rand.Rand, rows int) []int32 {
		hot := randomPositions(rng, rows, 12)
		pos := make([]int32, 3000)
		for i := range pos {
			pos[i] = hot[rng.Intn(len(hot))]
		}
		return pos
	}},
	{"single-page", func(rng *rand.Rand, rows int) []int32 {
		pos := make([]int32, 500)
		for i := range pos {
			pos[i] = int32(rows/2 + rng.Intn(40))
		}
		return pos
	}},
	{"dense-run", func(rng *rand.Rand, rows int) []int32 {
		// every entry of a stretch, so runs end exactly at page borders
		lo := rng.Intn(rows / 2)
		pos := make([]int32, rows/3)
		for i := range pos {
			pos[i] = int32(lo + i)
		}
		return pos
	}},
	{"short", func(rng *rand.Rand, rows int) []int32 { return randomPositions(rng, rows, foldMinTouches-1) }},
	{"one", func(rng *rand.Rand, rows int) []int32 { return randomPositions(rng, rows, 1) }},
	{"empty", func(*rand.Rand, int) []int32 { return nil }},
}

func randomPositions(rng *rand.Rand, rows, n int) []int32 {
	pos := make([]int32, n)
	for i := range pos {
		pos[i] = int32(rng.Intn(rows))
	}
	return pos
}

// TestBatchMatchesPerRowTouch is the batch contract: for every pool
// configuration, TouchPositions and TouchSpans leave the tracker counters,
// the pool counters, the resident set and the pool's later eviction
// behaviour exactly as the per-row Touch/TouchRange loop over the same
// positions does. Two pools of one configuration are driven side by side —
// reference by the loop, subject by the batch — from the same warm-up, and
// then replayed with one fixed probe sequence whose outcome depends on the
// LRU order the batch left behind.
func TestBatchMatchesPerRowTouch(t *testing.T) {
	const rows = 20000
	const h = HeapID(7)
	for _, pageSize := range []int64{512, 4096} {
		for _, capacity := range []int{0, 8, 64, 512} {
			for _, shape := range batchShapes {
				name := fmt.Sprintf("page%d/cap%d/%s", pageSize, capacity, shape.name)
				rng := rand.New(rand.NewSource(int64(len(name)) + pageSize + int64(capacity)))
				pos := shape.gen(rng, rows)
				warm := randomPositions(rng, rows, 200)
				probes := randomPositions(rng, rows, 2000)

				// Variable-width layout for TouchSpans: entries of 0..40
				// bytes, so spans are empty, sit inside a page, or straddle.
				off := make([]uint32, rows+1)
				for i := 0; i < rows; i++ {
					off[i+1] = off[i] + uint32(rng.Intn(41))
				}

				type layout struct {
					name   string
					perRow func(tr *Tracker, i int32)
					batch  func(tr *Tracker, pos []int32)
				}
				var layouts []layout
				for _, base := range []int64{0, 1000} {
					for _, width := range []int64{1, 4, 8} {
						base, width := base, width
						layouts = append(layouts, layout{
							fmt.Sprintf("fixed/base%d/width%d", base, width),
							func(tr *Tracker, i int32) { tr.Touch(h, (base+int64(i))*width) },
							func(tr *Tracker, pos []int32) { tr.TouchPositions(h, base, width, pos) },
						})
					}
				}
				layouts = append(layouts, layout{
					"spans",
					func(tr *Tracker, i int32) { tr.TouchRange(h, int64(off[i]), int64(off[i+1]-off[i])) },
					func(tr *Tracker, pos []int32) { tr.TouchSpans(h, off, pos) },
				})

				for _, l := range layouts {
					ref := NewPager(pageSize, capacity).NewTracker()
					sub := NewPager(pageSize, capacity).NewTracker()
					for _, tr := range []*Tracker{ref, sub} {
						for _, i := range warm {
							l.perRow(tr, i)
						}
					}
					for _, i := range pos {
						l.perRow(ref, i)
					}
					l.batch(sub, pos)
					if got, want := stateOf(sub), stateOf(ref); got != want {
						t.Fatalf("%s/%s: batch left %+v, per-row loop %+v", name, l.name, got, want)
					}
					// Later eviction behaviour: fresh trackers on the same
					// pools, one fixed probe sequence.
					ref2, sub2 := ref.Pool().NewTracker(), sub.Pool().NewTracker()
					for _, i := range probes {
						l.perRow(ref2, i)
						l.perRow(sub2, i)
					}
					if got, want := stateOf(sub2), stateOf(ref2); got != want {
						t.Fatalf("%s/%s: replay after batch %+v, after per-row loop %+v", name, l.name, got, want)
					}
				}
			}
		}
	}
}

// TestBatchVisitsPoolOncePerPage pins the point of the exercise with the
// pool's visit counter: a random gather over an unbounded pool reaches the
// pool at most once per distinct page, and over an evicting pool once per
// run, while the tracker still counts every touch.
func TestBatchVisitsPoolOncePerPage(t *testing.T) {
	const rows, h = 8192, HeapID(3) // 8-byte entries: 16 pages
	pos := randomPositions(rand.New(rand.NewSource(1)), rows, 50000)
	for _, capacity := range []int{0, 4} {
		p := NewPager(4096, capacity)
		tr := p.NewTracker()
		tr.TouchPositions(h, 0, 8, pos)
		visits := int(p.visits)
		if tr.Faults()+tr.Hits() != uint64(len(pos)) {
			t.Fatalf("capacity %d: tracker counted %d touches, want %d", capacity, tr.Faults()+tr.Hits(), len(pos))
		}
		if capacity == 0 && visits > 16 {
			t.Fatalf("unbounded pool: %d visits for 16 distinct pages", visits)
		}
		if capacity > 0 && visits < len(pos)/2 {
			t.Fatalf("evicting pool: %d visits; a random list has almost no same-page neighbours to merge", visits)
		}
	}
}

// TestBatchConcurrentConservation: goroutines sharing one tracker and one
// pool lose nothing — every touch of every batch is counted once in the
// tracker and once in the pool. Run under -race.
func TestBatchConcurrentConservation(t *testing.T) {
	const rows, h, workers, rounds = 20000, HeapID(5), 4, 40
	off := make([]uint32, rows+1)
	for i := 0; i < rows; i++ {
		off[i+1] = off[i] + 1 + uint32(i%7) // no empty span: at least one touch each
	}
	for _, capacity := range []int{0, 64} {
		p := NewPager(512, capacity)
		tr := p.NewTracker()
		var wg sync.WaitGroup
		var total uint64
		var mu sync.Mutex
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				var n uint64
				for r := 0; r < rounds; r++ {
					pos := randomPositions(rng, rows, 1+rng.Intn(2000))
					tr.TouchPositions(h, 0, 4, pos)
					n += uint64(len(pos))
					tr.TouchSpans(h+1, off, pos)
				}
				mu.Lock()
				total += n
				mu.Unlock()
			}(w)
		}
		wg.Wait()
		if got, pool := tr.Faults()+tr.Hits(), p.Faults()+p.Hits(); got != pool {
			t.Fatalf("capacity %d: tracker %d touches, pool %d", capacity, got, pool)
		}
		if tr.Faults() != p.Faults() {
			t.Fatalf("capacity %d: tracker %d faults, pool %d", capacity, tr.Faults(), p.Faults())
		}
		// Positions touch one page each, spans one or two.
		if got := tr.Faults() + tr.Hits(); got < 2*total {
			t.Fatalf("capacity %d: %d touches counted, want at least %d", capacity, got, 2*total)
		}
	}
}
