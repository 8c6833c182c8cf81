package storage

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestNilPagerIsSafe(t *testing.T) {
	var p *Pager
	p.ResetStats()
	p.DropAll()
	if p.Faults() != 0 || p.Hits() != 0 || p.Resident() != 0 {
		t.Fatal("nil pager must report zeros")
	}
	if p.PageSize() != DefaultPageSize {
		t.Fatalf("nil pager page size = %d", p.PageSize())
	}
	if p.NewHeap() != 0 {
		t.Fatal("nil pager NewHeap should return 0")
	}
}

func TestColdSequentialScanFaultsOncePerPage(t *testing.T) {
	p := NewPager(4096, 0)
	tr := p.NewTracker()
	h := p.NewHeap()
	// 10 pages worth of data, touched byte by byte.
	for off := int64(0); off < 10*4096; off += 8 {
		tr.Touch(h, off)
	}
	if got, want := p.Faults(), uint64(10); got != want {
		t.Fatalf("faults = %d, want %d", got, want)
	}
	// Re-scan: warm, no new faults.
	before := p.Faults()
	for off := int64(0); off < 10*4096; off += 8 {
		tr.Touch(h, off)
	}
	if p.Faults() != before {
		t.Fatalf("warm scan faulted: %d -> %d", before, p.Faults())
	}
}

func TestTouchRangeCountsPages(t *testing.T) {
	p := NewPager(4096, 0)
	tr := p.NewTracker()
	h := p.NewHeap()
	tr.TouchRange(h, 100, 4096) // spans pages 0 and 1
	if got := p.Faults(); got != 2 {
		t.Fatalf("faults = %d, want 2", got)
	}
	tr.TouchRange(h, 0, 0) // empty range
	if got := p.Faults(); got != 2 {
		t.Fatalf("empty range faulted: %d", got)
	}
}

func TestDistinctHeapsDoNotShare(t *testing.T) {
	p := NewPager(4096, 0)
	tr := p.NewTracker()
	h1, h2 := p.NewHeap(), p.NewHeap()
	if h1 == h2 {
		t.Fatal("heap ids must be distinct")
	}
	tr.Touch(h1, 0)
	tr.Touch(h2, 0)
	if got := p.Faults(); got != 2 {
		t.Fatalf("faults = %d, want 2 (one per heap)", got)
	}
}

func TestLRUEviction(t *testing.T) {
	p := NewPager(4096, 2) // room for two pages
	tr := p.NewTracker()
	h := p.NewHeap()
	tr.Touch(h, 0*4096) // page 0 faults
	tr.Touch(h, 1*4096) // page 1 faults
	tr.Touch(h, 0*4096) // hit, page 0 becomes MRU
	tr.Touch(h, 2*4096) // page 2 faults, evicts page 1 (LRU)
	tr.Touch(h, 0*4096) // still resident: hit
	tr.Touch(h, 1*4096) // was evicted: faults again
	if got, want := p.Faults(), uint64(4); got != want {
		t.Fatalf("faults = %d, want %d", got, want)
	}
	if got, want := p.Hits(), uint64(2); got != want {
		t.Fatalf("hits = %d, want %d", got, want)
	}
	if p.Resident() != 2 {
		t.Fatalf("resident = %d, want 2", p.Resident())
	}
}

func TestDropAllColdsTheCache(t *testing.T) {
	p := NewPager(4096, 0)
	tr := p.NewTracker()
	h := p.NewHeap()
	tr.Touch(h, 0)
	p.DropAll()
	tr.Touch(h, 0)
	if got := p.Faults(); got != 2 {
		t.Fatalf("faults = %d, want 2 after DropAll", got)
	}
}

func TestResetStatsKeepsPool(t *testing.T) {
	p := NewPager(4096, 0)
	tr := p.NewTracker()
	h := p.NewHeap()
	tr.Touch(h, 0)
	p.ResetStats()
	tr.Touch(h, 0) // still resident: a hit, not a fault
	if p.Faults() != 0 {
		t.Fatalf("faults = %d, want 0 after reset", p.Faults())
	}
	if p.Hits() != 1 {
		t.Fatalf("hits = %d, want 1", p.Hits())
	}
}

// Property: for an unbounded pool, faults equal the number of distinct pages
// touched, regardless of access order or repetition.
func TestFaultsEqualDistinctPages(t *testing.T) {
	f := func(offsets []uint32) bool {
		p := NewPager(4096, 0)
		tr := p.NewTracker()
		h := p.NewHeap()
		distinct := make(map[int64]bool)
		for _, o := range offsets {
			off := int64(o)
			tr.Touch(h, off)
			distinct[off/4096] = true
		}
		return p.Faults() == uint64(len(distinct)) && p.Resident() == len(distinct)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// refLRU is the reference the pool is checked against: one global LRU over
// at most capacity pages, most recently used first.
type refLRU struct {
	capacity int
	pages    []pageKey
}

// touch reports whether k faulted and moves it to the front.
func (r *refLRU) touch(k pageKey) bool {
	for i, p := range r.pages {
		if p == k {
			copy(r.pages[1:i+1], r.pages[:i])
			r.pages[0] = k
			return false
		}
	}
	r.pages = append([]pageKey{k}, r.pages...)
	if len(r.pages) > r.capacity {
		r.pages = r.pages[:r.capacity]
	}
	return true
}

// Property: a capacity-bounded pool is one exact global LRU — every touch
// faults or hits exactly as the reference does, Resident matches it, it
// never holds more than capacity pages, and it faults at least as often as
// an unbounded pool.
func TestBoundedPoolInvariants(t *testing.T) {
	capacities := []int{64, 256, 1024}
	for c := 1; c <= 16; c++ {
		capacities = append(capacities, c)
	}
	for _, capacity := range capacities {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			bounded := NewPager(512, capacity)
			unbounded := NewPager(512, 0)
			bt, ut := bounded.NewTracker(), unbounded.NewTracker()
			heaps := []HeapID{bounded.NewHeap(), bounded.NewHeap()}
			hu := unbounded.NewHeap()
			ref := refLRU{capacity: capacity}
			// Twice as many distinct pages as fit, so touches both hit and
			// evict.
			space := 2 * capacity
			for i := 0; i < 3*capacity+64; i++ {
				h, pg := heaps[rng.Intn(2)], int64(rng.Intn(space))
				off := pg*512 + rng.Int63n(512)
				before := bounded.Faults()
				bt.Touch(h, off)
				ut.Touch(hu, int64(h)*int64(space)*512+off)
				if faulted := bounded.Faults() > before; faulted != ref.touch(pageKey{h, pg}) {
					t.Logf("capacity %d touch %d (heap %d page %d): fault=%v, reference disagrees", capacity, i, h, pg, faulted)
					return false
				}
				if got := bounded.Resident(); got != len(ref.pages) || got > capacity {
					t.Logf("capacity %d touch %d: resident %d, reference %d", capacity, i, got, len(ref.pages))
					return false
				}
			}
			return bounded.Faults() >= unbounded.Faults()
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
			t.Fatalf("capacity %d: %v", capacity, err)
		}
	}
}

// ---- shared pool + per-query tracker tests (concurrent fault accounting) ----

// TestResidentAndDropAllAcrossStripes: Resident counts every page of a large
// unbounded pool, DropAll empties it, and a re-scan faults afresh.
func TestResidentAndDropAllAcrossStripes(t *testing.T) {
	p := NewPager(4096, 0)
	tr := p.NewTracker()
	const pages = 1024
	h := p.NewHeap()
	tr.TouchRange(h, 0, pages*4096)
	if got := p.Resident(); got != pages {
		t.Fatalf("resident = %d, want %d", got, pages)
	}
	if p.Faults() != pages {
		t.Fatalf("faults = %d, want %d", p.Faults(), pages)
	}
	p.DropAll()
	if got := p.Resident(); got != 0 {
		t.Fatalf("resident after DropAll = %d, want 0", got)
	}
	tr.TouchRange(h, 0, pages*4096)
	if p.Faults() != 2*pages {
		t.Fatalf("faults after re-scan = %d, want %d", p.Faults(), 2*pages)
	}
}

// TestTrackerAttribution: the pool decides hit vs fault, the tracker records
// whose touch it was. A page faulted by one query is a hit for the next —
// and the sum over trackers reproduces the pool counters exactly.
func TestTrackerAttribution(t *testing.T) {
	p := NewPager(4096, 0)
	h := p.NewHeap()
	t1, t2 := p.NewTracker(), p.NewTracker()

	t1.Touch(h, 0) // cold: t1 faults
	t2.Touch(h, 0) // resident now: t2 hits
	t2.TouchRange(h, 4096, 2*4096)
	t1.TouchRange(h, 4096, 2*4096)

	if t1.Faults() != 1 || t1.Hits() != 2 {
		t.Fatalf("t1 faults/hits = %d/%d, want 1/2", t1.Faults(), t1.Hits())
	}
	if t2.Faults() != 2 || t2.Hits() != 1 {
		t.Fatalf("t2 faults/hits = %d/%d, want 2/1", t2.Faults(), t2.Hits())
	}
	if sum := t1.Faults() + t2.Faults(); sum != p.Faults() {
		t.Fatalf("tracker faults sum %d != pool faults %d", sum, p.Faults())
	}
	if sum := t1.Hits() + t2.Hits(); sum != p.Hits() {
		t.Fatalf("tracker hits sum %d != pool hits %d", sum, p.Hits())
	}
	// ResetStats clears the pool aggregate only; trackers keep their own.
	p.ResetStats()
	if p.Faults() != 0 || t1.Faults() != 1 {
		t.Fatal("ResetStats must not touch tracker counters")
	}
	if t1.Pool() != p {
		t.Fatal("tracker pool identity lost")
	}
}

// TestNilTrackerIsSafe mirrors the nil-Pager contract for the per-query
// view: a nil tracker disables accounting everywhere.
func TestNilTrackerIsSafe(t *testing.T) {
	var tr *Tracker
	tr.Touch(1, 0)
	tr.TouchRange(1, 0, 1<<20)
	if tr.Faults() != 0 || tr.Hits() != 0 {
		t.Fatal("nil tracker must report zeros")
	}
	if tr.Pool() != nil {
		t.Fatal("nil tracker has no pool")
	}
	var p *Pager
	if p.NewTracker() != nil {
		t.Fatal("nil pager must yield a nil tracker")
	}
}

// TestConcurrentDisjointTouches is the shared pool's race-and-determinism
// check (run under -race): G goroutines touching disjoint heaps through
// their own trackers must each observe exactly their own cold faults, and
// the pool aggregates must equal the tracker sums.
func TestConcurrentDisjointTouches(t *testing.T) {
	p := NewPager(4096, 0)
	const goroutines = 8
	const pages = 512
	heaps := make([]HeapID, goroutines)
	for i := range heaps {
		heaps[i] = p.NewHeap()
	}
	trackers := make([]*Tracker, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		trackers[g] = p.NewTracker()
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tr := trackers[g]
			for round := 0; round < 2; round++ {
				for pg := int64(0); pg < pages; pg++ {
					tr.Touch(heaps[g], pg*4096)
				}
			}
		}(g)
	}
	wg.Wait()

	var faults, hits uint64
	for g, tr := range trackers {
		if tr.Faults() != pages || tr.Hits() != pages {
			t.Fatalf("goroutine %d faults/hits = %d/%d, want %d/%d",
				g, tr.Faults(), tr.Hits(), pages, pages)
		}
		faults += tr.Faults()
		hits += tr.Hits()
	}
	if p.Faults() != faults || p.Hits() != hits {
		t.Fatalf("pool faults/hits = %d/%d, tracker sums %d/%d",
			p.Faults(), p.Hits(), faults, hits)
	}
	if got := p.Resident(); got != goroutines*pages {
		t.Fatalf("resident = %d, want %d", got, goroutines*pages)
	}
}

// TestConcurrentSharedBoundedPool hammers one bounded pool from
// many goroutines over the same heap (run under -race): no invariant about
// who faults, only that the pool never exceeds capacity and attribution is
// conserved.
func TestConcurrentSharedBoundedPool(t *testing.T) {
	const capacity = 2048
	p := NewPager(4096, capacity)
	h := p.NewHeap()
	const goroutines = 8
	trackers := make([]*Tracker, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		trackers[g] = p.NewTracker()
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tr := trackers[g]
			for pg := int64(0); pg < 4096; pg++ {
				tr.Touch(h, ((pg*7+int64(g)*13)%3000)*4096)
			}
		}(g)
	}
	wg.Wait()
	if got := p.Resident(); got > capacity {
		t.Fatalf("resident = %d exceeds capacity %d", got, capacity)
	}
	var faults, hits uint64
	for _, tr := range trackers {
		faults += tr.Faults()
		hits += tr.Hits()
	}
	if p.Faults() != faults || p.Hits() != hits {
		t.Fatalf("pool faults/hits = %d/%d, tracker sums %d/%d",
			p.Faults(), p.Hits(), faults, hits)
	}
	if faults+hits != goroutines*4096 {
		t.Fatalf("accounted touches = %d, want %d", faults+hits, goroutines*4096)
	}
}
