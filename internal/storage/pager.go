// Package storage simulates the paged, memory-mapped storage layer that the
// Monet kernel of Boncz et al. (ICDE 1998) obtains from the operating system.
//
// Monet has no page-based buffer manager of its own: BATs live in memory
// mapped files and the MMU pages them in on demand. The paper's evaluation
// (Figures 8, 9 and 10) is stated in terms of page faults, so this package
// provides the equivalent observable: every heap access performed by the BAT
// algebra is routed through a Pager, which maintains an LRU pool of fixed
// size pages and counts the faults that a cold or capacity-limited buffer
// would incur.
//
// The Pager is a measurement instrument: cmd/tpcd, cmd/moaquery, the repo
// benchmark's traced pass and the tests attach one to observe faults. The
// query service serves without it — what the OS actually pages is sampled
// by SampleResidency instead.
//
// Touches only count: the Pager shapes no real paging and fails nothing.
// Every touch goes through a Tracker, a per-query view of the shared pool
// that carries per-query attribution — "how many faults did THIS query
// take", the Figure 9/10 observable. An operator hands the tracker what it
// is about to read as one call — a byte range (TouchRange), a position list
// over fixed-width entries (TouchPositions) or over an offset-addressed
// heap (TouchSpans) — and the tracker counts one touch per page of the
// range or per position of the list, exactly as a loop of single Touch
// calls would, but visits the pool once per run of touches that land on the
// same page: the first touch of a run decides fault or hit, the rest are
// hits on the page now at the head of the LRU. Outcomes accumulate in the
// batch and reach the tracker's atomics once. What is exact where:
//
//   - A pool that never evicts (capacity <= 0: the default and the paper's
//     cold-start model) gives every query the counts of the single-touch
//     loop in every execution mode — faults are the distinct pages not yet
//     resident, hits are the other touches, and neither depends on order.
//     Such a batch is folded to one visit per distinct page.
//   - An evicting pool sees each batch's touches in the order given, with
//     only adjacent same-page touches merged, so one batch leaves the
//     counters, the resident set and the LRU order exactly as the
//     single-touch loop over that list does. Across batches the order is
//     the operators': they touch column at a time — the head positions of a
//     gather, then its tail positions; a string column's offsets, then its
//     characters — which is the order a gather reads memory in. Bounded-pool
//     counts are deterministic for one session under that order.
//
// Every pool fault and hit is attributed to exactly one tracker.
//
// A nil *Pager (or *Tracker) is valid everywhere and disables accounting,
// which is the "database hot-set fits in main memory" regime the paper
// assumes for its main-memory algorithms.
package storage

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// DefaultPageSize is the page size used throughout the paper's cost model
// (B = 4096 in Section 5.2.2).
const DefaultPageSize = 4096

// HeapID identifies one storage heap (one column's BUN heap or string heap).
// IDs are allocated by NextHeapID (or Pager.NewHeap) and are never reused.
// The zero HeapID marks transient storage: intermediate results live in
// main memory (the paper's hot-set assumption) and never fault.
type HeapID uint64

// heapCounter allocates globally unique heap identifiers; see NextHeapID.
var heapCounter uint64

// NextHeapID allocates a fresh heap identifier for persistent storage.
func NextHeapID() HeapID {
	return HeapID(atomic.AddUint64(&heapCounter, 1))
}

type pageKey struct {
	heap HeapID
	page int64
}

type pageNode struct {
	key        pageKey
	prev, next *pageNode
}

// Pager is an LRU buffer pool of fixed-size pages with fault accounting.
// It is safe for concurrent use: one mutex guards the page table, the LRU
// list and the counters, so the morsel workers of one query (or several
// measuring sessions) may share a Pager. Use NewTracker for per-query fault
// attribution; the Pager's own counters aggregate across all users.
type Pager struct {
	pageSize int64
	shift    uint // log2(pageSize) when it is a power of two above 1, else 0; see pageOf
	capacity int  // max resident pages; <= 0 unbounded

	mu     sync.Mutex
	table  map[pageKey]*pageNode
	head   *pageNode // most recently used
	tail   *pageNode // least recently used
	faults uint64
	hits   uint64
	visits uint64 // touchRun calls: what the batch entries save
}

// NewPager returns a Pager with the given page size in bytes and capacity in
// pages. pageSize <= 0 selects DefaultPageSize. capacity <= 0 means the pool
// never evicts (every page faults exactly once — the "cold start" model of
// Section 5.2.2).
func NewPager(pageSize int64, capacity int) *Pager {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	return &Pager{
		pageSize: pageSize,
		shift:    pageShift(pageSize),
		capacity: capacity,
		table:    make(map[pageKey]*pageNode),
	}
}

// pageShift returns log2(pageSize) for a power of two, else 0.
func pageShift(pageSize int64) uint {
	if pageSize&(pageSize-1) != 0 {
		return 0
	}
	return uint(bits.TrailingZeros64(uint64(pageSize)))
}

// pageOf maps a byte offset to its page. The batch entries compute one page
// per position, where a 64-bit division is a third of their cost; the usual
// power-of-two page sizes shift instead.
func (p *Pager) pageOf(off int64) int64 {
	if p.shift != 0 {
		return off >> p.shift
	}
	return off / p.pageSize
}

// PageSize reports the page size in bytes.
func (p *Pager) PageSize() int64 {
	if p == nil {
		return DefaultPageSize
	}
	return p.pageSize
}

// NewHeap allocates a fresh heap identifier (shared namespace with
// NextHeapID, so ids never collide across allocators).
func (p *Pager) NewHeap() HeapID {
	if p == nil {
		return 0
	}
	return NextHeapID()
}

// Faults reports the number of page faults since the last ResetStats,
// aggregated over every session touching the pool.
func (p *Pager) Faults() uint64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.faults
}

// Hits reports the number of page hits since the last ResetStats,
// aggregated over every session touching the pool.
func (p *Pager) Hits() uint64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits
}

// ResetStats zeroes the aggregate fault and hit counters without touching
// pool state. Trackers keep their own counters and are unaffected.
func (p *Pager) ResetStats() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.faults, p.hits = 0, 0
	p.mu.Unlock()
}

// DropAll empties the pool, simulating a cold buffer (e.g. between benchmark
// queries). Counters are unaffected.
func (p *Pager) DropAll() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.table = make(map[pageKey]*pageNode)
	p.head, p.tail = nil, nil
	p.mu.Unlock()
}

// Resident reports the number of pages currently in the pool.
func (p *Pager) Resident() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.table)
}

// touchRun is the one pool visit: n >= 1 touches of page k with no other
// touch of this caller in between. The first decides fault versus hit; the
// other n-1 find the page resident at the head of the LRU, so they are hits
// that move nothing — exactly what n single touches do — and are booked
// under the same lock. It reports whether the first touch faulted.
func (p *Pager) touchRun(k pageKey, n uint64) bool {
	p.mu.Lock()
	fault := p.touch(k)
	p.hits += n - 1
	p.visits++
	p.mu.Unlock()
	return fault
}

// touch is the LRU update; callers hold p.mu.
func (p *Pager) touch(k pageKey) bool {
	if n, ok := p.table[k]; ok {
		p.hits++
		p.moveToFront(n)
		return false
	}
	p.faults++
	n := &pageNode{key: k}
	p.table[k] = n
	p.pushFront(n)
	if p.capacity > 0 && len(p.table) > p.capacity {
		p.evict()
	}
	return true
}

func (p *Pager) pushFront(n *pageNode) {
	n.prev = nil
	n.next = p.head
	if p.head != nil {
		p.head.prev = n
	}
	p.head = n
	if p.tail == nil {
		p.tail = n
	}
}

func (p *Pager) moveToFront(n *pageNode) {
	if p.head == n {
		return
	}
	// unlink
	if n.prev != nil {
		n.prev.next = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	}
	if p.tail == n {
		p.tail = n.prev
	}
	p.pushFront(n)
}

func (p *Pager) evict() {
	n := p.tail
	if n == nil {
		return
	}
	if n.prev != nil {
		n.prev.next = nil
	}
	p.tail = n.prev
	if p.head == n {
		p.head = nil
	}
	delete(p.table, n.key)
}

// Tracker is one query's view of a shared Pager: every touch is forwarded
// to the shared pool — whose state alone decides hit versus fault — and the
// outcome is also recorded in the tracker's own counters. This is how the
// per-query Figure 9/10 fault observable survives concurrency: N sessions
// sharing one pool each read their own faults off their own tracker, instead
// of differencing the pool's aggregate counter around execution (which
// interleaves concurrent sessions' faults into each other's deltas).
//
// Every pool fault and hit is attributed to exactly one tracker, so summing
// tracker counters over all queries reproduces the pool counters.
//
// A nil *Tracker is valid and disables accounting. The counters are atomics
// so a tracker may be read (e.g. by a metrics scrape) while its query runs.
type Tracker struct {
	pool *Pager

	faults atomic.Uint64
	hits   atomic.Uint64
}

// NewTracker returns a fresh per-query tracker over the pool. A nil Pager
// yields a nil Tracker.
func (p *Pager) NewTracker() *Tracker {
	if p == nil {
		return nil
	}
	return &Tracker{pool: p}
}

// Pool exposes the shared Pager the tracker attributes into.
func (t *Tracker) Pool() *Pager {
	if t == nil {
		return nil
	}
	return t.pool
}

// Faults reports the number of page faults attributed to this tracker.
func (t *Tracker) Faults() uint64 {
	if t == nil {
		return 0
	}
	return t.faults.Load()
}

// Hits reports the number of page hits attributed to this tracker.
func (t *Tracker) Hits() uint64 {
	if t == nil {
		return 0
	}
	return t.hits.Load()
}

// Touch records an access to byte offset off in heap h against the shared
// pool, attributing the outcome to this tracker. Exactly one page is
// touched. Accesses to transient storage (heap 0) are ignored. Operators
// that know their positions up front use the batch entries below; Touch is
// for access paths that discover them one at a time (the n-ary baseline).
func (t *Tracker) Touch(h HeapID, off int64) {
	if t == nil || h == 0 {
		return
	}
	if t.pool.touchRun(pageKey{h, t.pool.pageOf(off)}, 1) {
		t.faults.Add(1)
	} else {
		t.hits.Add(1)
	}
}

// TouchRange records a sequential access to bytes [off, off+n) of heap h
// against the shared pool, touching each page in the range once and
// attributing the outcomes to this tracker. Accesses to transient storage
// (heap 0) are ignored.
func (t *Tracker) TouchRange(h HeapID, off, n int64) {
	if t == nil || h == 0 || n <= 0 {
		return
	}
	b := batch{t: t, heap: h}
	last := t.pool.pageOf(off + n - 1)
	for pg := t.pool.pageOf(off); pg <= last; pg++ {
		b.page(pg)
	}
	b.end()
}

// TouchPositions records one access per element of pos, in order, to a heap
// of width-byte entries: element i touches the page holding byte
// (base+i)*width. It is the batch form of one Touch per position — the
// tracker and pool counters, and the pool's LRU state, end up exactly as
// that loop leaves them — at one pool visit per run of same-page touches
// (evicting pool) or per distinct page (unbounded pool; see fold).
func (t *Tracker) TouchPositions(h HeapID, base, width int64, pos []int32) {
	if t == nil || h == 0 || len(pos) == 0 {
		return
	}
	b := batch{t: t, heap: h}
	p := t.pool
	if b.folds(len(pos)) {
		lo, hi := extremes(pos)
		first := p.pageOf((base + int64(lo)) * width)
		if counts := foldCounts(first, p.pageOf((base+int64(hi))*width), len(pos)); counts != nil {
			for _, i := range pos {
				counts[p.pageOf((base+int64(i))*width)-first]++
			}
			b.endCounted(first, counts)
			return
		}
	}
	for _, i := range pos {
		b.page(p.pageOf((base + int64(i)) * width))
	}
	b.end()
}

// TouchSpans records, for each element i of pos in order, a sequential
// access to bytes [off[i], off[i+1]) of heap h — the batch form of one
// TouchRange per position over a variable-width heap addressed through an
// ascending offset array. Empty spans touch nothing.
func (t *Tracker) TouchSpans(h HeapID, off []uint32, pos []int32) {
	if t == nil || h == 0 || len(pos) == 0 {
		return
	}
	b := batch{t: t, heap: h}
	p := t.pool
	if b.folds(len(pos)) {
		lo, hi := extremes(pos)
		first := p.pageOf(int64(off[lo]))
		if counts := foldCounts(first, p.pageOf(int64(off[hi+1])), len(pos)); counts != nil {
			for _, i := range pos {
				if from, to := int64(off[i]), int64(off[i+1]); to > from {
					for pg, last := p.pageOf(from), p.pageOf(to-1); pg <= last; pg++ {
						counts[pg-first]++
					}
				}
			}
			b.endCounted(first, counts)
			return
		}
	}
	for _, i := range pos {
		if from, to := int64(off[i]), int64(off[i+1]); to > from {
			for pg, last := p.pageOf(from), p.pageOf(to-1); pg <= last; pg++ {
				b.page(pg)
			}
		}
	}
	b.end()
}

// batch carries one Tracker call through the pool. Touches of the same page
// that directly follow each other merge into one pending run (heap, pg, n)
// and reach the pool as a single touchRun; outcomes accumulate locally and
// are added to the tracker once.
type batch struct {
	t    *Tracker
	heap HeapID

	pg int64  // page of the pending run
	n  uint64 // its length; 0 = no run pending

	faults, hits uint64
}

// page appends one touch of page pg to the batch.
func (b *batch) page(pg int64) {
	if pg == b.pg && b.n > 0 {
		b.n++
		return
	}
	b.flush()
	b.pg, b.n = pg, 1
}

// flush sends the pending run to the pool.
func (b *batch) flush() {
	if b.n == 0 {
		return
	}
	n := b.n
	b.n = 0
	if b.t.pool.touchRun(pageKey{b.heap, b.pg}, n) {
		b.faults++
		n--
	}
	b.hits += n
}

// book adds the accumulated outcomes to the tracker.
func (b *batch) book() {
	if b.faults > 0 {
		b.t.faults.Add(b.faults)
	}
	if b.hits > 0 {
		b.t.hits.Add(b.hits)
	}
}

func (b *batch) end() {
	b.flush()
	b.book()
}

// Folding. An unbounded pool never evicts, so what a batch does to it does
// not depend on the order of its touches: the pages not yet resident fault
// once each, every other touch is a hit, and no later touch can tell the
// difference. Such a batch is therefore first counted per page and then
// visits the pool once per distinct page, in page order — a 120k-row random
// gather over a 235-page column costs at most 235 visits. An evicting pool
// keeps the order it was given.

// foldMinTouches is the batch length below which counting costs more than
// the visits it can save.
const foldMinTouches = 16

// folds reports whether a batch of n positions is to be counted per page.
func (b *batch) folds(n int) bool {
	return b.t.pool.capacity <= 0 && n >= foldMinTouches
}

// extremes returns the smallest and largest element of pos. They bound the
// batch's page span, because every layout maps ascending positions to
// ascending offsets.
func extremes(pos []int32) (lo, hi int32) {
	lo, hi = pos[0], pos[0]
	for _, i := range pos[1:] {
		if i < lo {
			lo = i
		} else if i > hi {
			hi = i
		}
	}
	return lo, hi
}

// foldCounts returns zeroed counters for pages first..last, or nil when the
// span holds more pages than the batch has positions: merging neighbours
// already costs such a batch at most one visit per position. The counters
// are never larger than the position list they summarize.
func foldCounts(first, last int64, positions int) []uint32 {
	if last-first >= int64(positions) {
		return nil
	}
	return make([]uint32, last-first+1)
}

// endCounted ends a folded batch: one run per page with a non-zero count.
func (b *batch) endCounted(first int64, counts []uint32) {
	for i, n := range counts {
		if n > 0 {
			b.pg, b.n = first+int64(i), uint64(n)
			b.flush()
		}
	}
	b.book()
}
