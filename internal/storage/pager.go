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
// The pool is lock-striped so that concurrent sessions of the query service
// can share one Pager — the OS page cache they stand in for is likewise one
// shared structure. Pages hash to stripes, each stripe guards its own table,
// LRU list and fault/hit counters with its own mutex (so reading the
// aggregates mid-query is race-free without a pool-global counter cache
// line every visit would contend on).
//
// Accounting is a batch contract. Per-query attribution — "how many faults
// did THIS query take", the Figure 9/10 observable — is handled by Tracker,
// a per-query view of the shared pool. An operator hands the tracker what it
// is about to read as one call — a byte range (TouchRange), a position list
// over fixed-width entries (TouchPositions) or over an offset-addressed
// heap (TouchSpans) — and the tracker counts one touch per page of the
// range or per position of the list, exactly as a loop of single Touch
// calls would, but visits the pool once per run of touches that land on the
// same page: the first touch of a run decides fault or hit, the rest are
// hits on the page now at the head of its stripe's LRU. Outcomes accumulate
// in the batch and reach the tracker's atomics once. What is exact where:
//
//   - A pool that never evicts (capacity <= 0: the serving default and the
//     paper's cold-start model) gives every query the counts of the
//     single-touch loop in every execution mode — faults are the distinct
//     pages not yet resident, hits are the other touches, and neither
//     depends on order. Such a batch is folded to one visit per distinct
//     page.
//   - An evicting pool sees each batch's touches in the order given, with
//     only adjacent same-page touches merged, so one batch leaves the
//     counters, the resident set and the LRU order exactly as the
//     single-touch loop over that list does. Across batches the order is
//     the operators': they touch column at a time — the head positions of a
//     gather, then its tail positions; a string column's offsets, then its
//     characters — which is the order a gather reads memory in. Bounded-pool
//     counts are deterministic for one session under that order.
//
// Every pool fault and hit is attributed to exactly one tracker, also when
// an injected fault panics in the middle of a batch (see FaultInjector).
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

// Stripe sizing. A bounded pool splits its capacity across stripes, turning
// the global LRU into per-stripe LRUs (the standard sharded approximation);
// to keep each stripe's LRU meaningful — and to keep small bounded pools
// bit-identical to the pre-striping global LRU — the stripe count shrinks
// until every stripe holds at least minStripePages pages. An unbounded pool
// never evicts, so striping cannot change its fault counts and it always
// uses maxStripes.
const (
	maxStripes     = 64 // power of two: stripe index is a hash mask
	minStripePages = 32
)

// stripe is one lock-striped partition of the pool: a private page table,
// LRU list and fault/hit counters under a private mutex — counting under
// the already-held stripe lock avoids a pool-global counter cache line
// that every touch would otherwise contend on. The trailing pad keeps
// adjacent stripes off one cache line.
type stripe struct {
	mu       sync.Mutex
	table    map[pageKey]*pageNode
	head     *pageNode // most recently used
	tail     *pageNode // least recently used
	capacity int       // max resident pages in this stripe; <= 0 unbounded
	faults   uint64
	hits     uint64

	_ [64]byte
}

// Pager is an LRU buffer pool of fixed-size pages with fault accounting.
// It is safe for concurrent use: concurrent sessions of the query service
// share one Pager the way Monet's sessions share the OS page cache. Use
// NewTracker for per-query fault attribution; the Pager's own counters
// aggregate across all users.
type Pager struct {
	pageSize int64
	shift    uint   // log2(pageSize) when it is a power of two above 1, else 0; see pageOf
	capacity int    // max resident pages across all stripes; <= 0 unbounded
	mask     uint64 // len(stripes) - 1

	// injector, when non-nil, applies a fault-injection plan to every
	// persistent touch (chaos harness; see fault.go). Checked before the
	// stripe lock so an injected panic never wedges the pool.
	injector atomic.Pointer[FaultInjector]

	stripes []stripe
}

// SetFaultInjector attaches (or, with nil, removes) a fault injector. Safe
// to call while other sessions touch the pool.
func (p *Pager) SetFaultInjector(f *FaultInjector) {
	if p == nil {
		return
	}
	p.injector.Store(f)
}

// stripeCount picks the stripe count for a pool capacity; see the sizing
// comment above.
func stripeCount(capacity int) int {
	if capacity <= 0 {
		return maxStripes
	}
	s := 1
	for s*2 <= maxStripes && capacity/(s*2) >= minStripePages {
		s *= 2
	}
	return s
}

// NewPager returns a Pager with the given page size in bytes and capacity in
// pages. pageSize <= 0 selects DefaultPageSize. capacity <= 0 means the pool
// never evicts (every page faults exactly once — the "cold start" model of
// Section 5.2.2).
func NewPager(pageSize int64, capacity int) *Pager {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	n := stripeCount(capacity)
	p := &Pager{
		pageSize: pageSize,
		shift:    pageShift(pageSize),
		capacity: capacity,
		mask:     uint64(n - 1),
		stripes:  make([]stripe, n),
	}
	for i := range p.stripes {
		s := &p.stripes[i]
		s.table = make(map[pageKey]*pageNode)
		if capacity > 0 {
			// Distribute the capacity exactly: total resident never
			// exceeds the configured bound.
			s.capacity = capacity / n
			if i < capacity%n {
				s.capacity++
			}
		}
	}
	return p
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

// Stripes reports the number of lock stripes the pool was built with.
func (p *Pager) Stripes() int {
	if p == nil {
		return 0
	}
	return len(p.stripes)
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
// aggregated over every session touching the pool. The counters live
// per-stripe (updated under the stripe lock each touch already holds), so
// reading them mid-query is race-free; like Resident, a read concurrent
// with touches is a sum of per-stripe snapshots, not one instant.
func (p *Pager) Faults() uint64 {
	if p == nil {
		return 0
	}
	var n uint64
	for i := range p.stripes {
		s := &p.stripes[i]
		s.mu.Lock()
		n += s.faults
		s.mu.Unlock()
	}
	return n
}

// Hits reports the number of page hits since the last ResetStats,
// aggregated over every session touching the pool.
func (p *Pager) Hits() uint64 {
	if p == nil {
		return 0
	}
	var n uint64
	for i := range p.stripes {
		s := &p.stripes[i]
		s.mu.Lock()
		n += s.hits
		s.mu.Unlock()
	}
	return n
}

// ResetStats zeroes the aggregate fault and hit counters without touching
// pool state. Trackers keep their own counters and are unaffected.
func (p *Pager) ResetStats() {
	if p == nil {
		return
	}
	for i := range p.stripes {
		s := &p.stripes[i]
		s.mu.Lock()
		s.faults, s.hits = 0, 0
		s.mu.Unlock()
	}
}

// DropAll empties the pool, simulating a cold buffer (e.g. between benchmark
// queries). Counters are unaffected.
func (p *Pager) DropAll() {
	if p == nil {
		return
	}
	for i := range p.stripes {
		s := &p.stripes[i]
		s.mu.Lock()
		s.table = make(map[pageKey]*pageNode)
		s.head, s.tail = nil, nil
		s.mu.Unlock()
	}
}

// Resident reports the number of pages currently in the pool.
func (p *Pager) Resident() int {
	if p == nil {
		return 0
	}
	n := 0
	for i := range p.stripes {
		s := &p.stripes[i]
		s.mu.Lock()
		n += len(s.table)
		s.mu.Unlock()
	}
	return n
}

// Touch records an access to byte offset off in heap h. Exactly one page is
// touched. Accesses to transient storage (heap 0) are ignored.
func (p *Pager) Touch(h HeapID, off int64) {
	if p == nil || h == 0 {
		return
	}
	p.touchRun(p.injector.Load(), pageKey{h, p.pageOf(off)}, 1)
}

// TouchRange records a sequential access to bytes [off, off+n) of heap h,
// touching each page in the range once. Accesses to transient storage
// (heap 0) are ignored.
func (p *Pager) TouchRange(h HeapID, off, n int64) {
	if p == nil || h == 0 || n <= 0 {
		return
	}
	inj := p.injector.Load()
	last := p.pageOf(off + n - 1)
	for pg := p.pageOf(off); pg <= last; pg++ {
		p.touchRun(inj, pageKey{h, pg}, 1)
	}
}

// touchRun is the one pool visit: n >= 1 touches of page k with no other
// touch of this caller in between. The first decides fault versus hit
// against the page's stripe; the other n-1 find the page resident at the
// head of that stripe's LRU, so they are hits that move nothing — exactly
// what n single touches do — and are booked under the same lock. It reports
// whether the first touch faulted. inj is the caller's one load of the
// pool's injector, so a batch runs wholly with it or wholly without.
func (p *Pager) touchRun(inj *FaultInjector, k pageKey, n uint64) bool {
	if inj != nil {
		inj.visit(k, n) // may sleep or panic; no locks held, nothing recorded yet
	}
	// splitmix-style mix of (heap, page): heaps are small sequential ints
	// and page runs are sequential, so both need scrambling before masking.
	x := uint64(k.heap)*0x9E3779B97F4A7C15 + uint64(k.page)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	s := &p.stripes[x&p.mask]

	s.mu.Lock()
	fault := s.touch(k)
	s.hits += n - 1
	s.mu.Unlock()
	return fault
}

// touch is the stripe-local LRU update; callers hold s.mu.
func (s *stripe) touch(k pageKey) bool {
	if n, ok := s.table[k]; ok {
		s.hits++
		s.moveToFront(n)
		return false
	}
	s.faults++
	n := &pageNode{key: k}
	s.table[k] = n
	s.pushFront(n)
	if s.capacity > 0 && len(s.table) > s.capacity {
		s.evict()
	}
	return true
}

func (s *stripe) pushFront(n *pageNode) {
	n.prev = nil
	n.next = s.head
	if s.head != nil {
		s.head.prev = n
	}
	s.head = n
	if s.tail == nil {
		s.tail = n
	}
}

func (s *stripe) moveToFront(n *pageNode) {
	if s.head == n {
		return
	}
	// unlink
	if n.prev != nil {
		n.prev.next = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	}
	if s.tail == n {
		s.tail = n.prev
	}
	s.pushFront(n)
}

func (s *stripe) evict() {
	n := s.tail
	if n == nil {
		return
	}
	if n.prev != nil {
		n.prev.next = nil
	}
	s.tail = n.prev
	if s.head == n {
		s.head = nil
	}
	delete(s.table, n.key)
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
	if t.pool.touchRun(t.pool.injector.Load(), pageKey{h, t.pool.pageOf(off)}, 1) {
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
	b := t.begin(h)
	if b.inj != nil {
		defer b.book()
	}
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
	b := t.begin(h)
	if b.inj != nil {
		defer b.book()
	}
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
	b := t.begin(h)
	if b.inj != nil {
		defer b.book()
	}
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
// are added to the tracker once. The injector is loaded once per batch.
//
// With an injector attached a pool visit may panic mid-batch. The runs
// visited before it are already recorded in the pool, so those calls defer
// book: losing their tracker counts would break the Σ(trackers) = pool
// conservation the chaos suite asserts. The run that panicked, and
// everything after it, is recorded nowhere.
type batch struct {
	t    *Tracker
	inj  *FaultInjector
	heap HeapID

	pg int64  // page of the pending run
	n  uint64 // its length; 0 = no run pending

	faults, hits uint64
}

func (t *Tracker) begin(h HeapID) batch {
	return batch{t: t, inj: t.pool.injector.Load(), heap: h}
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
	b.n = 0 // a panicking visit leaves no run pending for the deferred book
	if b.t.pool.touchRun(b.inj, pageKey{b.heap, b.pg}, n) {
		b.faults++
		n--
	}
	b.hits += n
}

// book adds the accumulated outcomes to the tracker and clears them, so the
// deferred call of an injected batch adds nothing after a normal end.
func (b *batch) book() {
	if b.faults > 0 {
		b.t.faults.Add(b.faults)
	}
	if b.hits > 0 {
		b.t.hits.Add(b.hits)
	}
	b.faults, b.hits = 0, 0
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
