package bat

import (
	"cmp"
	"slices"
	"sort"
	"sync"

	"repro/internal/storage"
)

// Datavector is the search-accelerator extension of Section 5.2. For an
// attribute BAT that is stored ordered on tail (to favour value→oid access),
// the datavector supplies the opposite oid→value direction: the class extent
// (kept sorted on oid) plus a value vector positionally synced with it.
//
// The LOOKUP memo implements lines 5–15 of the paper's pseudo-code: the
// first datavector semijoin against a given right operand performs
// probe-based binary search of each oid into the extent and records the hit
// positions; subsequent semijoins against the same operand reuse the array
// and only pay for fetching values out of the vector.
type Datavector struct {
	// Extent holds the class oids in ascending order. When the extent is
	// dense (the common case straight after bulk load) Extent is nil and
	// Base/N describe the sequence Base .. Base+N-1, occupying zero space
	// like a void column.
	Extent []OID
	Base   OID
	N      int

	// Vector holds the attribute values in extent position order.
	Vector Column

	extHeap storage.HeapID

	// LOOKUP memo, keyed by right operand. Shared across concurrent
	// sessions, so the map is lock-guarded and each entry is a
	// singleflight publication point. memoBytes tracks the bytes the memo
	// pins (keys reference whole BATs, entries hold lookup arrays) for
	// the eviction budget.
	mu        sync.Mutex
	lookups   map[*BAT]*dvMemo
	memoBytes int64
}

// dvMemo is one memoized LOOKUP array; construction is singleflight per
// right operand (the entry lock is held for the build, so concurrent
// semijoins against the same operand coalesce onto one probe pass).
type dvMemo struct {
	mu     sync.Mutex
	built  bool
	lookup []int32
}

// dvMemoMax and dvMemoMaxBytes bound the memo: the map is keyed by
// right-operand identity, and under a long-running multi-session server
// most right operands are per-query intermediates that never recur — each
// key strongly references its whole (possibly dead) BAT, invisible to the
// engine's live-bytes accounting. Past either cap — entry count, or bytes
// pinned by keys plus lookup arrays — the whole memo is dropped: it is a
// pure optimization, and the stable keys (base BATs, cached mirrors)
// repopulate on the next probe.
const (
	dvMemoMax      = 256
	dvMemoMaxBytes = 4 << 20
)

// NewDenseDatavector builds a datavector over the dense extent
// base..base+vector.Len()-1.
func NewDenseDatavector(base OID, vector Column) *Datavector {
	return &Datavector{Base: base, N: vector.Len(), Vector: vector,
		lookups: make(map[*BAT]*dvMemo)}
}

// NewDatavector builds a datavector over an explicit sorted extent.
func NewDatavector(extent []OID, vector Column) *Datavector {
	if len(extent) != vector.Len() {
		panic("bat: datavector extent/vector length mismatch")
	}
	return &Datavector{Extent: extent, N: len(extent), Vector: vector,
		extHeap: storage.NextHeapID(), lookups: make(map[*BAT]*dvMemo)}
}

// Len reports the extent size.
func (dv *Datavector) Len() int { return dv.N }

// ByteSize reports the accelerator's storage footprint.
func (dv *Datavector) ByteSize() int64 {
	return int64(len(dv.Extent))*4 + dv.Vector.ByteSize()
}

// Probe locates oid x in the extent, returning its position and whether it
// exists. It is "probedlookup(EXTENT, X)" from the pseudo-code: O(1) for a
// dense extent, binary search otherwise. Probe accounts nothing; operators
// probe through ProbeEach.
func (dv *Datavector) Probe(x OID) (int, bool) {
	if dv.Extent == nil {
		i := int(x) - int(dv.Base)
		if i < 0 || i >= dv.N {
			return 0, false
		}
		return i, true
	}
	if i := dv.search(x); i < len(dv.Extent) && dv.Extent[i] == x {
		return i, true
	}
	return 0, false
}

// search returns the position of the first extent oid >= x, len(Extent)
// when there is none.
func (dv *Datavector) search(x OID) int {
	return sort.Search(len(dv.Extent), func(i int) bool { return dv.Extent[i] >= x })
}

// ProbeEach probes oid(0), ..., oid(n-1) into the extent, calling
// hit(i, pos) for every oid found, in order. An explicit extent is a stored
// heap: each binary search is charged the extent entry it ended on — hit or
// miss, but only an entry that exists (a probe above every extent oid ends
// past the heap and reads nothing) — and the pass reaches the pager as one
// batch. A dense extent occupies no storage and is probed by arithmetic.
func (dv *Datavector) ProbeEach(p *storage.Tracker, n int, oid func(int) OID, hit func(i, pos int)) {
	if dv.Extent == nil || p == nil {
		for i := 0; i < n; i++ {
			if pos, ok := dv.Probe(oid(i)); ok {
				hit(i, pos)
			}
		}
		return
	}
	ended := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		x := oid(i)
		pos := dv.search(x)
		if pos == len(dv.Extent) {
			continue
		}
		ended = append(ended, int32(pos))
		if dv.Extent[pos] == x {
			hit(i, pos)
		}
	}
	p.TouchPositions(dv.extHeap, 0, 4, ended)
}

// DenseExtent reports whether the extent is the dense sequence
// base..base+n-1, in which case probes and oid materialization are pure
// arithmetic and callers can run them as inline loops.
func (dv *Datavector) DenseExtent() (dense bool, base OID, n int) {
	if dv.Extent != nil {
		return false, 0, 0
	}
	return true, dv.Base, dv.N
}

// OIDAt returns the oid at extent position pos.
func (dv *Datavector) OIDAt(pos int) OID {
	if dv.Extent == nil {
		return dv.Base + OID(pos)
	}
	return dv.Extent[pos]
}

// memo returns the entry for right operand r, creating it when create is
// set. Creation evicts the whole memo at either cap (see dvMemoMax).
func (dv *Datavector) memo(r *BAT, create bool) *dvMemo {
	dv.mu.Lock()
	defer dv.mu.Unlock()
	e := dv.lookups[r]
	if e == nil && create {
		if len(dv.lookups) >= dvMemoMax || dv.memoBytes >= dvMemoMaxBytes {
			clear(dv.lookups)
			dv.memoBytes = 0
		}
		e = &dvMemo{}
		dv.lookups[r] = e
		dv.memoBytes += memoPinned(r)
	}
	return e
}

// memoPinned estimates the bytes a memo entry for key r pins beyond the
// base data: the lookup array (~one int32 per r row), plus r's own
// transient backing — persistent (base) columns stay alive in the database
// env regardless of the memo, and views own no backing, so charging either
// would let one large stable key saturate the budget and flush the memo on
// every insertion.
func memoPinned(r *BAT) int64 {
	pinned := int64(r.Len()) * 4
	for _, c := range []Column{r.H, r.T} {
		if c.Heap() == 0 {
			pinned += c.OwnedBytes()
		}
	}
	return pinned
}

// Lookup returns the memoized LOOKUP array for right operand r, or nil if
// no semijoin against r has completed yet.
func (dv *Datavector) Lookup(r *BAT) []int32 {
	e := dv.memo(r, false)
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.built {
		return nil
	}
	return e.lookup
}

// LookupOrBuild returns the LOOKUP array for right operand r, running build
// and memoizing its result on first use. Construction is singleflight:
// concurrent semijoins against the same r wait for one build instead of
// duplicating the probe pass (lines 5–15 of the Section 5.2.1 pseudo-code
// run once; everyone else starts at the fetch phase).
func (dv *Datavector) LookupOrBuild(r *BAT, build func() []int32) []int32 {
	e := dv.memo(r, true)
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.built {
		e.lookup = build()
		e.built = true
		accelBuilds.Add(1)
	}
	return e.lookup
}

// Memoize records the LOOKUP array for right operand r.
func (dv *Datavector) Memoize(r *BAT, lookup []int32) {
	e := dv.memo(r, true)
	e.mu.Lock()
	e.lookup, e.built = lookup, true
	e.mu.Unlock()
}

// DropLookups clears the memo (used between benchmark repetitions).
func (dv *Datavector) DropLookups() {
	dv.mu.Lock()
	clear(dv.lookups)
	dv.memoBytes = 0
	dv.mu.Unlock()
}

// SortedPerm returns the stable permutation that orders col's rows
// ascending, or descending when desc; ties keep row order either way. It is
// the one sort primitive behind SortOnTail and MIL's sort operator: a stable
// sort of contiguous (key, position) pairs, compared on the key alone.
func SortedPerm(col Column, desc bool) []int32 {
	switch c := col.(type) {
	case *OIDCol:
		return sortedPerm(c.V, desc)
	case *IntCol:
		return sortedPerm(c.V, desc)
	case *FltCol:
		return sortedPerm(c.V, desc)
	case *DateCol:
		return sortedPerm(c.V, desc)
	case *ChrCol:
		return sortedPerm(c.V, desc)
	case *StrCol:
		return sortedPerm(c.strings(), desc)
	}
	// void and bit columns order by the integer payload of their boxed values
	keys := make([]int64, col.Len())
	for i := range keys {
		keys[i] = col.Get(i).I
	}
	return sortedPerm(keys, desc)
}

// sortedPerm stably sorts the rows of keys under cmp.Compare's total order:
// a NaN orders before every other float (after, descending), so the other
// values come out sorted whatever NaNs the column holds.
func sortedPerm[E Ordered | string](keys []E, desc bool) []int32 {
	type keyPos struct {
		key E
		pos int32
	}
	ps := make([]keyPos, len(keys))
	for i, k := range keys {
		ps[i] = keyPos{k, int32(i)}
	}
	slices.SortStableFunc(ps, func(a, b keyPos) int {
		if desc {
			return cmp.Compare(b.key, a.key)
		}
		return cmp.Compare(a.key, b.key)
	})
	perm := make([]int32, len(ps))
	for i, p := range ps {
		perm[i] = p.pos
	}
	return perm
}

// SortOnTail returns a copy of b reordered ascending on tail values — the
// physical layout Section 5.2 prescribes for all attribute BATs ("store all
// attributes ordered on tail"). Accelerators of b are not inherited; attach
// a datavector built from the oid-ordered original to preserve oid→value
// access.
func SortOnTail(b *BAT) *BAT { return ReorderOnTail(b.Name, b, SortedPerm(b.T, false), false) }

// ReorderOnTail builds b's rows, named name, in perm order, perm being its
// tail order (SortedPerm's, descending when desc). It is the one sort
// construction — MIL's sort operator, SortOnTail and every tail-ordered
// attribute BAT build through it. A void head survives exactly when perm is
// the identity (Gather then yields a view).
func ReorderOnTail(name string, b *BAT, perm []int32, desc bool) *BAT {
	rel := Sorted
	if desc {
		rel = Reordered
	}
	return Derive(New(name, Gather(b.H, perm), Gather(b.T, perm), 0), rel, b, nil)
}

// AttachDatavector builds the datavector for a freshly loaded, oid-ordered
// attribute BAT (dense head starting at base), reorders the BAT on tail, and
// attaches the accelerator: the two-step construction of Fig. 7 ("(1) Create
// Datavector, (2) Sort on Tail").
func AttachDatavector(oidOrdered *BAT) *BAT {
	return attachDatavector(oidOrdered, SortedPerm(oidOrdered.T, false))
}

// attachDatavector is AttachDatavector with the tail order already chosen.
func attachDatavector(oidOrdered *BAT, perm []int32) *BAT {
	base := OID(0)
	if v, ok := oidOrdered.H.(*VoidCol); ok {
		base = v.Seq
	} else if oidOrdered.Len() > 0 {
		base = OID(oidOrdered.H.Get(0).I)
	}
	sorted := ReorderOnTail(oidOrdered.Name, oidOrdered, perm, false)
	sorted.SetDatavector(NewDenseDatavector(base, oidOrdered.T))
	return sorted
}

// AppendAttr is the insert primitive on a tail-ordered attribute BAT: it
// returns prev with the rows of frag appended under the next oids, equal in
// layout, properties and datavector to
//
//	AttachDatavector(New(name, NewVoid(base, n+k), Concat(prev's vector, frag), 0))
//
// without re-sorting the n existing rows. Only frag is sorted; each of its
// k rows is then placed by binary search into prev's tail order (after
// every equal old row — the order a stable sort of old‖new gives, since new
// rows sit at higher positions), and the old positions in between are
// copied from prev's head: O(n + k log k) instead of O((n+k) log(n+k)).
// prev must carry a dense datavector and be tail-ordered on it, as
// AttachDatavector and AppendAttr leave it.
func AppendAttr(prev *BAT, frag Column) *BAT {
	dv := prev.Datavector()
	n, k := dv.Len(), frag.Len()
	vec := Concat(dv.Vector, frag)
	old := headPositions(prev.H, dv.Base)
	perm := make([]int32, 0, n+k)
	cut := 0
	for _, j := range SortedPerm(frag, false) {
		// sortLess orders same-kind values exactly as SortedPerm; only the
		// k log n probes box.
		x := vec.Get(n + int(j))
		next := cut + sort.Search(n-cut, func(i int) bool { return sortLess(x, vec.Get(int(old[cut+i]))) })
		perm = append(append(perm, old[cut:next]...), int32(n)+j)
		cut = next
	}
	perm = append(perm, old[cut:]...)
	return attachDatavector(New(prev.Name, NewVoid(dv.Base, n+k), vec, 0), perm)
}

// sortLess is SortedPerm's ascending order on boxed values of one kind:
// Compare's, with a NaN before every other float.
func sortLess(x, y Value) bool {
	if x.K == KFlt && y.K == KFlt {
		return cmp.Less(x.F, y.F)
	}
	return Compare(x, y) < 0
}

// headPositions returns the datavector position of each row of a
// tail-ordered BAT, in row order: its head oid less the extent base.
func headPositions(h Column, base OID) []int32 {
	pos := make([]int32, h.Len())
	if v, ok := h.(*VoidCol); ok {
		for i := range pos {
			pos[i] = int32(v.Seq-base) + int32(i)
		}
		return pos
	}
	for i, o := range h.(*OIDCol).V {
		pos[i] = int32(o - base)
	}
	return pos
}
