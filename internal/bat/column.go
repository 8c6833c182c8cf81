package bat

import (
	"cmp"
	"sort"
	"unsafe"

	"repro/internal/storage"
)

// A BAT column has one of three physical layouts (paper Fig. 2 and Section
// 5.2, footnote 2): void — a dense oid sequence occupying no storage;
// fixed-width — BUN entries holding the values themselves, one FixedCol
// instantiation per kind; and string — BUN entries holding byte-indices
// into an extra character heap.
//
// Columns are transient (heap 0, never faulting) until Persist assigns them
// a real heap id: only the loader persists columns, so fault accounting
// covers exactly the base data, matching the paper's measurements on
// memory-mapped persistent BATs.

// Column is one side (head or tail) of a BAT: a typed, dense array of
// values. Concrete implementations expose their backing slices for the
// operators' fast paths; Get is the generic boxed accessor. The interface
// is sealed: VoidCol, FixedCol[T] and StrCol are its only implementations,
// so a type switch over them (with the six FixedCol aliases) is exhaustive.
type Column interface {
	// Kind reports the column's atomic type.
	Kind() Kind
	// Len reports the number of entries.
	Len() int
	// Get returns the boxed value at position i.
	Get(i int) Value
	// Heap identifies the column's BUN heap for fault accounting.
	Heap() storage.HeapID
	// TouchPositions records one random access per element of pos, in order,
	// against the pager: the reads a Gather of those positions performs.
	// The whole list reaches the pager as one batch, which visits the pool
	// once per run of same-page touches instead of once per row.
	TouchPositions(p *storage.Tracker, pos []int32)
	// TouchRange records a sequential access to entries [i, i+n) against the
	// pager, accounting one page span instead of n single touches.
	TouchRange(p *storage.Tracker, i, n int)
	// TouchAll records a full sequential scan against the pager.
	TouchAll(p *storage.Tracker)
	// ByteSize reports the logical memory footprint in bytes.
	ByteSize() int64
	// OwnedBytes reports the bytes of backing storage this column owns:
	// equal to ByteSize for materialized columns, zero for views, whose
	// backing was charged once when its owning column was created. Memory
	// accounting sums owned bytes so view-heavy plans do not over-report
	// (ROADMAP: view-aware memory accounting).
	OwnedBytes() int64
	// Persist assigns the column a persistent heap id so that accesses to
	// it are fault-accounted. Idempotent; transient columns never fault.
	Persist()

	// The per-layout halves of SliceView, Gather, Concat, UnshareColumn,
	// SameColumn, MergeAfter and a datavector's growth. Being unexported
	// they also seal the interface.
	sliceView(lo, n int) Column
	gather(perm []int32) Column
	concat(b Column) Column
	place(add Column) []int32
	merge(at []int32, add Column) Column
	grow(add Column, r *room) (Column, *room)
	isView() bool
	unshare() Column
	first() unsafe.Pointer
}

// ---------------------------------------------------------------------------
// void: dense ascending oid sequence, zero storage (paper Section 5.2,
// footnote 2: "BATs that have the zero-space type void in one column").

// VoidCol is a virtual column holding the dense sequence Seq, Seq+1, ...
type VoidCol struct {
	Seq OID
	N   int
}

// NewVoid returns a void column of n entries starting at seq.
func NewVoid(seq OID, n int) *VoidCol { return &VoidCol{Seq: seq, N: n} }

// Kind implements Column.
func (c *VoidCol) Kind() Kind { return KVoid }

// Len implements Column.
func (c *VoidCol) Len() int { return c.N }

// Get implements Column; void entries materialize as oids.
func (c *VoidCol) Get(i int) Value { return O(c.Seq + OID(i)) }

// Heap implements Column; void columns occupy no storage.
func (c *VoidCol) Heap() storage.HeapID { return 0 }

// TouchPositions implements Column; void columns never fault.
func (c *VoidCol) TouchPositions(p *storage.Tracker, pos []int32) {}

// TouchRange implements Column; void columns never fault.
func (c *VoidCol) TouchRange(p *storage.Tracker, i, n int) {}

// TouchAll implements Column; void columns never fault.
func (c *VoidCol) TouchAll(p *storage.Tracker) {}

// ByteSize implements Column.
func (c *VoidCol) ByteSize() int64 { return 0 }

// OwnedBytes implements Column; void columns occupy no storage.
func (c *VoidCol) OwnedBytes() int64 { return 0 }

// Persist implements Column; void columns occupy no storage.
func (c *VoidCol) Persist() {}

// A view of a void column is itself a void column: a slice of a dense
// sequence is dense.
func (c *VoidCol) sliceView(lo, n int) Column { return NewVoid(c.Seq+OID(lo), n) }

func (c *VoidCol) gather(perm []int32) Column               { return NewOIDCol(gatherSeq(c.Seq, perm)) }
func (c *VoidCol) concat(b Column) Column                   { return c.oids().concat(b) }
func (c *VoidCol) place(add Column) []int32                 { return c.oids().place(add) }
func (c *VoidCol) merge(at []int32, add Column) Column      { return c.oids().merge(at, add) }
func (c *VoidCol) grow(add Column, _ *room) (Column, *room) { return c.oids().grow(add, nil) }
func (c *VoidCol) isView() bool                             { return false }
func (c *VoidCol) unshare() Column                          { return c }
func (c *VoidCol) first() unsafe.Pointer                    { return nil }

// oids materializes the dense sequence as an oid column.
func (c *VoidCol) oids() *OIDCol {
	out := make([]OID, c.N)
	for i := range out {
		out[i] = c.Seq + OID(i)
	}
	return NewOIDCol(out)
}

func gatherSeq(seq OID, perm []int32) []OID {
	out := make([]OID, len(perm))
	for i, p := range perm {
		out[i] = seq + OID(p)
	}
	return out
}

// ---------------------------------------------------------------------------
// fixed-width columns: the BUN heap holds the values themselves (Fig. 2).

// Fixed enumerates the element types of the fixed-width layout, one per
// fixed-width Kind.
type Fixed interface {
	OID | int64 | float64 | byte | bool | int32
}

// FixedCol is a column of fixed-width values stored inline: the one
// physical layout behind every kind but void and str. Operators reach the
// backing slice through the per-kind aliases below, so their typed loops
// index c.V directly.
type FixedCol[T Fixed] struct {
	V    []T
	heap storage.HeapID
	off  int       // heap entry offset of V[0] (non-zero for views)
	view bool      // shares another column's backing (see SliceView)
	grp  *Grouping // the grouping fact of a group-id column (grouping.go)
}

// The six fixed-width kinds. OIDCol holds object identifiers, IntCol
// integers, FltCol floats, ChrCol single characters, BitCol booleans and
// DateCol instants stored as days since 1970-01-01.
type (
	OIDCol  = FixedCol[OID]
	IntCol  = FixedCol[int64]
	FltCol  = FixedCol[float64]
	ChrCol  = FixedCol[byte]
	BitCol  = FixedCol[bool]
	DateCol = FixedCol[int32]
)

// NewOIDCol wraps a slice of oids as a column.
func NewOIDCol(v []OID) *OIDCol { return &OIDCol{V: v} }

// NewIntCol wraps a slice of integers as a column.
func NewIntCol(v []int64) *IntCol { return &IntCol{V: v} }

// NewFltCol wraps a slice of floats as a column.
func NewFltCol(v []float64) *FltCol { return &FltCol{V: v} }

// NewChrCol wraps a byte slice as a character column.
func NewChrCol(v []byte) *ChrCol { return &ChrCol{V: v} }

// NewBitCol wraps a bool slice as a column.
func NewBitCol(v []bool) *BitCol { return &BitCol{V: v} }

// NewDateCol wraps a slice of day numbers as a date column.
func NewDateCol(v []int32) *DateCol { return &DateCol{V: v} }

// width is the entry stride in bytes; every touch offset and ByteSize
// derive from it, so accounting cannot disagree with the element type.
func (c *FixedCol[T]) width() int64 {
	var z T
	return int64(unsafe.Sizeof(z))
}

// Kind implements Column: the kind is a function of the element type.
func (c *FixedCol[T]) Kind() Kind {
	var z T
	switch any(z).(type) {
	case OID:
		return KOID
	case int64:
		return KInt
	case float64:
		return KFlt
	case byte:
		return KChr
	case bool:
		return KBit
	default:
		return KDate
	}
}

// Len implements Column.
func (c *FixedCol[T]) Len() int { return len(c.V) }

// Get implements Column. The switch is over the static element type, so
// each instantiation compiles down to its own arm; assembling the Value in
// one composite literal keeps the boxed result in registers.
func (c *FixedCol[T]) Get(i int) Value {
	var (
		k Kind
		n int64
		f float64
	)
	switch x := any(c.V[i]).(type) {
	case OID:
		k, n = KOID, int64(x)
	case int64:
		k, n = KInt, x
	case float64:
		k, f = KFlt, x
	case byte:
		k, n = KChr, int64(x)
	case bool:
		k = KBit
		if x {
			n = 1
		}
	case int32:
		k, n = KDate, int64(x)
	}
	return Value{K: k, I: n, F: f}
}

// Heap implements Column.
func (c *FixedCol[T]) Heap() storage.HeapID { return c.heap }

// TouchPositions implements Column.
func (c *FixedCol[T]) TouchPositions(p *storage.Tracker, pos []int32) {
	p.TouchPositions(c.heap, int64(c.off), c.width(), pos)
}

// TouchRange implements Column.
func (c *FixedCol[T]) TouchRange(p *storage.Tracker, i, n int) {
	w := c.width()
	p.TouchRange(c.heap, int64(c.off+i)*w, int64(n)*w)
}

// TouchAll implements Column.
func (c *FixedCol[T]) TouchAll(p *storage.Tracker) { c.TouchRange(p, 0, len(c.V)) }

// ByteSize implements Column.
func (c *FixedCol[T]) ByteSize() int64 { return int64(len(c.V)) * c.width() }

// OwnedBytes implements Column: a view shares its operand's backing, so it
// owns nothing; a materialized column owns its full ByteSize.
func (c *FixedCol[T]) OwnedBytes() int64 {
	if c.view {
		return 0
	}
	return c.ByteSize()
}

// Persist implements Column.
func (c *FixedCol[T]) Persist() {
	if c.heap == 0 {
		c.heap = storage.NextHeapID()
	}
}

func (c *FixedCol[T]) sliceView(lo, n int) Column {
	return &FixedCol[T]{V: c.V[lo : lo+n], heap: c.heap, off: c.off + lo, view: true}
}

func (c *FixedCol[T]) gather(perm []int32) Column { return &FixedCol[T]{V: gatherElems(c.V, perm)} }
func (c *FixedCol[T]) isView() bool               { return c.view }
func (c *FixedCol[T]) first() unsafe.Pointer      { return unsafe.Pointer(unsafe.SliceData(c.V)) }

func (c *FixedCol[T]) concat(b Column) Column {
	out := append(make([]T, 0, len(c.V)+b.Len()), c.V...)
	if b.Len() > 0 {
		out = append(out, fixedOf[T](b)...)
	}
	return &FixedCol[T]{V: out}
}

// place returns, for each entry of add, how many of c's entries a stable
// sort of c‖add orders before it — c and add both ascending, each add
// entry goes after every equal entry of c: k typed binary searches.
func (c *FixedCol[T]) place(add Column) []int32 {
	a, less := fixedOf[T](add), ascending[T]()
	return placeRows(len(c.V), len(a), func(i, j int) bool { return less(a[i], c.V[j]) })
}

// merge returns c's entries with add's entry i inserted before c's entry
// at[i] (at ascending): c's entries copy in the runs between.
func (c *FixedCol[T]) merge(at []int32, add Column) Column {
	return &FixedCol[T]{V: mergeRuns(c.V, at, fixedOf[T](add))}
}

// grow returns c's entries followed by add's, clipped so that no append
// of a reader's can reach past them. When r's backing array is c's and
// its claim stands at len(c.V), grow takes the claim and writes add into
// the spare capacity; otherwise it copies c into a new array with spare
// capacity and returns that array's room.
func (c *FixedCol[T]) grow(add Column, r *room) (Column, *room) {
	a, n := fixedOf[T](add), len(c.V)
	var v []T
	if r != nil {
		v, _ = r.entries.([]T)
	}
	if n+len(a) <= cap(v) && r.claim(n, len(a)) {
		v = append(v[:n], a...)
	} else {
		v = append(append(make([]T, 0, spare(n+len(a))), c.V...), a...)
		r = newRoom(len(v), v, nil)
	}
	return &FixedCol[T]{V: v[:len(v):len(v)]}, r
}

// unshare copies a view into a transient column (no heap id): the pager
// charged the view's accesses already, and the copy is intermediate state,
// not base data.
func (c *FixedCol[T]) unshare() Column {
	if !c.view {
		return c
	}
	return &FixedCol[T]{V: append([]T(nil), c.V...)}
}

func gatherElems[T Fixed](v []T, perm []int32) []T {
	out := make([]T, len(perm))
	for i, p := range perm {
		out[i] = v[p]
	}
	return out
}

// fixedOf returns the entries of col, a FixedCol[T] or (for oids) a void
// column.
func fixedOf[T Fixed](col Column) []T {
	if v, ok := col.(*VoidCol); ok {
		col = v.oids()
	}
	return col.(*FixedCol[T]).V
}

// ascending is SortedPerm's ascending order on T: cmp.Less's, with a NaN
// before every other float, and false before true. The switch is over the
// static element type, as in Get.
func ascending[T Fixed]() func(a, b T) bool {
	var less any
	switch any(*new(T)).(type) {
	case OID:
		less = cmp.Less[OID]
	case int64:
		less = cmp.Less[int64]
	case float64:
		less = cmp.Less[float64]
	case byte:
		less = cmp.Less[byte]
	case int32:
		less = cmp.Less[int32]
	case bool:
		less = func(a, b bool) bool { return !a && b }
	}
	return less.(func(a, b T) bool)
}

// placeRows places k ascending new entries among n ascending old ones:
// entry i goes after every old entry that does not order after it, where
// less(i, j) reports that new entry i orders before old entry j. Each
// search starts where the previous one ended.
func placeRows(n, k int, less func(i, j int) bool) []int32 {
	at := make([]int32, k)
	cut := 0
	for i := range at {
		cut += sort.Search(n-cut, func(j int) bool { return less(i, cut+j) })
		at[i] = int32(cut)
	}
	return at
}

// mergeRuns returns old with add[i] inserted before old[at[i]], copying
// old in the runs between.
func mergeRuns[E any](old []E, at []int32, add []E) []E {
	out := make([]E, 0, len(old)+len(add))
	cut := 0
	for i, p := range at {
		out = append(append(out, old[cut:p]...), add[i])
		cut = int(p)
	}
	return append(out, old[cut:]...)
}

// ---------------------------------------------------------------------------
// strings: offsets into a shared character heap (paper Fig. 2: BUNs contain
// integer byte-indices into an extra tail heap for variable-size atoms).

// StrCol is a column of strings: per-entry offsets into one character heap.
// Substrings alias the heap, so Get never copies.
type StrCol struct {
	Off      []uint32 // len(V)+1 offsets into Chars
	Chars    string
	heap     storage.HeapID // offset heap
	charHeap storage.HeapID // character heap
	off      int            // heap entry offset of Off[0] (non-zero for views)
	view     bool           // shares another column's backing (see SliceView)
}

// NewStrColFromStrings builds a string column (and its character heap) from
// a string slice.
func NewStrColFromStrings(v []string) *StrCol {
	total := 0
	for _, s := range v {
		total += len(s)
	}
	buf := make([]byte, 0, total)
	off := make([]uint32, len(v)+1)
	for i, s := range v {
		off[i] = uint32(len(buf))
		buf = append(buf, s...)
	}
	off[len(v)] = uint32(len(buf))
	return &StrCol{Off: off, Chars: string(buf)}
}

// Kind implements Column.
func (c *StrCol) Kind() Kind { return KStr }

// Len implements Column.
func (c *StrCol) Len() int { return len(c.Off) - 1 }

// At returns the string at position i without boxing.
func (c *StrCol) At(i int) string { return c.Chars[c.Off[i]:c.Off[i+1]] }

// strings returns the column's strings, sharing the character heap.
func (c *StrCol) strings() []string {
	out := make([]string, c.Len())
	for i := range out {
		out[i] = c.At(i)
	}
	return out
}

// Get implements Column.
func (c *StrCol) Get(i int) Value { return S(c.At(i)) }

// Heap implements Column.
func (c *StrCol) Heap() storage.HeapID { return c.heap }

// TouchPositions implements Column; it touches the offset entries, then the
// character bytes they delimit — heap at a time, the order a gather reads
// them in.
func (c *StrCol) TouchPositions(p *storage.Tracker, pos []int32) {
	p.TouchPositions(c.heap, int64(c.off), 4, pos)
	p.TouchSpans(c.charHeap, c.Off, pos)
}

// TouchRange implements Column; the character span is contiguous because
// offsets ascend.
func (c *StrCol) TouchRange(p *storage.Tracker, i, n int) {
	if n == 0 {
		return // an empty range reads no offset entry, not even the closing one
	}
	p.TouchRange(c.heap, int64(c.off+i)*4, int64(n+1)*4)
	lo, hi := int64(c.Off[i]), int64(c.Off[i+n])
	if hi > lo {
		p.TouchRange(c.charHeap, lo, hi-lo)
	}
}

// TouchAll implements Column; routing through TouchRange keeps a view's
// accounting anchored at its heap offset and limited to its character
// span.
func (c *StrCol) TouchAll(p *storage.Tracker) { c.TouchRange(p, 0, c.Len()) }

// ByteSize implements Column.
func (c *StrCol) ByteSize() int64 { return int64(len(c.Off))*4 + int64(len(c.Chars)) }

// OwnedBytes implements Column; see FixedCol.OwnedBytes.
func (c *StrCol) OwnedBytes() int64 {
	if c.view {
		return 0
	}
	return c.ByteSize()
}

// Persist implements Column; it persists both the offset and character
// heaps.
func (c *StrCol) Persist() {
	if c.heap == 0 {
		c.heap = storage.NextHeapID()
	}
	if c.charHeap == 0 {
		c.charHeap = storage.NextHeapID()
	}
}

func (c *StrCol) sliceView(lo, n int) Column {
	return &StrCol{Off: c.Off[lo : lo+n+1], Chars: c.Chars,
		heap: c.heap, charHeap: c.charHeap, off: c.off + lo, view: true}
}

// gather copies the selected strings heap to heap: one pass over the offsets
// sizes the new character heap, one copies the bytes into it.
func (c *StrCol) gather(perm []int32) Column {
	off := make([]uint32, len(perm)+1)
	total := uint32(0)
	for i, p := range perm {
		off[i] = total
		total += c.Off[p+1] - c.Off[p]
	}
	off[len(perm)] = total
	buf := make([]byte, total)
	for i, p := range perm {
		copy(buf[off[i]:], c.Chars[c.Off[p]:c.Off[p+1]])
	}
	// buf is owned here and never written again.
	return &StrCol{Off: off, Chars: unsafe.String(unsafe.SliceData(buf), len(buf))}
}

func (c *StrCol) isView() bool          { return c.view }
func (c *StrCol) first() unsafe.Pointer { return unsafe.Pointer(unsafe.SliceData(c.Off)) }

// concat rebases both offset runs onto one new character heap; a column's
// strings lie back to back in its heap, so each side's characters copy as
// one span.
func (c *StrCol) concat(b Column) Column {
	off := make([]uint32, 0, c.Len()+b.Len()+1)
	chars := c.Chars[c.Off[0]:c.Off[c.Len()]]
	for _, o := range c.Off[:c.Len()] {
		off = append(off, o-c.Off[0])
	}
	if b.Len() > 0 {
		bb := b.(*StrCol)
		for _, o := range bb.Off[:bb.Len()] {
			off = append(off, o-bb.Off[0]+uint32(len(chars)))
		}
		chars += bb.Chars[bb.Off[0]:bb.Off[bb.Len()]]
	}
	return &StrCol{Off: append(off, uint32(len(chars))), Chars: chars}
}

// place is FixedCol.place over strings.
func (c *StrCol) place(add Column) []int32 {
	a := add.(*StrCol)
	return placeRows(c.Len(), a.Len(), func(i, j int) bool { return a.At(i) < c.At(j) })
}

// merge is FixedCol.merge over strings: each run's offsets are rebased and
// its characters copied as one span.
func (c *StrCol) merge(at []int32, add Column) Column {
	a := add.(*StrCol)
	n, k := c.Len(), a.Len()
	off := make([]uint32, 0, n+k+1)
	buf := make([]byte, 0, int(c.Off[n]-c.Off[0]+a.Off[k]-a.Off[0]))
	run := func(s *StrCol, lo, hi int) {
		shift := uint32(len(buf)) - s.Off[lo] // modular: o+shift = o-s.Off[lo]+len(buf)
		for _, o := range s.Off[lo:hi] {
			off = append(off, o+shift)
		}
		buf = append(buf, s.Chars[s.Off[lo]:s.Off[hi]]...)
	}
	cut := 0
	for i, p := range at {
		run(c, cut, int(p))
		run(a, i, i+1)
		cut = int(p)
	}
	run(c, cut, n)
	// buf is owned here and never written again.
	return &StrCol{Off: append(off, uint32(len(buf))), Chars: unsafe.String(unsafe.SliceData(buf), len(buf))}
}

// grow is FixedCol.grow over strings, as strings.Builder grows a string:
// the offsets and the character bytes each have spare capacity, and the
// bytes past the end of Chars belong to the claim, not to any string.
func (c *StrCol) grow(add Column, r *room) (Column, *room) {
	a := add.(*StrCol)
	n, k := c.Len(), a.Len()
	chars := a.Chars[a.Off[0]:a.Off[k]]
	var (
		off []uint32
		buf []byte
	)
	if r != nil {
		off, _ = r.entries.([]uint32)
		buf = r.chars
	}
	inPlace := n+k+1 <= cap(off) && len(c.Chars)+len(chars) <= cap(buf) && r.claim(n, k)
	if inPlace {
		off, buf = off[:n+1], buf[:len(c.Chars)]
	} else {
		c = c.unshare().(*StrCol) // a view's offsets do not start at 0
		off = append(make([]uint32, 0, spare(n+k+1)), c.Off...)
		buf = append(make([]byte, 0, spare(len(c.Chars)+len(chars))), c.Chars...)
	}
	shift := uint32(len(buf)) - a.Off[0]
	for _, o := range a.Off[1 : k+1] {
		off = append(off, o+shift)
	}
	buf = append(buf, chars...)
	if !inPlace {
		r = newRoom(n+k, off, buf)
	}
	// Only the claim holder writes past len(buf), and no string reaches there.
	return &StrCol{Off: off[:len(off):len(off)], Chars: unsafe.String(unsafe.SliceData(buf), len(buf))}, r
}

// unshare rebuilds the character heap from the referenced substrings only,
// so a 10-row view over a megabyte heap compacts to the bytes of those 10
// strings.
func (c *StrCol) unshare() Column {
	if !c.view {
		return c
	}
	out := make([]string, c.Len())
	for i := range out {
		out[i] = c.At(i)
	}
	return NewStrColFromStrings(out)
}

// ---------------------------------------------------------------------------

// Unbox returns v's payload as the fixed-width element type E (an int
// widens to float64, as AsFloat has it).
func Unbox[E Fixed](v Value) E {
	var z E
	switch p := any(&z).(type) {
	case *OID:
		*p = OID(v.I)
	case *int64:
		*p = v.I
	case *float64:
		*p = v.AsFloat()
	case *byte:
		*p = byte(v.I)
	case *bool:
		*p = v.I != 0
	case *int32:
		*p = int32(v.I)
	}
	return z
}

// Builder assembles an n-row column of one kind from boxed values stored by
// row — the typed destination of the operators that still compute a row at
// a time. Concurrent writers must store disjoint rows.
type Builder interface {
	Set(i int, v Value)
	Column() Column
}

// NewBuilder returns a builder of n zero entries of kind k (void builds as
// oid: a computed column is never dense by construction).
func NewBuilder(k Kind, n int) Builder {
	switch k {
	case KInt:
		return fixedBuilder[int64](make([]int64, n))
	case KFlt:
		return fixedBuilder[float64](make([]float64, n))
	case KStr:
		return strBuilder(make([]string, n))
	case KChr:
		return fixedBuilder[byte](make([]byte, n))
	case KBit:
		return fixedBuilder[bool](make([]bool, n))
	case KDate:
		return fixedBuilder[int32](make([]int32, n))
	}
	return fixedBuilder[OID](make([]OID, n))
}

type fixedBuilder[E Fixed] []E

func (b fixedBuilder[E]) Set(i int, v Value) { b[i] = Unbox[E](v) }
func (b fixedBuilder[E]) Column() Column     { return &FixedCol[E]{V: b} }

type strBuilder []string

func (b strBuilder) Set(i int, v Value) { b[i] = v.S }
func (b strBuilder) Column() Column     { return NewStrColFromStrings(b) }

// FromValues builds a column of the given kind from boxed values; it is the
// generic constructor used by operators that cannot stay on a typed fast
// path, and by tests. A void column takes its sequence base from the first
// value.
func FromValues(k Kind, vs []Value) Column {
	if k == KVoid {
		var seq OID
		if len(vs) > 0 {
			seq = OID(vs[0].I)
		}
		return NewVoid(seq, len(vs))
	}
	b := NewBuilder(k, len(vs))
	for i, v := range vs {
		b.Set(i, v)
	}
	return b.Column()
}

// PositionRun reports whether pos is the contiguous ascending run
// lo, lo+1, ..., lo+len(pos)-1, returning lo. The endpoint check rejects
// almost every non-run in O(1); a full verification pass runs only when the
// endpoints agree (and is then cheaper than the gather copy it saves).
func PositionRun[I int32 | OID](pos []I) (int, bool) {
	n := len(pos)
	if n == 0 {
		return 0, false
	}
	lo := int(pos[0])
	if int(pos[n-1])-lo != n-1 {
		return 0, false
	}
	for i := 1; i < n; i++ {
		if pos[i] != pos[i-1]+1 {
			return 0, false
		}
	}
	return lo, true
}

// SliceView returns a zero-copy view of rows [lo, lo+n) of col: the view
// shares col's backing storage — legal because BAT-algebra operations never
// change their operands after construction — and keeps fault accounting
// anchored at the original heap offsets.
//
// Lifetime note: a view pins its operand's whole backing array (and a
// string view the whole character heap) for as long as it is retained, so a
// tiny long-lived result can hold a large operand in memory. Callers that
// retain small results past their operand's life should materialize them
// (see ROADMAP: view-aware accounting / materialize-on-retain).
func SliceView(col Column, lo, n int) Column { return col.sliceView(lo, n) }

// SameColumn reports whether a and b are one column by identity, so that
// they hold the same entries without a comparison of any: the same column
// object, two empty columns of one kind (they trivially correspond; a void
// counts as oids), two voids of one length and seqbase, or two views of one
// kind and length over one backing array at one offset (what SliceView and
// the Gather of a run hand on).
func SameColumn(a, b Column) bool {
	if a == b {
		return true
	}
	if a.Len() != b.Len() {
		return false
	}
	if a.Len() == 0 {
		return normKind(a.Kind()) == normKind(b.Kind())
	}
	if a.Kind() != b.Kind() {
		return false
	}
	if v, ok := a.(*VoidCol); ok {
		return v.Seq == b.(*VoidCol).Seq
	}
	return a.first() == b.first()
}

// Concat returns a new column owning a's entries followed by b's. Both must
// hold one kind (void entries are oids); an empty side contributes nothing
// and may be of any kind — two empty sides yield an empty column of b's kind.
func Concat(a, b Column) Column {
	if a.Len() == 0 {
		a, b = b, a
	}
	if b.Len() > 0 && normKind(a.Kind()) != normKind(b.Kind()) {
		panic("bat: concat of " + a.Kind().String() + " and " + b.Kind().String() + " columns")
	}
	return a.concat(b)
}

// Gather builds the column col[perm[0]], col[perm[1]], ... It is the
// positional-fetch primitive underlying sorts, joins and the datavector
// semijoin. When perm is a contiguous run the result is a zero-copy
// SliceView instead of a materialized copy.
func Gather(col Column, perm []int32) Column {
	if lo, ok := PositionRun(perm); ok {
		return SliceView(col, lo, len(perm))
	}
	return col.gather(perm)
}
