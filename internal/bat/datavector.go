package bat

import (
	"cmp"
	"slices"
	"sync/atomic"
)

// Datavector is the search-accelerator extension of Section 5.2. For an
// attribute BAT that is stored ordered on tail (to favour value→oid access),
// the datavector supplies the opposite oid→value direction: the class extent
// plus a value vector positionally synced with it. Every extent is dense —
// bulk load, AppendAttr and checkpoint recovery all number a class's objects
// Base, Base+1, … — so, like a void column, it occupies no space, and the
// paper's probedlookup(EXTENT, X) is the subtraction X − Base, bounds-checked.
// With probes that cheap there is no LOOKUP array worth memoizing: each
// datavector semijoin computes its own.
type Datavector struct {
	// Base is the extent's first oid: the extent is Base .. Base+Len()-1.
	Base OID
	// Vector holds the attribute values in extent position order.
	Vector Column
	// room is the spare capacity behind Vector's backing array, which
	// AppendAttr's vector grows into; nil for a vector built elsewhere.
	room *room
}

// room is a growable vector's spare capacity: its backing arrays, sliced
// to their full capacity, and how many entries have been claimed on them.
// Every vector over those arrays shares the one room, and each holds a
// prefix of the claimed entries, so the vector whose length equals the
// claim may append in place — once: a second append onto the same vector
// finds the claim moved and copies. A vector handed to readers is clipped
// to its length, so no reader's append can write into the spare capacity.
type room struct {
	claimed atomic.Int64
	entries any    // the entry array: []T, or a string vector's offsets
	chars   []byte // a string vector's character bytes
}

func newRoom(claimed int, entries any, chars []byte) *room {
	r := &room{entries: entries, chars: chars}
	r.claimed.Store(int64(claimed))
	return r
}

// claim moves the claim from n entries to n+k, reporting whether it stood
// at n: only then may the caller write entries n..n+k-1.
func (r *room) claim(n, k int) bool {
	return r != nil && r.claimed.CompareAndSwap(int64(n), int64(n+k))
}

// spare is the capacity a vector copied to hold n entries gets: a quarter
// more, as append grows a large slice, so the appends that follow write in
// place until it fills.
func spare(n int) int { return n + n/4 }

// NewDenseDatavector builds a datavector over the dense extent
// base..base+vector.Len()-1.
func NewDenseDatavector(base OID, vector Column) *Datavector {
	return &Datavector{Base: base, Vector: vector}
}

// Len reports the extent size.
func (dv *Datavector) Len() int { return dv.Vector.Len() }

// ByteSize reports the accelerator's storage footprint: the vector's, the
// extent being dense.
func (dv *Datavector) ByteSize() int64 { return dv.Vector.ByteSize() }

// Probe locates oid x in the extent, returning its position and whether it
// exists: "probedlookup(EXTENT, X)" from the pseudo-code. Probe accounts
// nothing.
func (dv *Datavector) Probe(x OID) (int, bool) {
	i := int(x) - int(dv.Base)
	if i < 0 || i >= dv.Len() {
		return 0, false
	}
	return i, true
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
	base := OID(0)
	if v, ok := oidOrdered.H.(*VoidCol); ok {
		base = v.Seq
	} else if oidOrdered.Len() > 0 {
		base = OID(oidOrdered.H.Get(0).I)
	}
	sorted := ReorderOnTail(oidOrdered.Name, oidOrdered, SortedPerm(oidOrdered.T, false), false)
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
// k rows is placed by a typed binary search into prev's tail order, after
// every equal old row (the order a stable sort of old‖new gives, since new
// rows sit at higher positions), and prev's head and tail are copied in
// the runs between (MergeAfter). A merge that leaves every row where it
// was keeps the void head, with the tail a view of the vector. The vector
// grows in place when prev's is the latest over its backing array and the
// array has room; otherwise it is copied with room to spare. The cost is a
// copy of the n old entries in runs, O(k log n) typed probes and O(k)
// vector growth (amortized: a copied vector makes room for a quarter
// more). prev must carry a dense datavector and be tail-ordered on it, as
// AttachDatavector and AppendAttr leave it.
func AppendAttr(prev *BAT, frag Column) *BAT {
	dv := prev.Datavector()
	n, k := dv.Len(), frag.Len()
	vec, r := dv.Vector.grow(frag, dv.room)
	fresh := NewVoid(dv.Base+OID(n), k) // the new rows' oids
	perm := SortedPerm(frag, false)
	add := Gather(frag, perm)
	at := prev.T.place(add)
	_, inOrder := PositionRun(perm)
	_, voidHead := prev.H.(*VoidCol)
	var h, t Column
	// The merged head is the identity run when prev's is (void, or empty)
	// and every new row lands after the old ones, in its own order.
	if n+k > 0 && (n == 0 || voidHead) && (k == 0 || inOrder && at[0] == int32(n)) {
		h, t = NewVoid(dv.Base, n+k), SliceView(vec, 0, n+k)
	} else {
		h, t = prev.H.merge(at, Gather(fresh, perm)), prev.T.merge(at, add)
	}
	out := Derive(New(prev.Name, h, t, 0), Merged, prev, New(prev.Name, fresh, frag, 0))
	out.SetDatavector(&Datavector{Base: dv.Base, Vector: vec, room: r})
	return out
}

// MergeAfter merges the pairs (addKey[i], addVal[i]) into the pairs
// (key[j], val[j]), both ascending on key: each new pair goes after every
// old pair of an equal key, where a stable sort of old‖new puts it. It
// returns the merged key and value columns, copying the old pairs in the
// runs between k typed binary searches: O(n + k log n). AppendAttr merges
// a tail-ordered attribute BAT this way (key = tail), a set index merges
// its pairs (key = head).
func MergeAfter(key, val, addKey, addVal Column) (Column, Column) {
	at := key.place(addKey)
	return key.merge(at, addKey), val.merge(at, addVal)
}
