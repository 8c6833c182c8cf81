package bat

import (
	"cmp"
	"slices"
	"sort"
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
}

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
