package bat

import "math"

// Direct-index grouping: "no hashing where arithmetic will do". MIL's group
// numbers its classes 0..G−1 (Fig. 4), so the keys a later group, unique or
// aggregate sees — group ids, characters, flags, narrow integers and dates —
// mostly span few values. For such a key the slot comes from a table indexed
// by value−lo, and a composite key packs exactly, digit by digit, as
// (a−loA)·spanB + (b−loB): no key-rep vector, no hash, no verifier. Slots are
// handed out in first-occurrence order, so a DenseGrouper's slot ids and
// first rows equal the Grouper's over the same rows, key for key.

// denseMaxSpan bounds the key span the direct-index table covers for rows
// rows: twice the rows, floored at the Grouper's initial bucket count — so
// the table never outgrows what hashing the same rows allocates — and capped
// so that a packed key fits an int32.
func denseMaxSpan(rows int) uint64 {
	return uint64(min(max(2*rows, grouperMinBuckets), math.MaxInt32))
}

// DenseGrouper assigns first-occurrence slot ids to composite keys of
// small-domain exact columns by direct index.
type DenseGrouper struct {
	keys []denseKey // outer key first
	tab  []int32    // slot+1 per packed key, 0 for a key not seen yet
	rows []int32    // first-occurrence row per slot
}

// denseKey is one key column read as offsets value−lo ∈ [0, span), lo and
// span taken over the grouped rows. pack appends the offsets of the rows
// [lo, lo+len(acc)) as the next digit of their packed keys:
// acc = acc·span + (value−lo).
type denseKey struct {
	span uint64
	pack func(lo int, acc []int32)
}

// NewDenseGrouper returns a DenseGrouper for the composite key of cols
// (outer key first) over rows [0, n), or nil when a column is not of an
// exact fixed-width kind (oid, void, int, date, chr, bit) or the product of
// the keys' spans over those rows exceeds denseMaxSpan.
func NewDenseGrouper(n int, cols ...Column) *DenseGrouper {
	limit := denseMaxSpan(n)
	keys := make([]denseKey, len(cols))
	prod := uint64(1)
	for i, c := range cols {
		k, ok := newDenseKey(c, n, limit)
		if !ok || k.span > limit/prod { // the division keeps the product from wrapping
			return nil
		}
		prod *= k.span
		keys[i] = k
	}
	return &DenseGrouper{keys: keys, tab: make([]int32, prod)}
}

// Rows returns the first-occurrence row of every slot, in slot order.
func (d *DenseGrouper) Rows() []int32 { return d.rows }

// Slots resolves the rows [lo, lo+len(slots)), in order, to the slots of
// their keys, handing out the next slot id to each key not seen before, and
// reports the number of slots handed out so far. The rows must be among
// those the grouper was built for.
func (d *DenseGrouper) Slots(lo int, slots []int32) int {
	clear(slots)
	for _, k := range d.keys {
		k.pack(lo, slots)
	}
	tab := d.tab
	for i, o := range slots {
		s := tab[o]
		if s == 0 {
			d.rows = append(d.rows, int32(lo+i))
			s = int32(len(d.rows))
			tab[o] = s
		}
		slots[i] = s - 1
	}
	return len(d.rows)
}

// newDenseKey reads c as a key over rows [0, n), or reports false when c is
// not of an exact fixed-width kind or spans more than limit values there. A
// void column's offset is the row itself; a bit column spans its two values.
func newDenseKey(c Column, n int, limit uint64) (denseKey, bool) {
	switch c := c.(type) {
	case *VoidCol:
		span := int32(max(n, 1))
		return denseKey{uint64(span), func(lo int, acc []int32) {
			for i := range acc {
				acc[i] = acc[i]*span + int32(lo+i)
			}
		}}, true
	case *OIDCol:
		if g := c.grp; g != nil && uint64(g.Len()) <= limit {
			// A grouping's ids span exactly its domain [0, G): no scan.
			return packKey(c.V[:n], 0, uint64(max(g.Len(), 1))), true
		}
		return fixedKey(c.V[:n], limit)
	case *IntCol:
		return fixedKey(c.V[:n], limit)
	case *DateCol:
		return fixedKey(c.V[:n], limit)
	case *ChrCol:
		return fixedKey(c.V[:n], limit)
	case *BitCol:
		return denseKey{2, func(lo int, acc []int32) {
			for i, x := range c.V[lo : lo+len(acc)] {
				acc[i] *= 2
				if x {
					acc[i]++
				}
			}
		}}, true
	}
	return denseKey{}, false
}

// denseElem are the element types of the exact fixed-width kinds with an
// order: their key rep is the value itself, sign-extended.
type denseElem interface {
	OID | int64 | int32 | byte
}

func fixedKey[E denseElem](col []E, limit uint64) (denseKey, bool) {
	lo, span, ok := fixedSpan(col, limit)
	return packKey(col, lo, span), ok
}

// packKey reads col as offsets value−lo ∈ [0, span).
func packKey[E denseElem](col []E, lo, span uint64) denseKey {
	sp := int32(span)
	return denseKey{span, func(r int, acc []int32) {
		w := col[r : r+len(acc)]
		acc = acc[:len(w)] // one bounds check for the loop
		for i, x := range w {
			acc[i] = acc[i]*sp + int32(uint64(x)-lo)
		}
	}}
}

// fixedSpan reports the lowest value of col and the span of its values, or
// false when that span exceeds limit. The difference of two sign-extended
// reps is the true distance of the values whenever it is below 2^64, so it
// is compared before adding one: a span of 2^64 (int64's whole range)
// cannot wrap to zero and pass as small.
func fixedSpan[E denseElem](col []E, limit uint64) (lo, span uint64, ok bool) {
	if len(col) == 0 {
		return 0, 1, true
	}
	mn, mx := col[0], col[0]
	for _, x := range col {
		mn, mx = min(mn, x), max(mx, x)
	}
	if uint64(mx)-uint64(mn) >= limit {
		return 0, 0, false
	}
	return uint64(mn), uint64(mx) - uint64(mn) + 1, true
}
