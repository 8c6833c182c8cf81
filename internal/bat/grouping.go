package bat

import (
	"fmt"
	"strings"
	"sync"
	"unsafe"
)

// The grouping fact. Like MonetDB's later BATgroup, the group operators
// publish a grouping's by-products — the extents (first row per group) and
// the histogram — on the id column they create, and an operator handed that
// column object reads them instead of grouping again. Wherever the object
// appears (mirrored, sync-joined, sync-semijoined) its ids sit beside the rows
// of the keys they were formed over; a subset, gather or reorder builds a new
// column, which carries no fact, so the fact cannot go stale.

// Grouping is the fact an id column carries: its ids are exactly [0, G), in
// first-occurrence order.
type Grouping struct {
	ids     *OIDCol
	extents []int32  // first row of each id, ascending
	keys    []Column // the columns the ids group, positionally aligned
	once    sync.Once
	counts  []int64 // rows per id, counted on first use
}

// NewGroupIDs wraps ids, the first-occurrence group numbers of the rows of
// the columns keys, as a column carrying their Grouping; extents[g] is the
// first row of id g.
func NewGroupIDs(ids []OID, extents []int32, keys ...Column) *OIDCol {
	c := NewOIDCol(ids)
	c.grp = &Grouping{ids: c, extents: extents, keys: keys}
	return c
}

// GroupingOf returns the grouping fact c carries, or nil.
func GroupingOf(c Column) *Grouping {
	if o, ok := c.(*OIDCol); ok {
		return o.grp
	}
	return nil
}

// Len reports G, the number of groups.
func (g *Grouping) Len() int { return len(g.extents) }

// Extents returns the first row of every id, in id order.
func (g *Grouping) Extents() []int32 { return g.extents }

// Counts returns the rows of every id, in id order: the histogram, counted
// once, on first use. It must not be modified.
func (g *Grouping) Counts() []int64 {
	g.once.Do(func() {
		// Rows alternate over two histograms, so that in a run of one id an
		// increment waits on the one two rows back, not on its predecessor.
		G, ids := len(g.extents), g.ids.V
		counts, odd := make([]int64, G), make([]int64, G)
		for i := 1; i < len(ids); i += 2 {
			counts[ids[i-1]]++
			odd[ids[i]]++
		}
		if len(ids)%2 == 1 {
			counts[ids[len(ids)-1]]++
		}
		for id, c := range odd {
			counts[id] += c
		}
		g.counts = counts
	})
	return g.counts
}

// Slots returns the ids as the rows' group slots, each id its own slot: they
// lie in [0, G), so they read as int32 unchanged. It must not be modified.
func (g *Grouping) Slots() []int32 {
	return unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(g.ids.V))), len(g.ids.V))
}

// Determines reports whether the ids functionally determine c: c is one of
// the keys, or determined by a coarser grouping whose ids are a key.
func (g *Grouping) Determines(c Column) bool {
	for _, k := range g.keys {
		if kg := GroupingOf(k); k == c || kg != nil && kg.Determines(c) {
			return true
		}
	}
	return false
}

// check verifies the fact: every id lies in [0, G) and first occurs, in id
// order, at its extent; the histogram sums to the rows; and every key holds
// its extent's value on each of the id's rows, under the grouping's key
// equality (a NaN key is a group of its own).
func (g *Grouping) check() error {
	G, seen := len(g.extents), 0
	for i, id := range g.ids.V {
		if int(id) > seen || int(id) >= G || int(id) == seen && g.extents[id] != int32(i) {
			return fmt.Errorf("group id %d at row %d is not [0, %d)'s next first occurrence at its extent", id, i, G)
		}
		if int(id) == seen {
			seen++
		}
	}
	var sum int64
	for _, c := range g.Counts() {
		sum += c
	}
	if seen != G || sum != int64(len(g.ids.V)) {
		return fmt.Errorf("%d of %d groups occur; the counts sum to %d of %d rows", seen, G, sum, len(g.ids.V))
	}
	for _, k := range g.keys {
		rep := NewKeyRep(k)
		for i, id := range g.ids.V {
			if e := g.extents[id]; int32(i) != e && !rep.KeyEqual(int32(i), e) {
				return fmt.Errorf("key %s at row %d differs from its group's first row %d", k.Kind(), i, e)
			}
		}
	}
	return nil
}

// GroupFacts renders the grouping facts b's columns carry ("h-groups=4"), or
// "" when they carry none.
func (b *BAT) GroupFacts() string {
	var parts []string
	for i, c := range [2]Column{b.H, b.T} {
		if g := GroupingOf(c); g != nil {
			parts = append(parts, fmt.Sprintf("%c-groups=%d", "ht"[i], g.Len()))
		}
	}
	return strings.Join(parts, ",")
}
