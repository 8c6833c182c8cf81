package bat

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Properties (Section 5.1). This file owns every claim a BAT makes about its
// columns: the Props bits, what a constructor's columns imply, the rule
// table that derives a result's bits from its operands' (Derive), run-time
// detection of the bits the rules could not prove (KnownProps), and the
// soundness check (CheckProps). Operators compute values and name how their
// result's BUNs relate to their operands; they never set bits themselves.

// Props is the set of kernel-maintained BAT properties of Section 5.1; the
// dynamic optimizer consults them to pick algorithm variants.
type Props uint16

const (
	// HOrdered: the head column is stored in ascending order.
	HOrdered Props = 1 << iota
	// TOrdered: the tail column is stored in ascending order.
	TOrdered
	// HKey: the head column contains no duplicates.
	HKey
	// TKey: the tail column contains no duplicates.
	TKey
	// HDense: the head column is a dense ascending oid sequence (implies
	// HOrdered|HKey). Void head columns are always dense.
	HDense
	// TDense: the tail column is a dense ascending oid sequence.
	TDense
)

// orderKey is the order and key bits of both columns: what any
// order-preserving subset of a BAT keeps.
const orderKey = HOrdered | TOrdered | HKey | TKey

// Has reports whether all properties in q are set.
func (p Props) Has(q Props) bool { return p&q == q }

// Swap exchanges head and tail properties: each tail bit sits one above its
// head twin.
func (p Props) Swap() Props {
	return p&(HOrdered|HKey|HDense)<<1 | p&(TOrdered|TKey|TDense)>>1
}

// propNames names the bits, lowest first.
var propNames = [...]string{"h-ordered", "t-ordered", "h-key", "t-key", "h-dense", "t-dense"}

func (p Props) String() string {
	var parts []string
	for i, n := range propNames {
		if p&(1<<i) != 0 {
			parts = append(parts, n)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// implied returns p plus what the columns guarantee by their layout: a void
// column is dense, and a dense column is ordered and key.
func implied(p Props, h, t Column) Props {
	if _, ok := h.(*VoidCol); ok {
		p |= HDense
	}
	if _, ok := t.(*VoidCol); ok {
		p |= TDense
	}
	if p.Has(HDense) {
		p |= HOrdered | HKey
	}
	if p.Has(TDense) {
		p |= TOrdered | TKey
	}
	return p
}

// Rel names how a result's BUNs relate to the operands of the operator that
// built it: its driving operand d and, for some rows, its other operand o.
// Each Rel is one row of Derive's table.
type Rel uint8

const (
	Subset     Rel = iota // an ascending subset of d's BUNs: filters, unique
	Run                   // a contiguous run of d's BUNs: binary-search selects, slices
	NewTail               // an ascending subset of d's heads, tail computed: group, multiplex
	Pairs                 // matched join pairs: d's heads in d's order, o's tails
	Positional            // d's heads beside o's tails, position by position: sync-join
	Probed                // a subset of d's BUNs in o's head order: datavector semijoin
	Groups                // one BUN per distinct head of d: grouped aggregates
	One                   // a single BUN: scalar aggregates, calc
	Reordered             // d's BUNs permuted: a descending sort
	Sorted                // d's BUNs reordered ascending on tail
	Merged                // d's BUNs and o's, heads distinct, merged in d's tail order: AppendAttr
	Marked                // fresh dense heads beside d's heads
	Union                 // BUNs with distinct heads, drawn from d and o
	Mirrored              // d with head and tail swapped
)

// Derive is the property rule table: it adds to out the properties row rel
// guarantees given its operands', and returns out. It records no
// positional correspondence: a row that keeps every BUN of an operand in
// its order builds out on that operand's head column or a view of it, so
// out is Synced with it by identity.
//
//	row         claims
//	Subset      d&{HO,TO,HK,TK}
//	Run         d&{HO,TO,HK,TK,HD,TD}
//	NewTail     d&{HO,HK}
//	Pairs       d&HO; d&HK if o's head is key
//	Positional  d&{HO,HK} ∪ o&{TO,TK}
//	Probed      o&HK; o&{HO,HK} if every o BUN matched
//	Groups      HK ∪ d&HO
//	One         HK, TK
//	Reordered   d&{HK,TK}
//	Sorted      d&{HK,TK}; TO unless the tail holds a NaN
//	Merged      HK; d&TO unless o's tail holds a NaN
//	Marked      d&{HO,HK} moved to the tail
//	Union       HK
//	Mirrored    d's bits swapped
//
// Rows read the operands' declared Props, except that Pairs reads o's
// KnownProps: a key right head guarantees each d BUN at most one partner,
// however the key was learnt.
func Derive(out *BAT, rel Rel, d, o *BAT) *BAT {
	var p Props
	switch rel {
	case Subset:
		p = d.Props & orderKey
	case Run:
		p = d.Props & (orderKey | HDense | TDense)
	case NewTail:
		p = d.Props & (HOrdered | HKey)
	case Pairs:
		p = d.Props & HOrdered
		if o.KnownProps().Has(HKey) {
			p |= d.Props & HKey
		}
	case Positional:
		p = d.Props&(HOrdered|HKey) | o.Props&(TOrdered|TKey)
	case Probed:
		p = o.Props & HKey
		if out.Len() == o.Len() {
			p |= o.Props & HOrdered
		}
	case Groups:
		p = HKey | d.Props&HOrdered
	case One:
		p = HKey | TKey
	case Reordered:
		p = d.Props & (HKey | TKey)
	case Sorted:
		p = d.Props & (HKey | TKey)
		if !holdsNaN(out.T) {
			p |= TOrdered
		}
	case Merged:
		p = HKey
		if !holdsNaN(o.T) {
			p |= d.Props & TOrdered
		}
	case Marked:
		p = (d.Props & (HOrdered | HKey)).Swap()
	case Union:
		p = HKey
	case Mirrored:
		p = d.Props.Swap()
	}
	out.Props |= p
	return out
}

// holdsNaN reports whether c is a float column holding a NaN, which has no
// place in an order.
func holdsNaN(c Column) bool {
	f, ok := c.(*FltCol)
	return ok && slices.ContainsFunc(f.V, math.IsNaN)
}

// Run-time detection recovers the order and keyness the rules above cannot
// prove, so merge and fetch variants stay eligible on intermediates that
// happen to be ordered: one memoized scan per column (early exit at the
// first inversion; a negative result is memoized too) feeds the BAT's
// effective properties. It is metadata work only and touches no pages.

const (
	detHeadScanned = 1 << 16
	detTailScanned = 1 << 17
	detPropsMask   = 0xffff
)

// KnownProps returns the BAT's effective properties: the declared Props plus
// everything run-time detection has recovered so far. Lock-free; safe under
// concurrent sessions.
func (b *BAT) KnownProps() Props {
	return b.Props | Props(b.detected.Load()&detPropsMask)
}

// DetectHeadProps ensures the head-side detection scan has run (once) and
// returns the effective properties. The scan is skipped entirely when the
// head is already known ordered.
func (b *BAT) DetectHeadProps() Props {
	if !b.KnownProps().Has(HOrdered) && b.detected.Load()&detHeadScanned == 0 {
		b.detected.Or(uint32(detectColProps(b.H)) | detHeadScanned)
	}
	return b.KnownProps()
}

// DetectTailProps is DetectHeadProps for the tail column; discovered bits
// are recorded as TOrdered/TKey/TDense.
func (b *BAT) DetectTailProps() Props {
	if !b.KnownProps().Has(TOrdered) && b.detected.Load()&detTailScanned == 0 {
		b.detected.Or(uint32(detectColProps(b.T).Swap()) | detTailScanned)
	}
	return b.KnownProps()
}

// NoteHeadIndex records the head keyness that idx, a hash index on b's head,
// proves as a side effect of its cardinality count: one distinct value per
// BUN (an empty head is key). It counts only when b's head is not already
// known key.
func (b *BAT) NoteHeadIndex(idx *HashIndex) {
	if !b.KnownProps().Has(HKey) && idx.Card() == b.Len() {
		b.detected.Or(uint32(HKey))
	}
}

// detectColProps scans one column and reports what holds, expressed in
// head-side bits (HOrdered/HKey/HDense); callers working on a tail Swap()
// the result. Keyness is only claimed when it falls out of the order scan
// for free (strict ascent); duplicate detection on unordered data would
// need a hash and is left to the accelerator path.
func detectColProps(col Column) Props {
	switch c := col.(type) {
	case *VoidCol:
		return HDense | HOrdered | HKey
	case *OIDCol:
		p := scanAscending(c.V)
		// A strictly ascending oid run is dense iff it spans exactly its
		// length (one row counts as dense).
		if n := len(c.V); p.Has(HKey) && (n == 0 || int(c.V[n-1]-c.V[0]) == n-1) {
			p |= HDense
		}
		return p
	case *IntCol:
		return scanAscending(c.V)
	case *DateCol:
		return scanAscending(c.V)
	case *ChrCol:
		return scanAscending(c.V)
	case *FltCol:
		return scanAscending(c.V)
	case *StrCol:
		return scanOrdered(c.Len(), func(i int) int { return strings.Compare(c.At(i), c.At(i-1)) })
	default: // *BitCol: false orders before true
		b := col.(*BitCol).V
		return scanOrdered(len(b), func(i int) int {
			switch {
			case b[i-1] && !b[i]:
				return -1
			case b[i-1] == b[i]:
				return 0
			}
			return 1
		})
	}
}

// scanAscending is the inversion scan over a natively ordered backing
// slice. NaN has no place in a total order; its presence voids the claim —
// v[i-1] <= v[i] is false with a NaN on either side, and a lone NaN fails
// the reflexive check.
func scanAscending[E Ordered](v []E) Props {
	if len(v) == 1 && v[0] != v[0] {
		return 0
	}
	strict := true
	for i := 1; i < len(v); i++ {
		if !(v[i-1] <= v[i]) {
			return 0
		}
		if v[i-1] == v[i] {
			strict = false
		}
	}
	return orderedProps(strict)
}

// scanOrdered drives the inversion scan for the layouts without a native
// slice order: cmp(i) reports the sign of element i relative to its
// predecessor (-1 = inversion, 0 = equal, 1 = ascent).
func scanOrdered(n int, cmp func(i int) int) Props {
	strict := true
	for i := 1; i < n; i++ {
		switch c := cmp(i); {
		case c < 0:
			return 0
		case c == 0:
			strict = false
		}
	}
	return orderedProps(strict)
}

func orderedProps(strict bool) Props {
	if strict {
		return HOrdered | HKey
	}
	return HOrdered
}

// CheckProps verifies that every declared property actually holds, ordered
// and dense in detection's sense (a NaN voids order), and so does the
// grouping fact either column carries; it is used by the property-soundness
// tests, not by the engine.
func (b *BAT) CheckProps() error {
	for _, side := range []struct {
		name  string
		col   Column
		claim Props // in head-side bits
	}{{"head", b.H, b.Props}, {"tail", b.T, b.Props.Swap()}} {
		if g := GroupingOf(side.col); g != nil {
			if err := g.check(); err != nil {
				return fmt.Errorf("bat %s: %s: %v", b.Name, side.name, err)
			}
		}
		found := detectColProps(side.col)
		for q, what := range map[Props]string{HDense: "dense", HOrdered: "ordered"} {
			if side.claim.Has(q) && !found.Has(q) {
				return fmt.Errorf("bat %s: %s: %s violated", b.Name, side.name, what)
			}
		}
		if !side.claim.Has(HKey) || found.Has(HKey) {
			continue
		}
		seen := make(map[Value]bool, b.Len())
		for i := 0; i < b.Len(); i++ {
			v := side.col.Get(i)
			if seen[v] {
				return fmt.Errorf("bat %s: %s: key violated at %d (%s)", b.Name, side.name, i, v)
			}
			seen[v] = true
		}
	}
	return nil
}
