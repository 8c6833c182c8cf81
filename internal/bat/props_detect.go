package bat

import "strings"

// Run-time property re-detection (Section 5.1's "properties are maintained
// by the kernel" taken one step further): many kernels produce results whose
// order or keyness they cannot prove cheaply at construction time, so the
// propagation rules conservatively strip those bits — and every later join
// against such an intermediate falls back to the hash variant even when the
// data happens to be perfectly ordered. The detection scan recovers the
// truth: one memoized pass over the column (early exit at the first
// inversion, so disordered data pays almost nothing) that feeds HOrdered/
// HKey/HDense (or their tail twins) back into the BAT's effective
// properties, widening merge- and fetch-variant eligibility for every
// subsequent operation on the same BAT.
//
// The scan is pure metadata work for the dynamic optimizer: it does not
// touch the simulated pager (the variant chosen afterwards performs its own
// TouchAll accounting), and a negative result is memoized just like a
// positive one, so no column is ever scanned twice.

const (
	detHeadScanned = 1 << 16
	detTailScanned = 1 << 17
	detPropsMask   = 0xffff
)

// KnownProps returns the BAT's effective properties: the statically
// propagated Props plus everything run-time detection has recovered so far.
// Lock-free; safe under concurrent sessions.
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

// NoteHeadKey records externally proven head uniqueness (e.g. a hash
// accelerator whose cardinality equals the BAT length).
func (b *BAT) NoteHeadKey() { b.detected.Or(uint32(HKey)) }

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
