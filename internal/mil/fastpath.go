package mil

import (
	"slices"

	"repro/internal/bat"
	"repro/internal/storage"
)

// The typed kernels in internal/bat carry the operators' hot loops; the
// accessors here cover the remaining positional oid fast paths — object
// identifiers are what the flattened representation joins on (Section 3.3).

// oidGetter returns a positional oid accessor for oid-typed columns.
func oidGetter(c bat.Column) (func(int) bat.OID, bool) {
	switch cc := c.(type) {
	case *bat.OIDCol:
		return func(i int) bat.OID { return cc.V[i] }, true
	case *bat.VoidCol:
		return func(i int) bat.OID { return cc.Seq + bat.OID(i) }, true
	}
	return nil, false
}

// denseProbe probes the oids of column c into the dense oid sequence
// base..base+n-1 — a datavector's extent or a dense right head: it returns,
// in row order, the position o−base of every oid o of c inside the sequence
// and, when rows is set, the row holding it. Each probe is a subtraction and
// a bounds check in a typed loop; a void c holds one run of oids, so its
// hits are one run of rows and cost no per-row lookup. ok is false when c
// does not hold oids.
func denseProbe(c bat.Column, base bat.OID, n int, rows bool) (lpos, pos []int32, ok bool) {
	if v, void := c.(*bat.VoidCol); void {
		lo, first, k := voidRun(v, base, n)
		pos = make([]int32, k)
		for i := range pos {
			pos[i] = int32(first + i)
		}
		if rows {
			lpos = make([]int32, k)
			for i := range lpos {
				lpos[i] = int32(lo + i)
			}
		}
		return lpos, pos, true
	}
	oids, ok := c.(*bat.OIDCol)
	if !ok {
		return nil, nil, false
	}
	pos = make([]int32, 0, len(oids.V))
	if rows {
		lpos = make([]int32, 0, len(oids.V))
	}
	for i, o := range oids.V {
		// o−base wraps past n for an oid below base
		if x := uint32(o - base); x < uint32(n) {
			pos = append(pos, int32(x))
			if rows {
				lpos = append(lpos, int32(i))
			}
		}
	}
	return lpos, pos, true
}

// voidRun returns where void column v meets the dense oid sequence
// base..base+n-1: its k rows from row lo hold the positions from first on.
func voidRun(v *bat.VoidCol, base bat.OID, n int) (lo, first, k int) {
	lo = max(int(base)-int(v.Seq), 0)
	hi := min(int(base)+n-int(v.Seq), v.N)
	return lo, int(v.Seq) + lo - int(base), max(hi-lo, 0)
}

// sameOIDs reports whether a and b are equal-length, non-empty oid columns
// holding the same oid at every position. It is O(1) when they are one
// column (bat.SameColumn), which is how the results of operators that keep
// every BUN are synced; otherwise it detects two independently computed
// equal sequences by a scan — slices.Equal for two oid columns, arithmetic
// against a void column — that bails at the first mismatch, and a scan that
// proves them equal records its reads against p.
func sameOIDs(p *storage.Tracker, a, b bat.Column) bool {
	n := a.Len()
	if b.Len() != n || n == 0 || !oidKind(a.Kind()) || !oidKind(b.Kind()) {
		return false
	}
	if bat.SameColumn(a, b) {
		return true
	}
	ao, aOID := a.(*bat.OIDCol)
	bo, bOID := b.(*bat.OIDCol)
	av, aVoid := a.(*bat.VoidCol)
	bv, bVoid := b.(*bat.VoidCol)
	var same bool
	switch {
	case aOID && bOID:
		same = slices.Equal(ao.V, bo.V)
	case aOID && bVoid:
		lo, run := bat.PositionRun(ao.V)
		same = run && bat.OID(lo) == bv.Seq
	case aVoid && bOID:
		lo, run := bat.PositionRun(bo.V)
		same = run && bat.OID(lo) == av.Seq
	}
	if same {
		a.TouchAll(p)
		b.TouchAll(p)
	}
	return same
}
