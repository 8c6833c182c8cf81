package mil

import (
	"slices"

	"repro/internal/bat"
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

// sameOIDs reports whether a and b are equal-length, non-empty oid columns
// holding the same oid at every position: in O(1) for one backing array at
// one offset or two voids, by slices.Equal for two oid columns, and
// arithmetically against a void column. The scans bail at the first
// mismatch.
func sameOIDs(a, b bat.Column) bool {
	n := a.Len()
	if b.Len() != n || n == 0 {
		return false
	}
	ao, aOID := a.(*bat.OIDCol)
	bo, bOID := b.(*bat.OIDCol)
	av, aVoid := a.(*bat.VoidCol)
	bv, bVoid := b.(*bat.VoidCol)
	switch {
	case aOID && bOID:
		return &ao.V[0] == &bo.V[0] || slices.Equal(ao.V, bo.V)
	case aOID && bVoid:
		return isSeq(ao.V, bv.Seq)
	case aVoid && bOID:
		return isSeq(bo.V, av.Seq)
	case aVoid && bVoid:
		return av.Seq == bv.Seq
	}
	return false
}

// isSeq reports whether v holds seq, seq+1, … position by position.
func isSeq(v []bat.OID, seq bat.OID) bool {
	for i, o := range v {
		if o != seq+bat.OID(i) {
			return false
		}
	}
	return true
}

// syncSemijoinPrecheck detects identical oid head sequences at run time: the
// semijoin then degenerates to a copy (the sync-semijoin of Section 5.1),
// and the discovered correspondence is recorded on the operands for later
// operators.
func syncSemijoinPrecheck(ctx *Ctx, l, r *bat.BAT) (*bat.BAT, bool) {
	if !sameOIDs(l.H, r.H) {
		return nil, false
	}
	r.SyncWith(l)
	return syncSemijoin(ctx, l), true
}
