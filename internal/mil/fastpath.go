package mil

import (
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
// holding the same oid at every position. The scan bails at the first
// mismatch.
func sameOIDs(a, b bat.Column) bool {
	if a.Len() != b.Len() || a.Len() == 0 {
		return false
	}
	ga, aok := oidGetter(a)
	gb, bok := oidGetter(b)
	if !aok || !bok {
		return false
	}
	for i := range a.Len() {
		if ga(i) != gb(i) {
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
