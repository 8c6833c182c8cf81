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

// syncSemijoinPrecheck detects identical oid head sequences at run time: the
// semijoin then degenerates to a copy (the sync-semijoin of Section 5.1),
// and the discovered correspondence is recorded on the operands for later
// operators.
func syncSemijoinPrecheck(ctx *Ctx, l, r *bat.BAT) (*bat.BAT, bool) {
	if l.Len() != r.Len() || l.Len() == 0 {
		return nil, false
	}
	lh, lok := oidGetter(l.H)
	rh, rok := oidGetter(r.H)
	if !lok || !rok {
		return nil, false
	}
	for i := 0; i < l.Len(); i++ {
		if lh(i) != rh(i) {
			return nil, false
		}
	}
	r.SyncWith(l)
	return syncSemijoin(ctx, l), true
}
