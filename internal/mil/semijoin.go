package mil

import "repro/internal/bat"

// Semijoin implements AB.semijoin(CD): {ab ∈ AB | ∃cd ∈ CD : a = c}.
// It is "heavily used for reassembling vertically partitioned fragments"
// (Section 4.2), so the dynamic optimizer has four variants (Section 5.1,
// 5.2.1), tried in order of decreasing specialisation:
//
//   - sync-semijoin: the operands are positionally synced, so the result is
//     just (a copy of) the left operand;
//   - alias-semijoin: the left head is a grouping's ids and the right head
//     covers their whole domain, so every left BUN qualifies and the result
//     is a shared view of the left operand;
//   - datavector-semijoin: the left operand carries a datavector
//     accelerator (Section 5.2.1 pseudo-code);
//   - merge-semijoin: both heads are ordered and of one kind;
//   - hash-semijoin: the fallback, probing the right head's bucket+link
//     accelerator with a typed (and, over large inputs, parallel) scan.
func Semijoin(ctx *Ctx, l, r *bat.BAT) *bat.BAT {
	switch {
	case bat.Synced(l, r):
		return syncSemijoin(ctx, l)
	case coversGroups(l, r):
		ctx.chose("alias-semijoin")
		return bat.Derive(bat.New(l.Name+".sel", l.H, l.T, 0), bat.Run, l, nil)
	case l.Datavector() != nil && oidHeaded(r):
		// The datavector probes object identifiers; a right operand whose
		// head is not oid-typed cannot match any extent entry under value
		// semantics, so it must take the generic variants.
		return datavectorSemijoin(ctx, l, r)
	case l.DetectHeadProps().Has(bat.HOrdered) && r.DetectHeadProps().Has(bat.HOrdered):
		// Detection recovers ordering on stripped intermediates (see
		// bat/props.go), keeping the merge variant eligible.
		if out, ok := mergeSemijoin(ctx, l, r); ok {
			return out
		}
	}
	return hashSemijoin(ctx, l, r)
}

// coversGroups reports whether l's head is a grouping's ids and r's head
// provably holds every one of them: it is the dense oid sequence from 0 on,
// at least as long as the grouping's domain [0, G).
func coversGroups(l, r *bat.BAT) bool {
	g := bat.GroupingOf(l.H)
	if g == nil || r.Len() < g.Len() {
		return false
	}
	at, ok := oidGetter(r.H)
	return ok && (r.Len() == 0 || at(0) == 0) && r.DetectHeadProps().Has(bat.HDense)
}

// oidHeaded reports whether b's head column holds object identifiers.
func oidHeaded(b *bat.BAT) bool { return oidKind(b.H.Kind()) }

// oidKind reports whether k is a kind of object identifiers.
func oidKind(k bat.Kind) bool { return k == bat.KOID || k == bat.KVoid }

// syncSemijoin: "using the knowledge that the join columns are exactly equal
// [it] just returns a copy of its left operand BAT". BATs are immutable, so
// the copy is a shared view.
func syncSemijoin(ctx *Ctx, l *bat.BAT) *bat.BAT {
	ctx.chose("sync-semijoin")
	return bat.Derive(bat.New(l.Name+".sel", l.H, l.T, 0), bat.Subset, l, nil)
}

// datavectorSemijoin transcribes the pseudo-code of Section 5.2.1 over a
// dense extent: the LOOKUP array mapping r's oids to extent positions is
// one subtraction per oid (denseProbe), so the semijoin computes its own
// instead of memoizing it on the accelerator, and the insertion phase
// fetches the matching values out of the value vector.
func datavectorSemijoin(ctx *Ctx, l, r *bat.BAT) *bat.BAT {
	ctx.chose("datavector-semijoin")
	dv := l.Datavector()
	p := ctx.pager()
	r.H.TouchAll(p)
	// Insertion phase: fetch matching head and tail values from EXTENT and
	// VECTOR (pseudo-code lines 17-19). The LOOKUP array doubles as the
	// gather permutation into the value vector.
	_, lookup, _ := denseProbe(r.H, dv.Base, dv.Len(), false)
	dv.Vector.TouchPositions(p, lookup)
	// Result BUNs follow r's order (bat.Probed). If every r element matched,
	// the matched oids are r's head itself, so the result shares that
	// column and is positionally synced with r (and with any other
	// full-match datavector semijoin against r) — the effect exploited in
	// Fig. 10: "Both stem from a semijoin with a 100% match ... so they
	// again are synced".
	head := r.H
	switch v, void := r.H.(*bat.VoidCol); {
	case len(lookup) == r.Len():
	case void && len(lookup) > 0:
		// A void head meets the extent in one run: the head is a view of
		// it, as the tail is of the vector (what Gather makes of a run).
		head = bat.SliceView(v, int(dv.Base)+int(lookup[0])-int(v.Seq), len(lookup))
	default:
		heads := make([]bat.OID, len(lookup))
		for i, pos := range lookup {
			heads[i] = dv.Base + bat.OID(pos)
		}
		head = bat.NewOIDCol(heads)
	}
	return bat.Derive(bat.New(l.Name+".sel", head, bat.Gather(dv.Vector, lookup), 0), bat.Probed, l, r)
}

// mergeSemijoin reports false for heads without a typed merge (different
// kinds, bits): the hash variant then answers, under the same key equality.
func mergeSemijoin(ctx *Ctx, l, r *bat.BAT) (*bat.BAT, bool) {
	pos, _, ok := bat.MergeJoinPairs(l.H, r.H, true, make([]int32, 0, semijoinCap(l, r)), nil)
	if !ok {
		return nil, false
	}
	ctx.chose("merge-semijoin")
	p := ctx.pager()
	l.H.TouchAll(p)
	r.H.TouchAll(p)
	return gatherPositions(ctx, l.Name+".sel", l, pos), true
}

// semijoinCap bounds the match count for pre-sizing: a semijoin keeps at
// most every left row, and at most one row per right element when the left
// head is key.
func semijoinCap(l, r *bat.BAT) int {
	n := l.Len()
	if l.Props.Has(bat.HKey) && r.Len() < n {
		return r.Len()
	}
	return n
}

func hashSemijoin(ctx *Ctx, l, r *bat.BAT) *bat.BAT {
	// Identical oid head sequences found at run time: the semijoin
	// degenerates to a copy (the sync-semijoin of Section 5.1).
	if sameOIDs(ctx.pager(), l.H, r.H) {
		return syncSemijoin(ctx, l)
	}
	ctx.chose("hash-semijoin")
	p := ctx.pager()
	r.H.TouchAll(p)
	l.H.TouchAll(p)
	idx := r.HeadHashSched(ctx.sched(r.Len()))
	pr, ok := idx.NewProbe(l.H)
	if !ok {
		// l's head kind cannot occur in r's head: nothing qualifies.
		return gatherPositions(ctx, l.Name+".sel", l, nil)
	}
	n, capHint := l.Len(), semijoinCap(l, r)
	pos := morselLoop(ctx, n, func(lo, hi int) []int32 {
		return idx.FilterVec(pr, lo, hi, true, make([]int32, 0, scratchHint(capHint, lo, hi, n)))
	}, catPositions)
	return gatherPositions(ctx, l.Name+".sel", l, pos)
}
