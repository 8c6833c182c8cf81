package mil

import (
	"slices"

	"repro/internal/bat"
)

// Join implements AB.join(CD): {ad | ab ∈ AB ∧ cd ∈ CD ∧ b = c}. The
// equi-join projects out the join columns to stay closed in the binary model
// (Section 4.2). Variants:
//
//   - fetch-join: CD has a dense head, so matching is positional array
//     lookup;
//   - merge-join: AB's tail and CD's head are ordered and of one kind;
//   - hash-join: fallback, hash accelerator on CD's head (built and cached
//     on first use, like Monet's run-time accelerator construction).
//
// All variants run as typed kernels over the columns' backing slices and
// match keys under one equality, the map-key equality of the hash variant.
func Join(ctx *Ctx, l, r *bat.BAT) *bat.BAT {
	if out, ok := syncJoin(ctx, l, r); ok {
		return out
	}
	if out, ok := dvJoin(ctx, l, r); ok {
		return out
	}
	switch {
	case r.KnownProps().Has(bat.HDense):
		return fetchJoin(ctx, l, r)
	case l.DetectTailProps().Has(bat.TOrdered):
		// The left tail is ordered (declared, or recovered by the detection
		// scan on a stripped intermediate) — worth scanning the right head
		// too: a dense or ordered discovery upgrades the variant.
		switch rp := r.DetectHeadProps(); {
		case rp.Has(bat.HDense):
			return fetchJoin(ctx, l, r)
		case rp.Has(bat.HOrdered):
			if out, ok := mergeJoin(ctx, l, r); ok {
				return out
			}
		}
		return hashJoin(ctx, l, r)
	default:
		return hashJoin(ctx, l, r)
	}
}

// dvJoin joins through the right operand's datavector accelerator: an
// attribute BAT stored tail-ordered answers oid→value probes in O(1) via its
// extent+vector (Section 5.2), so joining a list of oids against it needs
// neither hashing nor sorting. This is the join-side counterpart of the
// datavector semijoin.
func dvJoin(ctx *Ctx, l, r *bat.BAT) (*bat.BAT, bool) {
	dv := r.Datavector()
	if dv == nil {
		return nil, false
	}
	lpos, vpos, ok := denseProbe(l.T, dv.Base, dv.Len(), true)
	if !ok {
		return nil, false
	}
	ctx.chose("datavector-join")
	p := ctx.pager()
	l.T.TouchAll(p)
	dv.Vector.TouchPositions(p, vpos)
	// r's head, a permutation of the datavector's extent, is declared key,
	// so each l row matches at most once.
	return bat.Derive(bat.New(l.Name+".join", bat.Gather(l.H, lpos), bat.Gather(dv.Vector, vpos), 0), bat.Pairs, l, r), true
}

// joinResult assembles the output BAT from matched (left position, right
// position) pairs in left scan order: the bat.Pairs of l and r.
func joinResult(ctx *Ctx, l, r *bat.BAT, lpos, rpos []int32) *bat.BAT {
	p := ctx.pager()
	l.H.TouchPositions(p, lpos)
	r.T.TouchPositions(p, rpos)
	return bat.Derive(bat.New(l.Name+".join", bat.Gather(l.H, lpos), bat.Gather(r.T, rpos), 0), bat.Pairs, l, r)
}

// joinCap estimates the match count for pre-sizing the position buffers: a
// key right head caps matches at one per left row; otherwise the accelerator
// cardinality gives the average duplicate factor. The accelerator may prove
// the head key as a side effect of its cardinality count; r remembers it for
// the result's properties and later dispatches.
func joinCap(l, r *bat.BAT, idx *bat.HashIndex) int {
	n := l.Len()
	if r.NoteHeadIndex(idx); r.KnownProps().Has(bat.HKey) {
		return n
	}
	if c := idx.Card(); c > 0 {
		dup := (r.Len() + c - 1) / c
		est := int64(n) * int64(dup)
		if lim := int64(n) * 8; est > lim {
			est = lim
		}
		if est > 1<<24 {
			est = 1 << 24
		}
		return int(est)
	}
	return n
}

// syncJoin recognizes the case where l's tail and r's head correspond
// position by position (e.g. join(class.mirror, values) when the grouping
// and the value set stem from the same candidate): the join degenerates to
// pairing l's head with r's tail, zero-copy. Positional pairing is the
// complete join only if the join column is duplicate-free; with duplicates
// every cross match must be produced. Two shared columns prove the
// correspondence without reading either; only sameOIDs' verification scan
// reads (and touches) them.
func syncJoin(ctx *Ctx, l, r *bat.BAT) (*bat.BAT, bool) {
	if !(l.Props.Has(bat.TKey) || r.Props.Has(bat.HKey)) || !sameOIDs(ctx.pager(), l.T, r.H) {
		return nil, false
	}
	ctx.chose("sync-join")
	return bat.Derive(bat.New(l.Name+".join", l.H, r.T, 0), bat.Positional, l, r), true
}

// fetchJoin is the join whose right head is the dense oid sequence starting
// at its first head value: a tail value of l matches at most the one
// position its offset from that base names, so the pairs come out in probe
// order without an accelerator. Non-oid tails coerce through Value.I.
func fetchJoin(ctx *Ctx, l, r *bat.BAT) *bat.BAT {
	ctx.chose("fetch-join")
	l.T.TouchAll(ctx.pager())
	var seq int
	n := r.Len()
	if get, ok := oidGetter(r.H); ok && n > 0 {
		seq = int(get(0))
	}
	lpos, rpos, ok := denseProbe(l.T, bat.OID(seq), n, true)
	if !ok {
		lt, nl := l.T, l.Len()
		lpos, rpos = make([]int32, 0, nl), make([]int32, 0, nl)
		for i := 0; i < nl; i++ {
			if x := int(lt.Get(i).I) - seq; x >= 0 && x < n {
				lpos = append(lpos, int32(i))
				rpos = append(rpos, int32(x))
			}
		}
	}
	return joinResult(ctx, l, r, lpos, rpos)
}

// mergeJoin reports false for columns without a typed merge (different
// kinds, bits): the hash variant then answers, under the same key equality.
func mergeJoin(ctx *Ctx, l, r *bat.BAT) (*bat.BAT, bool) {
	hint := l.Len()
	lpos, rpos, ok := bat.MergeJoinPairs(l.T, r.H, false, make([]int32, 0, hint), make([]int32, 0, hint))
	if !ok {
		return nil, false
	}
	ctx.chose("merge-join")
	p := ctx.pager()
	l.T.TouchAll(p)
	r.H.TouchAll(p)
	return joinResult(ctx, l, r, lpos, rpos), true
}

func hashJoin(ctx *Ctx, l, r *bat.BAT) *bat.BAT {
	ctx.chose("hash-join")
	p := ctx.pager()
	r.H.TouchAll(p)
	l.T.TouchAll(p)
	// The accelerator is built once, sequentially; the schedule lends the
	// build its stop hook and its build timing.
	idx := r.HeadHashSched(ctx.sched(r.Len()))
	pr, ok := idx.NewProbe(l.T)
	if !ok {
		// l's tail kind cannot occur in r's head: nothing joins.
		return joinResult(ctx, l, r, nil, nil)
	}
	n, capHint := l.Len(), joinCap(l, r, idx)
	jp := morselLoop(ctx, n, func(lo, hi int) (p pairs) {
		hint := scratchHint(capHint, lo, hi, n)
		p.l, p.r = idx.JoinVec(pr, lo, hi, make([]int32, 0, hint), make([]int32, 0, hint))
		return p
	}, catPairs)
	return joinResult(ctx, l, r, jp.l, jp.r)
}

// JoinMulti performs an equi-join on composite keys: lKeys and rKeys are
// parallel lists of key value sets [elemid, keyval]. Key BATs on the same
// side are matched on their HEAD ids (they may be stored in different
// physical orders), and elements missing any key are dropped. It returns the
// matching [left id, right id] pairs in left element order, a left element's
// partners ascending; the rewriter uses it for MOA's general join[pred](A,B)
// on multi-attribute predicates (e.g. TPC-D Q9's (supplier, part) lookup into
// the supplies set, or Q2's (part, mincost)). The key arity is arbitrary.
func JoinMulti(ctx *Ctx, lKeys, rKeys []*bat.BAT) *bat.BAT {
	ctx.chose("hash-join")
	if len(lKeys) == 0 || len(lKeys) != len(rKeys) {
		return bat.New("joinmulti", bat.NewOIDCol(nil), bat.NewOIDCol(nil), 0)
	}
	p := ctx.pager()
	for _, keys := range [][]*bat.BAT{rKeys, lKeys} {
		for _, k := range keys {
			k.H.TouchAll(p)
			k.T.TouchAll(p)
		}
	}
	lp, rp := keyPairs(ctx, lKeys, rKeys)
	return bat.New("joinmulti", elementIDs(lKeys[0].H, lp), elementIDs(rKeys[0].H, rp), 0)
}

// keyPairs returns the (left, right) base rows of the matching elements,
// matching keys the way Union matches heads: each key's sides are
// concatenated (right, then left), and the grouper hands out a slot per
// distinct composite key. Right elements claim the slots, the table sized for
// one slot each; a left element whose key holds a slot pairs with its right
// elements, and adds none (Find). Equality is the map-key equality of every
// other join: keys of different kinds (void and oid aside) match nothing, -0
// equals +0, and NaN matches nothing.
func keyPairs(ctx *Ctx, lKeys, rKeys []*bat.BAT) (lp, rp []int32) {
	for j := range lKeys {
		lk, rk := lKeys[j].T.Kind(), rKeys[j].T.Kind()
		if lk != rk && !(oidKind(lk) && oidKind(rk)) {
			return nil, nil
		}
	}
	lRows, lCols := alignKeys(ctx, lKeys)
	rRows, rCols := alignKeys(ctx, rKeys)
	nr := len(rRows)
	s := ctx.sched(nr + len(lRows))
	eq := make(bat.KeysEq, len(lKeys))
	for j := range eq {
		eq[j] = bat.NewKeyRepP(bat.Concat(rCols[j], lCols[j]), s)
	}
	rep := eq[0].Rep
	if len(eq) > 1 {
		rep = slices.Clone(rep)
		for _, k := range eq[1:] {
			for i, x := range k.Rep {
				rep[i] = bat.Mix(rep[i], x)
			}
		}
	}

	// next chains each slot's right rows, ascending, from its first row.
	g := bat.NewGrouper(&eq)
	g.Reserve(nr)
	next := make([]int32, nr)
	last := make([]int32, 0, nr)
	for i := range next {
		next[i] = -1
		if s, fresh := g.Slot(rep[i], int32(i)); fresh {
			last = append(last, int32(i))
		} else {
			next[last[s]] = int32(i)
			last[s] = int32(i)
		}
	}
	first := g.Rows()
	lp = make([]int32, 0, len(lRows))
	rp = make([]int32, 0, len(lRows))
	for i, row := range lRows {
		s := g.Find(rep[nr+i], int32(nr+i))
		if s < 0 {
			continue
		}
		for r := first[s]; r >= 0; r = next[r] {
			lp = append(lp, row)
			rp = append(rp, rRows[r])
		}
	}
	return lp, rp
}

// alignKeys aligns one side's keys on the first key's heads: it returns the
// rows of the first key whose head every key holds, ascending, and each
// key's tail gathered at those rows.
func alignKeys(ctx *Ctx, keys []*bat.BAT) ([]int32, []bat.Column) {
	base := keys[0]
	at := make([][]int32, len(keys))
	for j, k := range keys[1:] {
		if !bat.Synced(base, k) {
			at[j+1] = alignHeads(ctx, base, k)
		}
	}
	rows := alignedRows(base.Len(), at)
	cols := make([]bat.Column, len(keys))
	for j, k := range keys {
		pos := rows
		if at[j] != nil {
			pos = at[j]
		}
		cols[j] = bat.Gather(k.T, pos)
	}
	return rows, cols
}

// elementIDs gathers the element ids of head column h at pos into a column
// of their own: void ids widen to oids, and a run is copied, not viewed.
func elementIDs(h bat.Column, pos []int32) bat.Column {
	if v, ok := h.(*bat.VoidCol); ok {
		ids := make([]bat.OID, len(pos))
		for k, i := range pos {
			ids[k] = v.Seq + bat.OID(i)
		}
		return bat.NewOIDCol(ids)
	}
	return bat.UnshareColumn(bat.Gather(h, pos))
}
