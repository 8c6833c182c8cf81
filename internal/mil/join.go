package mil

import (
	"encoding/binary"
	"math"

	"repro/internal/bat"
)

// Join implements AB.join(CD): {ad | ab ∈ AB ∧ cd ∈ CD ∧ b = c}. The
// equi-join projects out the join columns to stay closed in the binary model
// (Section 4.2). Variants:
//
//   - fetch-join: CD has a dense head, so matching is positional array
//     lookup;
//   - merge-join: AB's tail and CD's head are both ordered;
//   - hash-join: fallback, hash accelerator on CD's head (built and cached
//     on first use, like Monet's run-time accelerator construction).
//
// All variants run as typed kernels over the columns' backing slices; only
// the merge variant keeps a boxed loop, for column pairs without a typed
// merge.
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
			return mergeJoin(ctx, l, r)
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
	lt, ok := oidGetter(l.T)
	if !ok {
		return nil, false
	}
	ctx.chose("datavector-join")
	p := ctx.pager()
	l.T.TouchAll(p)
	n := l.Len()
	lpos := make([]int32, 0, n)
	vpos := make([]int32, 0, n)
	dv.ProbeEach(p, n, lt, func(i, pos int) {
		lpos = append(lpos, int32(i))
		vpos = append(vpos, int32(pos))
	})
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

// syncJoinMatch reports whether join(l, r) degenerates to positional
// pairing: equal-length duplicate-free oid join columns that correspond
// position by position. The O(n) verification scan bails at the first
// mismatch. Shared by syncJoin and the pipeline planner (a join head that
// would sync must not fuse — streaming would replace the zero-copy pairing
// with a hash build over r).
func syncJoinMatch(l, r *bat.BAT) bool {
	if l.Len() != r.Len() || l.Len() == 0 {
		return false
	}
	// Positional pairing is the complete join only if the join column is
	// duplicate-free; with duplicates every cross match must be produced.
	if !l.Props.Has(bat.TKey) && !r.Props.Has(bat.HKey) {
		return false
	}
	lt, ok1 := oidGetter(l.T)
	rh, ok2 := oidGetter(r.H)
	if !ok1 || !ok2 {
		return false
	}
	n := l.Len()
	for i := 0; i < n; i++ {
		if lt(i) != rh(i) {
			return false
		}
	}
	return true
}

// syncJoin recognizes the case where l's tail and r's head correspond
// position by position (e.g. join(class.mirror, values) when the grouping
// and the value set stem from the same candidate): the join degenerates to
// pairing l's head with r's tail, zero-copy.
func syncJoin(ctx *Ctx, l, r *bat.BAT) (*bat.BAT, bool) {
	if !syncJoinMatch(l, r) {
		return nil, false
	}
	ctx.chose("sync-join")
	p := ctx.pager()
	l.T.TouchAll(p)
	r.H.TouchAll(p)
	return bat.Derive(bat.New(l.Name+".join", l.H, r.T, 0), bat.Positional, l, r), true
}

// fetchVec is the fetch-join kernel: r's head is the dense oid sequence
// starting at its first head value, so a tail value of lt matches at most
// the one position its offset from that base names. It appends the (row,
// position) pairs of the rows of v in probe order. Non-oid tails coerce
// through Value.I, as fetch-join always had it.
func fetchVec(lt bat.Column, r *bat.BAT, v bat.Vector, lpos, rpos []int32) ([]int32, []int32) {
	var seq int
	if h, ok := r.H.(*bat.VoidCol); ok {
		seq = int(h.Seq)
	} else if r.Len() > 0 {
		seq = int(r.H.Get(0).OID())
	}
	n := r.Len()
	if oids, ok := lt.(*bat.OIDCol); ok {
		if v.Sel == nil {
			for i, o := range oids.V[v.Lo:v.Hi] {
				if x := int(o) - seq; x >= 0 && x < n {
					lpos = append(lpos, int32(v.Lo+i))
					rpos = append(rpos, int32(x))
				}
			}
			return lpos, rpos
		}
		for _, i := range v.Sel {
			if x := int(oids.V[i]) - seq; x >= 0 && x < n {
				lpos = append(lpos, i)
				rpos = append(rpos, int32(x))
			}
		}
		return lpos, rpos
	}
	for i := range v.All() {
		if x := int(lt.Get(int(i)).I) - seq; x >= 0 && x < n {
			lpos = append(lpos, i)
			rpos = append(rpos, int32(x))
		}
	}
	return lpos, rpos
}

func fetchJoin(ctx *Ctx, l, r *bat.BAT) *bat.BAT {
	ctx.chose("fetch-join")
	l.T.TouchAll(ctx.pager())
	nl := l.Len()
	lpos, rpos := fetchVec(l.T, r, bat.Vector{Hi: nl}, make([]int32, 0, nl), make([]int32, 0, nl))
	return joinResult(ctx, l, r, lpos, rpos)
}

func mergeJoin(ctx *Ctx, l, r *bat.BAT) *bat.BAT {
	ctx.chose("merge-join")
	p := ctx.pager()
	l.T.TouchAll(p)
	r.H.TouchAll(p)
	hint := l.Len()
	lpos := make([]int32, 0, hint)
	rpos := make([]int32, 0, hint)
	if lp, rp, ok := bat.MergeJoinPairs(l.T, r.H, lpos, rpos); ok {
		return joinResult(ctx, l, r, lp, rp)
	}
	// boxed fallback: column pair without a typed path
	i, j := 0, 0
	nl, nr := l.Len(), r.Len()
	for i < nl && j < nr {
		c := bat.Compare(l.T.Get(i), r.H.Get(j))
		switch {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			// emit the full group product for this key
			j2 := j
			for j2 < nr && bat.Compare(l.T.Get(i), r.H.Get(j2)) == 0 {
				lpos = append(lpos, int32(i))
				rpos = append(rpos, int32(j2))
				j2++
			}
			i++
		}
	}
	return joinResult(ctx, l, r, lpos, rpos)
}

func hashJoin(ctx *Ctx, l, r *bat.BAT) *bat.BAT {
	ctx.chose("hash-join")
	p := ctx.pager()
	r.H.TouchAll(p)
	l.T.TouchAll(p)
	// Accelerator construction radix-partitions above the kernel threshold
	// and parallelizes across the context's workers (sized by the build
	// side); every degree builds the identical index.
	idx := r.HeadHashSched(ctx.sched(r.Len()))
	pr, ok := idx.NewProbe(l.T)
	if !ok {
		// l's tail kind cannot occur in r's head: nothing joins.
		return joinResult(ctx, l, r, nil, nil)
	}
	lpos, rpos := parallelPairs(ctx, l.Len(), joinCap(l, r, idx),
		func(lo, hi int, lp, rp []int32) ([]int32, []int32) {
			return idx.JoinVec(pr, bat.Vector{Lo: lo, Hi: hi}, lp, rp)
		})
	return joinResult(ctx, l, r, lpos, rpos)
}

// JoinMulti performs an equi-join on composite keys: lKeys and rKeys are
// parallel lists of key value sets [elemid, keyval]. Key BATs on the same
// side are matched on their HEAD ids (they may be stored in different
// physical orders), and elements missing any key are dropped. It returns the
// matching (left id, right id) pairs; the rewriter uses it for MOA's general
// join[pred](A,B) on multi-attribute predicates (e.g. TPC-D Q9's
// (supplier, part) lookup into the supplies set, or Q2's (part, mincost)).
// The key arity is arbitrary: composite keys are encoded into a byte string
// per element, so four-attribute (and wider) predicates work unchanged.
func JoinMulti(ctx *Ctx, lKeys, rKeys []*bat.BAT) (lids, rids []bat.Value) {
	ctx.chose("hash-join")
	if len(lKeys) == 0 || len(lKeys) != len(rKeys) {
		return nil, nil
	}
	p := ctx.pager()
	type entry struct {
		id  bat.Value
		key string
	}
	// One nonce across both sides: every NaN key gets a globally fresh
	// salt, so NaNs never match — not within a side, not across sides.
	var nanNonce uint64
	// compose per-side entries aligned on head ids
	compose := func(keys []*bat.BAT) []entry {
		for _, k := range keys {
			k.H.TouchAll(p)
			k.T.TouchAll(p)
		}
		base := keys[0]
		accessors := make([]func(i int) (bat.Value, bool), len(keys))
		for j, k := range keys {
			if j == 0 {
				accessors[j] = func(i int) (bat.Value, bool) { return base.T.Get(i), true }
				continue
			}
			if bat.Synced(base, k) {
				kk := k
				accessors[j] = func(i int) (bat.Value, bool) { return kk.T.Get(i), true }
				continue
			}
			idx := make(map[bat.Value]int, k.Len())
			for i := 0; i < k.Len(); i++ {
				h := k.H.Get(i)
				if _, dup := idx[h]; !dup {
					idx[h] = i
				}
			}
			kk := k
			accessors[j] = func(i int) (bat.Value, bool) {
				pos, ok := idx[base.H.Get(i)]
				if !ok {
					return bat.Value{}, false
				}
				return kk.T.Get(pos), true
			}
		}
		out := make([]entry, 0, base.Len())
		var buf []byte
		for i := 0; i < base.Len(); i++ {
			buf = buf[:0]
			ok := true
			for _, acc := range accessors {
				v, has := acc(i)
				if !has {
					ok = false
					break
				}
				buf = encodeKeyValue(buf, v, &nanNonce)
			}
			if ok {
				out = append(out, entry{id: normHeadID(base.H.Get(i)), key: string(buf)})
			}
		}
		return out
	}

	rEntries := compose(rKeys)
	m := make(map[string][]bat.Value, len(rEntries))
	for _, e := range rEntries {
		m[e.key] = append(m[e.key], e.id)
	}
	for _, e := range compose(lKeys) {
		for _, rid := range m[e.key] {
			lids = append(lids, e.id)
			rids = append(rids, rid)
		}
	}
	return lids, rids
}

// encodeKeyValue appends an injective byte encoding of v: kind tag, the
// fixed-width payloads, and the length-prefixed string payload. Encoded
// equality coincides with Value equality under Go map-key semantics: -0
// normalizes to +0 (one key), and a NaN is salted with a fresh nonce so it
// never equals any key — not even itself — exactly as a map keyed on the
// old compositeKey struct behaved.
func encodeKeyValue(buf []byte, v bat.Value, nanNonce *uint64) []byte {
	f := v.F
	if f == 0 {
		f = 0
	}
	bits := math.Float64bits(f)
	if math.IsNaN(f) {
		*nanNonce++
		bits = *nanNonce
		buf = append(buf, 0xff) // distinct tag: nonce space must not collide
	}
	buf = append(buf, byte(v.K))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(v.I))
	buf = binary.LittleEndian.AppendUint64(buf, bits)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.S)))
	return append(buf, v.S...)
}

// normHeadID boxes void heads as oids so ids compare uniformly.
func normHeadID(v bat.Value) bat.Value {
	if v.K == bat.KVoid {
		return bat.O(bat.OID(v.I))
	}
	return v
}
