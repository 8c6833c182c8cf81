package mil

import (
	"encoding/binary"
	"math"

	"repro/internal/bat"
)

// The boxed reference implementations the typed kernels are tested against:
// per-row loops over boxed Values and Go maps, none of them reachable from
// the binary.

// uniqueBoxed is the boxed-map variant of Unique.
func uniqueBoxed(ctx *Ctx, b *bat.BAT) *bat.BAT {
	type bun struct{ h, t bat.Value }
	seen := make(map[bun]struct{}, b.Len())
	var pos []int32
	for i := 0; i < b.Len(); i++ {
		k := bun{b.H.Get(i), b.T.Get(i)}
		if _, ok := seen[k]; ok {
			continue
		}
		seen[k] = struct{}{}
		pos = append(pos, int32(i))
	}
	return gatherPositions(ctx, b.Name+".uniq", b, pos)
}

// groupTailsBoxed assigns group oids per distinct boxed tail value; it is
// GroupUnary's parity reference.
func groupTailsBoxed(b *bat.BAT, out []bat.OID) {
	ids := make(map[bat.Value]bat.OID, b.Len())
	var next bat.OID
	for i := 0; i < b.Len(); i++ {
		v := b.T.Get(i)
		id, ok := ids[v]
		if !ok {
			id = next
			next++
			ids[v] = id
		}
		out[i] = id
	}
}

// aggrBoxed is the boxed reference of Aggr.
func aggrBoxed(ctx *Ctx, fn string, b *bat.BAT) *bat.BAT {
	if b.Props.Has(bat.HOrdered) {
		return aggrOrderedBoxed(ctx, fn, b)
	}
	ctx.chose("hash-aggr")
	accs := make(map[bat.Value]*aggAcc, 64)
	var order []bat.Value
	for i := 0; i < b.Len(); i++ {
		h := b.H.Get(i)
		acc, ok := accs[h]
		if !ok {
			acc = &aggAcc{}
			accs[h] = acc
			order = append(order, h)
		}
		acc.add(b.T.Get(i))
	}
	return aggrAssemble(fn, b, order, func(h bat.Value) *aggAcc { return accs[h] })
}

// aggrOrderedBoxed exploits an ordered head: groups are contiguous runs, no
// hash table needed.
func aggrOrderedBoxed(ctx *Ctx, fn string, b *bat.BAT) *bat.BAT {
	var order []bat.Value
	var accs []*aggAcc
	for i := 0; i < b.Len(); i++ {
		h := b.H.Get(i)
		if len(order) == 0 || !bat.Equal(order[len(order)-1], h) {
			order = append(order, h)
			accs = append(accs, &aggAcc{})
		}
		accs[len(accs)-1].add(b.T.Get(i))
	}
	i := -1
	return aggrAssemble(fn, b, order, func(bat.Value) *aggAcc { i++; return accs[i] })
}

func aggrAssemble(fn string, b *bat.BAT, order []bat.Value, accOf func(bat.Value) *aggAcc) *bat.BAT {
	kind := aggResultKind(fn, b.T.Kind())
	vals := make([]bat.Value, len(order))
	for i, h := range order {
		vals[i] = accOf(h).result(fn, b.T.Kind())
	}
	out := bat.New("{"+fn+"}", bat.FromValues(b.H.Kind(), order), bat.FromValues(kind, vals), bat.HKey)
	if b.Props.Has(bat.HOrdered) {
		out.Props |= bat.HOrdered
	}
	return out
}

// scalarBoxed is the boxed reference of AggrScalar: one boxed accumulator
// over every tail value; min and max over no rows are the zero value of
// their kind.
func scalarBoxed(fn string, b *bat.BAT) *bat.BAT {
	acc := &aggAcc{}
	for i := 0; i < b.Len(); i++ {
		acc.add(b.T.Get(i))
	}
	kind := aggResultKind(fn, b.T.Kind())
	v := acc.result(fn, b.T.Kind())
	if !acc.first && (fn == "min" || fn == "max") {
		v = bat.Value{K: kind}
	}
	return bat.New("{"+fn+"}all", bat.NewOIDCol([]bat.OID{0}),
		bat.FromValues(kind, []bat.Value{v}), bat.HKey|bat.TKey)
}

// selectBoxed is the boxed reference of the scan select: the BUNs whose
// tail satisfies inRange, row by row.
func selectBoxed(b *bat.BAT, lo, hi *bat.Value, loIncl, hiIncl bool) *bat.BAT {
	var pos []int32
	for i := 0; i < b.Len(); i++ {
		if inRange(b.T.Get(i), lo, hi, loIncl, hiIncl) {
			pos = append(pos, int32(i))
		}
	}
	return gatherPositions(nil, b.Name+".sel", b, pos)
}

// multiplexBoxed is the boxed reference of the aligned multiplex: f.Apply
// over the boxed operands of every row; the tail kind is that of the first
// result (resultKind for an empty operand).
func multiplexBoxed(f *Func, first *bat.BAT, args []Operand) *bat.BAT {
	vals := make([]bat.Value, first.Len())
	buf := make([]bat.Value, len(args))
	for i := range vals {
		for j, a := range args {
			if a.B != nil {
				buf[j] = a.B.T.Get(i)
			} else {
				buf[j] = *a.Const
			}
		}
		vals[i] = f.Apply(buf)
	}
	kind := resultKind(f, args)
	if len(vals) > 0 {
		kind = vals[0].K
	}
	return bat.New("["+f.Name+"]", first.H, bat.FromValues(kind, vals), first.Props&(bat.HOrdered|bat.HKey))
}

// multiplexHashBoxed is the boxed-map reference of the hash multiplex: head
// → first position maps for the other BAT operands, the first iterated in
// order, unmatched heads dropped.
func multiplexHashBoxed(f *Func, first *bat.BAT, args []Operand) *bat.BAT {
	idx := make([]map[bat.Value]int, len(args))
	for j, a := range args {
		if a.B != nil && a.B != first {
			idx[j] = make(map[bat.Value]int, a.B.Len())
			for i := 0; i < a.B.Len(); i++ {
				h := a.B.H.Get(i)
				if _, dup := idx[j][h]; !dup {
					idx[j][h] = i
				}
			}
		}
	}
	buf := make([]bat.Value, len(args))
	var heads, vals []bat.Value
outer:
	for i := 0; i < first.Len(); i++ {
		h := first.H.Get(i)
		for j, a := range args {
			switch {
			case a.Const != nil:
				buf[j] = *a.Const
			case a.B == first:
				buf[j] = first.T.Get(i)
			default:
				pos, ok := idx[j][h]
				if !ok {
					continue outer
				}
				buf[j] = a.B.T.Get(pos)
			}
		}
		heads = append(heads, h)
		vals = append(vals, f.Apply(buf))
	}
	hk := first.H.Kind()
	if hk == bat.KVoid {
		hk = bat.KOID
	}
	// Every head kept, in order: they are first's head column.
	var head bat.Column = first.H
	if len(heads) < first.Len() {
		head = bat.FromValues(hk, heads)
	}
	return bat.New("["+f.Name+"]", head, bat.FromValues(resultKind(f, args), vals), first.Props&(bat.HOrdered|bat.HKey))
}

// unionBoxed is the boxed-map reference of Union: BUNs of a, then of b, each
// kept when its boxed head has not been seen.
func unionBoxed(a, b *bat.BAT) *bat.BAT {
	seen := make(map[bat.Value]struct{}, a.Len()+b.Len())
	var heads, tails []bat.Value
	for _, x := range []*bat.BAT{a, b} {
		for i := 0; i < x.Len(); i++ {
			h := x.H.Get(i)
			if _, ok := seen[h]; ok {
				continue
			}
			seen[h] = struct{}{}
			heads = append(heads, h)
			tails = append(tails, x.T.Get(i))
		}
	}
	hk, tk := a.H.Kind(), a.T.Kind()
	if a.Len() == 0 {
		hk, tk = b.H.Kind(), b.T.Kind()
	}
	if hk == bat.KVoid {
		hk = bat.KOID
	}
	if tk == bat.KVoid {
		tk = bat.KOID
	}
	return bat.New(a.Name+".union", bat.FromValues(hk, heads), bat.FromValues(tk, tails), bat.HKey)
}

// groupBinaryBoxed refines boxed (group, value) pairs through a map; it also
// handles the un-synced case by aligning b's tails to g's heads. It is
// GroupBinary's parity reference.
func groupBinaryBoxed(g, b *bat.BAT, out []bat.OID) {
	valueAt := alignedTailAccessor(g, b)
	type refKey struct {
		grp bat.Value
		val bat.Value
	}
	ids := make(map[refKey]bat.OID, g.Len())
	var next bat.OID
	for i := 0; i < g.Len(); i++ {
		k := refKey{g.T.Get(i), valueAt(i)}
		id, ok := ids[k]
		if !ok {
			id = next
			next++
			ids[k] = id
		}
		out[i] = id
	}
}

// alignedTailAccessor returns a function mapping positions of a to the tail
// value of b for the same head (the zero Value where b lacks the head); the
// fast path is positional when the two BATs are synced.
func alignedTailAccessor(a, b *bat.BAT) func(i int) bat.Value {
	if bat.Synced(a, b) {
		return func(i int) bat.Value { return b.T.Get(i) }
	}
	idx := make(map[bat.Value]int, b.Len())
	for i := 0; i < b.Len(); i++ {
		h := b.H.Get(i)
		if _, dup := idx[h]; !dup {
			idx[h] = i
		}
	}
	return func(i int) bat.Value {
		j, ok := idx[a.H.Get(i)]
		if !ok {
			return bat.Value{}
		}
		return b.T.Get(j)
	}
}

// joinMultiBoxed is JoinMulti's parity reference: each side's composite
// keys, aligned on head ids through a boxed map, are encoded into one byte
// string per element and matched through a map of strings.
func joinMultiBoxed(lKeys, rKeys []*bat.BAT) (lids, rids []bat.Value) {
	if len(lKeys) == 0 || len(lKeys) != len(rKeys) {
		return nil, nil
	}
	type entry struct {
		id  bat.Value
		key string
	}
	// One nonce across both sides: every NaN key gets a globally fresh
	// salt, so NaNs never match — not within a side, not across sides.
	var nanNonce uint64
	// compose per-side entries aligned on head ids
	compose := func(keys []*bat.BAT) []entry {
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
// never equals any key — not even itself.
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
