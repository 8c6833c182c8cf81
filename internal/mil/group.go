package mil

import (
	"repro/internal/bat"
)

// The grouping operators hand out slots in first-occurrence order through
// one of two kernels. Exact keys of small span (group ids, characters,
// flags, narrow integers and dates) take slots by direct index
// (bat.DenseGrouper: the dense-* variants, sequential at any worker count);
// every other key — wide, float, string or un-synced — hashes through the
// bucket+link grouper, radix-partitioned over large inputs (the hash-*
// variants). Both number the same keys identically, so the variant never
// shows in a result.

// Unique implements AB.unique: it removes duplicate BUNs, keeping first
// occurrences, so order properties of the operand are preserved.
func Unique(ctx *Ctx, b *bat.BAT) *bat.BAT {
	p := ctx.pager()
	b.H.TouchAll(p)
	b.T.TouchAll(p)
	n := b.Len()
	if d := bat.NewDenseGrouper(n, b.H, b.T); d != nil {
		ctx.chose("dense-unique")
		denseScan(d, n, nil)
		return gatherPositions(ctx, b.Name+".uniq", b, d.Rows())
	}
	return hashUnique(ctx, b)
}

// hashUnique dedupes b's composite (head, tail) key reps through the
// grouper.
func hashUnique(ctx *Ctx, b *bat.BAT) *bat.BAT {
	ctx.chose("hash-unique")
	n := b.Len()
	k := workersFor(ctx, n)
	hr := bat.NewKeyRepP(b.H, k)
	tr := bat.NewKeyRepP(b.T, k)
	eq := &bat.KeysEq{hr, tr} // Mix keys always need verifying
	if k > 1 {
		// Partitioned dedup: the first-occurrence rows of the partitioned
		// grouping (ascending by construction) are exactly the BUNs a
		// sequential scan keeps.
		first := bat.BuildGroupFirstRowsPartitionedSched(mixedReps(ctx, hr, tr, n), eq, ctx.sched(n))
		return gatherPositions(ctx, b.Name+".uniq", b, first)
	}
	g := bat.NewGrouper(eq)
	for i := 0; i < n; i++ {
		g.Slot(bat.Mix(hr.Rep[i], tr.Rep[i]), int32(i))
	}
	// The first-occurrence rows, ascending: exactly the BUNs to keep.
	return gatherPositions(ctx, b.Name+".uniq", b, g.Rows())
}

// denseScan resolves rows [0, n) to d's slots a block at a time, writing
// them to out as group oids when out is non-nil.
func denseScan(d *bat.DenseGrouper, n int, out []bat.OID) {
	forBlocks(n, func(lo int, buf []int32) {
		d.Slots(lo, buf)
		if out != nil {
			for i, s := range buf {
				out[lo+i] = bat.OID(s)
			}
		}
	})
}

// mixedReps materializes the composite key reps Mix(a[i], b[i]) in
// parallel; partitioned groupings need the vector up front for the radix
// scatter.
func mixedReps(ctx *Ctx, a, b *bat.KeyRep, n int) []uint64 {
	mixed := make([]uint64, n)
	parallelFill(ctx, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			mixed[i] = bat.Mix(a.Rep[i], b.Rep[i])
		}
	})
	return mixed
}

// GroupUnary implements AB.group: {a·o_b | ab ∈ AB ∧ o_b = unique_oid(b)} —
// a fresh oid is handed out for each distinct tail value (Fig. 4). The
// result has the same head (at the same positions) as the operand and is
// positionally synced with it; its tail identifies the group of each BUN.
// This is the primitive behind SQL GROUP BY and MOA nest (Section 4.2,
// "grouping"). Group oids are identical to the boxed implementation's.
func GroupUnary(ctx *Ctx, b *bat.BAT) *bat.BAT {
	b.T.TouchAll(ctx.pager())
	out := make([]bat.OID, b.Len())
	if !denseGroup(ctx, out, b.T) {
		hashGroup(ctx, out, b.T)
	}
	return groupResult(b, out)
}

// groupResult is the grouping of b: b's head, positionally synced with the
// group oids out.
func groupResult(b *bat.BAT, out []bat.OID) *bat.BAT {
	return bat.Derive(bat.New(b.Name+".grp", b.H, bat.NewOIDCol(out), 0), bat.NewTail, b, nil)
}

// denseGroup writes the group oids of the composite key cols (outer key
// first) over rows [0, len(out)) to out by direct index, and reports false,
// writing nothing, when the key's span is not small.
func denseGroup(ctx *Ctx, out []bat.OID, cols ...bat.Column) bool {
	d := bat.NewDenseGrouper(len(out), cols...)
	if d == nil {
		return false
	}
	ctx.chose("dense-group")
	denseScan(d, len(out), out)
	return true
}

// hashGroup writes the group oids of column t to out through the grouper.
func hashGroup(ctx *Ctx, out []bat.OID, t bat.Column) {
	ctx.chose("hash-group")
	n := len(out)
	k := workersFor(ctx, n)
	tr := bat.NewKeyRepP(t, k)
	eq := tr.Verifier()
	if k > 1 {
		gs := bat.BuildGroupSlotsPartitionedSched(tr.Rep, eq, ctx.sched(n))
		slotsToOIDs(ctx, gs.Slots, out)
		return
	}
	g := bat.NewGrouper(eq)
	for i := 0; i < n; i++ {
		s, _ := g.Slot(tr.Rep[i], int32(i))
		out[i] = bat.OID(s)
	}
}

// slotsToOIDs widens group slots into the result oid vector in parallel.
func slotsToOIDs(ctx *Ctx, slots []int32, out []bat.OID) {
	parallelFill(ctx, len(slots), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = bat.OID(slots[i])
		}
	})
}

// GroupBinary implements AB.group(CD): it refines an existing grouping g
// with the values of b, handing out a fresh oid per distinct (group, value)
// combination. For groupings on multiple attributes the unary version is
// followed by binary group invocations until all attributes are processed
// (Section 4.2). g and b must be positionally synced (the rewriter
// guarantees this); if they are not known-synced, b's rows are aligned to
// g's heads (alignHeads), and the rows of g whose head b lacks form one more
// class per group. Synced (group, value) keys of small span pack into one
// direct index; wider ones and every un-synced pair go through the grouper.
func GroupBinary(ctx *Ctx, g, b *bat.BAT) *bat.BAT {
	p := ctx.pager()
	g.T.TouchAll(p)
	b.T.TouchAll(p)
	out := make([]bat.OID, g.Len())
	synced := bat.Synced(g, b)
	if !synced || !denseGroup(ctx, out, g.T, b.T) {
		hashGroup2(ctx, out, g, b, synced)
	}
	return groupResult(g, out)
}

// hashGroup2 writes the group oids of the (g tail, b tail) keys to out
// through the grouper.
func hashGroup2(ctx *Ctx, out []bat.OID, g, b *bat.BAT, synced bool) {
	ctx.chose("hash-group")
	n := len(out)
	k := workersFor(ctx, n)
	gr := bat.NewKeyRepP(g.T, k)
	br := bat.NewKeyRepP(b.T, k)
	if synced {
		eq := &bat.KeysEq{gr, br}
		if k > 1 {
			gs := bat.BuildGroupSlotsPartitionedSched(mixedReps(ctx, gr, br, n), eq, ctx.sched(n))
			slotsToOIDs(ctx, gs.Slots, out)
			return
		}
		gp := bat.NewGrouper(eq)
		for i := 0; i < n; i++ {
			s, _ := gp.Slot(bat.Mix(gr.Rep[i], br.Rep[i]), int32(i))
			out[i] = bat.OID(s)
		}
		return
	}
	eq := &alignedEq{g: gr, b: br, at: alignHeads(ctx, g, b)}
	gp := bat.NewGrouper(eq)
	for i := 0; i < n; i++ {
		var v uint64 // a missing value's rep; the verifier tells it apart
		if j := eq.at[i]; j >= 0 {
			v = br.Rep[j]
		}
		s, _ := gp.Slot(bat.Mix(gr.Rep[i], v), int32(i))
		out[i] = bat.OID(s)
	}
}

// alignedEq verifies un-synced GroupBinary keys (group, b's value at the
// aligned row at, -1 for none): rows without a value equal each other only.
type alignedEq struct {
	g, b *bat.KeyRep
	at   []int32
}

// KeyEqual implements bat.KeyEq.
func (e *alignedEq) KeyEqual(x, y int32) bool {
	if !e.g.KeyEqual(x, y) {
		return false
	}
	ax, ay := e.at[x], e.at[y]
	if ax < 0 || ay < 0 {
		return ax == ay
	}
	return e.b.KeyEqual(ax, ay)
}
