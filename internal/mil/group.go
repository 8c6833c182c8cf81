package mil

import (
	"repro/internal/bat"
)

// The grouping operators hand out slots in first-occurrence order through
// one of two kernels (groupRows). Exact keys of small span (group ids,
// characters, flags, narrow integers and dates) take slots by direct index
// (bat.DenseGrouper: the dense-* variants, sequential at any worker count);
// every other key — wide, float, string or un-synced — hashes through the
// bucket+link grouper (the hash-* variants). Both are sequential: no
// grouping of the Figure-9 queries reaches bat.ParallelMinRows rows. Both number the same keys identically, so the variant never
// shows in a result. A group's id column carries the grouping's by-products
// (bat.Grouping), which Aggr's id-aggr, Unique's extent-unique and
// Semijoin's alias-semijoin read instead of grouping again.

// Unique implements AB.unique: it removes duplicate BUNs, keeping first
// occurrences, so order properties of the operand are preserved.
func Unique(ctx *Ctx, b *bat.BAT) *bat.BAT {
	if g := bat.GroupingOf(b.H); g != nil && g.Determines(b.T) {
		// Every row of an id holds one tail: the id's first row is the BUN's.
		ctx.chose("extent-unique")
		return gatherPositions(ctx, b.Name+".uniq", b, g.Extents())
	}
	p := ctx.pager()
	b.H.TouchAll(p)
	b.T.TouchAll(p)
	// The BUNs to keep are the first rows of the (head, tail) groups.
	return gatherPositions(ctx, b.Name+".uniq", b, groupRows(ctx, "unique", nil, b.H, b.T))
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
	return groupResult(b, bat.NewGroupIDs(out, groupRows(ctx, "group", out, b.T), b.T))
}

// groupResult is the grouping of b: b's head, positionally synced with the
// group ids.
func groupResult(b *bat.BAT, ids *bat.OIDCol) *bat.BAT {
	return bat.Derive(bat.New(b.Name+".grp", b.H, ids, 0), bat.NewTail, b, nil)
}

// groupRows groups the rows of the composite key cols (one column, or two
// synced ones, outer key first) and returns the first row of every group,
// writing each row's group oid to out unless out is nil: by direct index
// when the key's span is small (variant dense-op), else through the grouper
// (hash-op).
func groupRows(ctx *Ctx, op string, out []bat.OID, cols ...bat.Column) []int32 {
	n := cols[0].Len()
	d := bat.NewDenseGrouper(n, cols...)
	if d == nil {
		return hashRows(ctx, op, out, cols...)
	}
	ctx.chose("dense-" + op)
	forBlocks(n, func(lo int, buf []int32) {
		d.Slots(lo, buf)
		if out != nil {
			for i, s := range buf {
				out[lo+i] = bat.OID(s)
			}
		}
	})
	return d.Rows()
}

// hashRows is groupRows through the grouper, whatever the key's span.
func hashRows(ctx *Ctx, op string, out []bat.OID, cols ...bat.Column) []int32 {
	ctx.chose("hash-" + op)
	n := cols[0].Len()
	sched := ctx.sched(n)
	reps := make(bat.KeysEq, len(cols))
	for i, c := range cols {
		reps[i] = bat.NewKeyRepP(c, sched)
	}
	eq := reps[0].Verifier()
	if len(cols) == 2 {
		eq = &reps // Mix keys always need verifying
	}
	g := bat.NewGrouper(eq)
	r0, r1 := reps[0].Rep, reps[len(cols)-1].Rep
	for i := 0; i < n; i++ {
		r := r0[i]
		if len(cols) == 2 {
			r = bat.Mix(r, r1[i])
		}
		if s, _ := g.Slot(r, int32(i)); out != nil {
			out[i] = bat.OID(s)
		}
	}
	return g.Rows()
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
	if !bat.Synced(g, b) {
		// b's tail is not aligned with the rows: only g's ids key them.
		return groupResult(g, bat.NewGroupIDs(out, alignedGroup(ctx, out, g, b), g.T))
	}
	return groupResult(g, bat.NewGroupIDs(out, groupRows(ctx, "group", out, g.T, b.T), g.T, b.T))
}

// alignedGroup writes the group oids of the keys (g tail, b's tail at the row
// with g's head) to out through the grouper and returns the first row of
// every group.
func alignedGroup(ctx *Ctx, out []bat.OID, g, b *bat.BAT) []int32 {
	ctx.chose("hash-group")
	s := ctx.sched(len(out))
	gr, br := bat.NewKeyRepP(g.T, s), bat.NewKeyRepP(b.T, s)
	eq := &alignedEq{g: gr, b: br, at: alignHeads(ctx, g, b)}
	gp := bat.NewGrouper(eq)
	for i := range out {
		var v uint64 // a missing value's rep; the verifier tells it apart
		if j := eq.at[i]; j >= 0 {
			v = br.Rep[j]
		}
		s, _ := gp.Slot(bat.Mix(gr.Rep[i], v), int32(i))
		out[i] = bat.OID(s)
	}
	return gp.Rows()
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
