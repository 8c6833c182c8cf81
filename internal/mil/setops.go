package mil

import (
	"slices"

	"repro/internal/bat"
)

// The MOA set operations work on sets of identified values, so the BAT-level
// set operations match elements on their identifier — the head column
// (Section 3.3: identifiers are unique within a value set).

// alignHeads is the one way rows are matched on head ids: for every row of
// first, the first row of other with an equal head (map-key equality), or
// -1. The index on other's head is private, other being an intermediate
// probed once. It touches nothing; callers account for what they read.
func alignHeads(ctx *Ctx, first, other *bat.BAT) []int32 {
	n := first.Len()
	at := make([]int32, n)
	for i := range at {
		at[i] = -1
	}
	idx := bat.BuildHashIndex(other.H, nil)
	pr, ok := idx.NewProbe(first.H)
	if !ok {
		return at // a head kind that cannot occur there matches nothing
	}
	// A row's matches ascend: written back to front, the first one stays.
	lp, rp := idx.JoinVec(pr, 0, n, make([]int32, 0, n), make([]int32, 0, n))
	for k := len(lp) - 1; k >= 0; k-- {
		at[lp[k]] = rp[k]
	}
	return at
}

// alignedRows returns the rows of an n-row first operand that every
// alignment in at (from alignHeads; nil entries skipped) matches, ascending,
// and compacts each alignment in place to those rows' matches.
func alignedRows(n int, at [][]int32) []int32 {
	rows := allRows(n)
	for _, a := range at {
		if a != nil {
			rows = slices.DeleteFunc(rows, func(r int32) bool { return a[r] < 0 })
		}
	}
	for j, a := range at {
		if a != nil {
			for k, r := range rows { // r ≥ k: each write lands on an entry already read
				a[k] = a[r]
			}
			at[j] = a[:len(rows)]
		}
	}
	return rows
}

// Union implements set union on identified value sets: all BUNs of a, plus
// the BUNs of b whose head does not occur in a. Duplicate heads within b
// itself are also collapsed (identifiers are unique within a set). The BUNs
// of b are numbered after a's: the grouper dedups the concatenated heads, and
// its first-occurrence rows are the BUNs to keep.
func Union(ctx *Ctx, a, b *bat.BAT) *bat.BAT {
	ctx.chose("hash-union")
	p := ctx.pager()
	a.H.TouchAll(p)
	a.T.TouchAll(p)
	b.H.TouchAll(p)
	b.T.TouchAll(p)
	head, tail := bat.Concat(a.H, b.H), bat.Concat(a.T, b.T)
	n := head.Len()
	hr := bat.NewKeyRepP(head, ctx.sched(n))
	g := bat.NewGrouper(hr.Verifier())
	for i, rep := range hr.Rep {
		g.Slot(rep, int32(i))
	}
	if rows := g.Rows(); len(rows) < n {
		// Unshared: a kept run would otherwise stay a view pinning the whole
		// concatenation.
		head = bat.UnshareColumn(bat.Gather(head, rows))
		tail = bat.UnshareColumn(bat.Gather(tail, rows))
	}
	return bat.Derive(bat.New(a.Name+".union", head, tail, 0), bat.Union, a, b)
}

// Diff implements set difference on identified value sets: the BUNs of a
// whose head does not occur in b. It is the anti-probe of the semijoin:
// the same bucket+link accelerator on b's head, keeping the misses.
func Diff(ctx *Ctx, a, b *bat.BAT) *bat.BAT {
	ctx.chose("hash-diff")
	p := ctx.pager()
	b.H.TouchAll(p)
	a.H.TouchAll(p)
	n := a.Len()
	idx := b.HeadHashSched(ctx.sched(b.Len()))
	pr, ok := idx.NewProbe(a.H)
	if !ok {
		// a's head kind cannot occur in b's head: every BUN survives.
		return gatherPositions(ctx, a.Name+".diff", a, allRows(n))
	}
	pos := morselLoop(ctx, n, func(lo, hi int) []int32 {
		return idx.FilterVec(pr, lo, hi, false, make([]int32, 0, scratchHint(n, lo, hi, n)))
	}, catPositions)
	return gatherPositions(ctx, a.Name+".diff", a, pos)
}

// Intersect implements set intersection on identified value sets; on the
// flattened representation it coincides with the semijoin (the "beneficial
// effect" of Section 4.3.2 applies to all nested set operations).
func Intersect(ctx *Ctx, a, b *bat.BAT) *bat.BAT {
	out := Semijoin(ctx, a, b)
	if ctx != nil {
		ctx.lastAlgo += " (intersect)"
	}
	return out
}

// SortTail reorders b on its tail values, ascending or descending. It backs
// MOA's sort[expr] operator (needed by the TPC-D top-N queries).
func SortTail(ctx *Ctx, b *bat.BAT, desc bool) *bat.BAT {
	ctx.chose("sort")
	p := ctx.pager()
	b.T.TouchAll(p)
	b.H.TouchAll(p)
	return bat.ReorderOnTail(b.Name+".sort", b, bat.SortedPerm(b.T, desc), desc)
}

// allRows returns the positions 0..n-1.
func allRows(n int) []int32 {
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	return rows
}
