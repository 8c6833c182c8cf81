package mil

import (
	"fmt"
	"slices"

	"repro/internal/bat"
)

// aggAcc accumulates one group for one aggregate function (boxed path).
type aggAcc struct {
	count int64
	sumI  int64
	sumF  float64
	min   bat.Value
	max   bat.Value
	first bool
	kind  bat.Kind
}

func (a *aggAcc) add(v bat.Value) {
	a.count++
	switch v.K {
	case bat.KInt:
		a.sumI += v.I
		a.sumF += float64(v.I)
	case bat.KFlt:
		a.sumF += v.F
	}
	if !a.first {
		a.min, a.max, a.first, a.kind = v, v, true, v.K
		return
	}
	if bat.Less(v, a.min) {
		a.min = v
	}
	if bat.Less(a.max, v) {
		a.max = v
	}
}

func (a *aggAcc) result(fn string, kind bat.Kind) bat.Value {
	switch fn {
	case "count":
		return bat.I(a.count)
	case "sum":
		if kind == bat.KInt {
			return bat.I(a.sumI)
		}
		return bat.F(a.sumF)
	case "avg":
		if a.count == 0 {
			return bat.F(0)
		}
		return bat.F(a.sumF / float64(a.count))
	case "min":
		return a.min
	case "max":
		return a.max
	}
	panic(fmt.Sprintf("mil: unknown aggregate %q", fn))
}

// aggResultKind reports the tail kind an aggregate produces over inputs of
// kind in.
func aggResultKind(fn string, in bat.Kind) bat.Kind {
	switch fn {
	case "count":
		return bat.KInt
	case "avg":
		return bat.KFlt
	case "sum":
		if in == bat.KInt {
			return bat.KInt
		}
		return bat.KFlt
	default:
		return in
	}
}

// Aggr implements the set-aggregate constructor {g}(AB): it groups over the
// head of the BAT and calculates for each formed set of tail values an
// aggregate result (Fig. 4) — "we can execute nested aggregates in one go,
// rather than having to do iterative calls on nested collections"
// (Section 4.2). Supported: sum, count, avg, min, max.
//
// The result holds one BUN per distinct head, in first-occurrence order, so
// an ordered operand head yields an ordered (and always key) result head.
//
// Execution is slot-based: each row's head resolves to a dense group slot
// and a block of rows with their slots at a time folds into typed per-slot
// accumulator arrays (slotFold). A grouping's id column is its own slots
// (id-aggr; {count} is the grouping's histogram). Otherwise the slots come
// by direct index when the head is an exact key of small span (characters,
// narrow integers: bat.DenseGrouper, the dense-aggr variant), else from the
// bucket+link grouper (hash-aggr), ordered head or not. Every variant
// numbers slots by first occurrence and folds sequentially, so every
// accumulator — including order-sensitive floating-point sums — combines
// its rows in ascending row order, and the result is the same at any worker
// count for all aggregate functions.
func Aggr(ctx *Ctx, fn string, b *bat.BAT) *bat.BAT {
	g := bat.GroupingOf(b.H)
	if g != nil && fn == "count" { // no row is read
		ctx.chose("id-aggr")
		return aggrResult(fn, b, bat.NewIntCol(slices.Clone(g.Counts())), g.Extents())
	}
	p := ctx.pager()
	b.H.TouchAll(p)
	b.T.TouchAll(p)
	n := b.Len()
	f := newSlotFold(b.T, fn)
	var first []int32
	if g != nil {
		ctx.chose("id-aggr")
		f.grow(g.Len())
		f.fold(0, g.Slots())
		first = g.Extents()
	} else if d := bat.NewDenseGrouper(n, b.H); d != nil {
		ctx.chose("dense-aggr")
		foldRange(f, n, d.Slots)
		first = d.Rows()
	} else {
		first = hashAggr(ctx, f, b.H)
	}
	return aggrResult(fn, b, f.tail(len(first)), first)
}

// aggrResult assembles the aggregate of b: the head of each group's first
// row, beside the group's result tail.
func aggrResult(fn string, b *bat.BAT, tail bat.Column, first []int32) *bat.BAT {
	var head bat.Column
	if v, ok := b.H.(*bat.VoidCol); ok {
		// a void head is dense and key: every row is its own group, and the
		// result head is the same dense sequence.
		head = bat.NewVoid(v.Seq, len(first))
	} else {
		head = bat.Gather(b.H, first)
	}
	return bat.Derive(bat.New("{"+fn+"}", head, tail, 0), bat.Groups, b, nil)
}

// hashAggr folds every row of the head h into f by the head's grouper
// slot, and returns the first row of every slot.
func hashAggr(ctx *Ctx, f slotFold, h bat.Column) []int32 {
	ctx.chose("hash-aggr")
	n := h.Len()
	hr := bat.NewKeyRepP(h, ctx.sched(n))
	g := bat.NewGrouper(hr.Verifier())
	foldRange(f, n, grouperSlots(g, func(i int32) uint64 { return hr.Rep[i] }))
	return g.Rows()
}

// slotFold is the grouped-accumulation kernel of one aggregate function over
// one tail column: per-slot accumulators of what the function needs, typed
// for the ordered fixed-width tails (typedFold), boxed for the str, bit and
// void tails (boxedFold).
// Aggr's id, dense and hash scans and — with a single slot — the
// scalar aggregates all fold through it, in ascending row order per slot.
type slotFold interface {
	// grow extends the accumulators to G slots.
	grow(G int)
	// fold accumulates tail row lo+k into slot slots[k], for every k in
	// order. The slots must have been grown.
	fold(lo int, slots []int32)
	// tail builds the G-row result column of the aggregate.
	tail(G int) bat.Column
}

func newSlotFold(tail bat.Column, fn string) slotFold {
	switch t := tail.(type) {
	case *bat.IntCol:
		return newTypedFold(t.V, fn)
	case *bat.FltCol:
		return newTypedFold(t.V, fn)
	case *bat.DateCol:
		return newTypedFold(t.V, fn)
	case *bat.OIDCol:
		return newTypedFold(t.V, fn)
	case *bat.ChrCol:
		return newTypedFold(t.V, fn)
	}
	return &boxedFold{fn: fn, col: tail}
}

// A slotter resolves the head rows [lo, lo+len(slots)) to group slots and
// reports how many slots it has handed out so far (slot ids are dense, so
// that bounds them). bat.DenseGrouper.Slots is one.
type slotter func(lo int, slots []int32) int

// grouperSlots is the slotter of the bucket+link grouper g over the per-row
// key reps rep.
func grouperSlots(g *bat.Grouper, rep func(row int32) uint64) slotter {
	return func(lo int, slots []int32) int {
		for k := range slots {
			r := int32(lo + k)
			slots[k], _ = g.Slot(rep(r), r)
		}
		return g.Len()
	}
}

// foldBlock is the accumulation batch of the materializing scans: slots
// resolve for a block of rows, then the block folds in one typed loop.
const foldBlock = 1024

// forBlocks calls fn on rows [0, n), foldBlock rows at a time, with scratch
// for as many slots. Every scan that resolves slots runs on it.
func forBlocks(n int, fn func(lo int, buf []int32)) {
	buf := make([]int32, min(n, foldBlock))
	for lo := 0; lo < n; lo += foldBlock {
		fn(lo, buf[:min(n-lo, foldBlock)])
	}
}

// foldRange folds rows [0, n) of a BAT (head and tail row alike) into f, a
// block at a time: slots resolves each block's head rows — f grows as it
// hands out new ones — or, when nil (a scalar aggregate: one slot, grown up
// front), every row folds into slot 0.
func foldRange(f slotFold, n int, slots slotter) {
	forBlocks(n, func(lo int, buf []int32) {
		if slots != nil {
			f.grow(slots(lo, buf))
		}
		f.fold(lo, buf)
	})
}

// typedFold accumulates a fixed-width tail unboxed, keeping only what its
// function needs: count the counts; sum an exact int64 sum over integer
// tails, a float sum over float tails; avg the float sum and the counts; min
// and max the extreme and the counts (a slot's first row sets the extreme).
// Date, oid and chr tails keep no sums: sum and avg over them are zero, as
// the boxed accumulator has it. An array the fold does not keep is nil; one
// it keeps is non-nil from construction on.
type typedFold[E bat.Ordered] struct {
	fn    string
	col   []E
	n     int // slots grown
	count []int64
	sumI  []int64
	sumF  []float64
	ext   []E // min or max
}

// newTypedFold returns the fold of fn over col.
func newTypedFold[E bat.Ordered](col []E, fn string) *typedFold[E] {
	a := &typedFold[E]{fn: fn, col: col}
	_, isInt := any(col).([]int64)
	_, isFlt := any(col).([]float64)
	sums := isInt || isFlt
	switch fn {
	case "count":
		a.count = []int64{}
	case "sum":
		switch {
		case sums && isInt:
			a.sumI = []int64{}
		case sums:
			a.sumF = []float64{}
		}
	case "avg":
		a.count = []int64{}
		if sums {
			a.sumF = []float64{}
		}
	case "min", "max":
		a.count, a.ext = []int64{}, []E{}
	default:
		panic(fmt.Sprintf("mil: unknown aggregate %q", fn))
	}
	return a
}

func (a *typedFold[E]) grow(G int) {
	if G <= a.n {
		return
	}
	a.n = G
	if a.count != nil {
		a.count = growTo(a.count, G)
	}
	if a.sumI != nil {
		a.sumI = growTo(a.sumI, G)
	}
	if a.sumF != nil {
		a.sumF = growTo(a.sumF, G)
	}
	if a.ext != nil {
		a.ext = growTo(a.ext, G)
	}
}

// growTo extends s with zeros to length n >= len(s), amortized like append
// (the spare capacity is never written before it is exposed, so it is still
// the zeros it was allocated as).
func growTo[T any](s []T, n int) []T {
	return slices.Grow(s, n-len(s))[:n]
}

// fold runs one loop per kind of accumulator, each updating only the arrays
// its function keeps. Slice headers live in locals: through a, every store
// would force a reload.
func (a *typedFold[E]) fold(lo int, slots []int32) {
	col := a.col[lo : lo+len(slots)] // the window: batch row k is col[k]
	count, sumI, sumF, ext := a.count, a.sumI, a.sumF, a.ext
	switch {
	case sumI != nil:
		for k, s := range slots {
			sumI[s] += int64(col[k])
		}
	case sumF != nil: // sum, or avg with its counts
		for k, s := range slots {
			sumF[s] += float64(col[k])
			if count != nil {
				count[s]++
			}
		}
	case ext != nil: // min or max; a slot's first row sets the extreme
		isMin := a.fn == "min"
		for k, s := range slots {
			if v := col[k]; count[s] == 0 || isMin && v < ext[s] || !isMin && v > ext[s] {
				ext[s] = v
			}
			count[s]++
		}
	case count != nil: // count, or avg over a tail without sums
		for _, s := range slots {
			count[s]++
		}
	}
}

func (a *typedFold[E]) tail(G int) bat.Column {
	switch a.fn {
	case "count":
		return bat.NewIntCol(growTo(a.count, G))
	case "sum":
		if a.sumI != nil {
			return bat.NewIntCol(growTo(a.sumI, G))
		}
		return bat.NewFltCol(growTo(a.sumF, G))
	case "avg":
		sum, count := growTo(a.sumF, G), growTo(a.count, G)
		vals := make([]float64, G)
		for i := range vals {
			if count[i] > 0 { // only a scalar aggregate's slot can be empty
				vals[i] = sum[i] / float64(count[i])
			}
		}
		return bat.NewFltCol(vals)
	}
	return &bat.FixedCol[E]{V: growTo(a.ext, G)} // min, max
}

// boxedFold accumulates the remaining tail kinds through boxed values.
type boxedFold struct {
	fn   string
	col  bat.Column
	accs []aggAcc
}

func (a *boxedFold) grow(G int) {
	if G > len(a.accs) {
		a.accs = growTo(a.accs, G)
	}
}

func (a *boxedFold) fold(lo int, slots []int32) {
	for k, s := range slots {
		a.accs[s].add(a.col.Get(lo + k))
	}
}

func (a *boxedFold) tail(G int) bat.Column {
	kind := a.col.Kind()
	b := bat.NewBuilder(aggResultKind(a.fn, kind), G)
	for i := 0; i < G; i++ {
		b.Set(i, a.accs[i].result(a.fn, kind))
	}
	return b.Column()
}

// AggrScalar aggregates all tail values of b into a single-BUN BAT
// [oid(0), g(tails)] — the translation of a top-level MOA aggregate like
// TPC-D Q6's sum(...) over a whole set.
func AggrScalar(ctx *Ctx, fn string, b *bat.BAT) *bat.BAT {
	ctx.chose("scalar-aggr")
	b.T.TouchAll(ctx.pager())
	f := newScalarFold(b.T, fn)
	foldRange(f, b.Len(), nil)
	return scalarResult(fn, f)
}

// A scalar aggregate is the grouped fold with one slot (a nil slot resolver
// to foldRange). Over no rows the slot stays empty and every function yields
// the zero value of its result kind.
func newScalarFold(tail bat.Column, fn string) slotFold {
	f := newSlotFold(tail, fn)
	f.grow(1)
	return f
}

func scalarResult(fn string, f slotFold) *bat.BAT {
	return bat.Derive(bat.New("{"+fn+"}all", bat.NewOIDCol([]bat.OID{0}), f.tail(1), 0), bat.One, nil, nil)
}

// ScalarOf extracts the single value of a one-BUN BAT produced by
// AggrScalar; it is how scalar subquery results are broadcast back into
// multiplexed expressions (TPC-D Q11, Q15).
func ScalarOf(b *bat.BAT) bat.Value {
	if b.Len() == 0 {
		return bat.Value{}
	}
	return b.T.Get(0)
}
