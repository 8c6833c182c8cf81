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
// (contiguous runs when the head is ordered, the bucket+link grouper
// otherwise) and a block of rows with their slots at a time folds into typed
// per-slot accumulator arrays (slotFold). Over large unordered inputs the
// grouping runs radix-partitioned: rows are split by key hash, per-partition
// groupers run concurrently, and accumulation proceeds partition-parallel
// over disjoint slot sets. Because a group never spans partitions, every
// accumulator — including order-sensitive floating-point sums — combines
// its rows in ascending row order, so parallel results are bit-identical to
// sequential execution for all aggregate functions.
func Aggr(ctx *Ctx, fn string, b *bat.BAT) *bat.BAT {
	p := ctx.pager()
	b.H.TouchAll(p)
	b.T.TouchAll(p)
	n := b.Len()
	k := workersFor(ctx, n)
	hr := bat.NewKeyRepP(b.H, k)
	eq := hr.Verifier()
	f := newSlotFold(b.T)
	var first []int32
	switch {
	case b.Props.Has(bat.HOrdered):
		ctx.chose("ordered-aggr")
		// An ordered head clusters each group contiguously: a row opens a
		// new slot exactly when its key differs from its predecessor's.
		foldRange(f, n, func(i int32) int32 {
			if i == 0 || !(hr.Exact && hr.Rep[i-1] == hr.Rep[i] || !hr.Exact && hr.KeyEqual(i-1, i)) {
				first = append(first, i)
			}
			return int32(len(first) - 1)
		})
	case k > 1:
		ctx.chose("hash-aggr")
		sched := ctx.sched(n)
		gs := bat.BuildGroupSlotsPartitionedSched(hr.Rep, eq, sched)
		first = gs.First
		// Partitions own disjoint slot sets, so the workers write disjoint
		// accumulator entries; within a partition rows ascend, so per-group
		// accumulation order equals the sequential scan's.
		f.grow(len(first))
		sched.Dispatch(len(gs.PartRows), func(_, pi int) {
			foldRows(f, gs.PartRows[pi], func(r int32) int32 { return gs.Slots[r] })
		})
	default:
		ctx.chose("hash-aggr")
		g := bat.NewGrouper(eq)
		foldRange(f, n, func(i int32) int32 {
			s, _ := g.Slot(hr.Rep[i], i)
			return s
		})
		first = g.Rows()
	}
	var head bat.Column
	if v, ok := b.H.(*bat.VoidCol); ok {
		// a void head is dense and key: every row is its own group, and the
		// result head is the same dense sequence.
		head = bat.NewVoid(v.Seq, len(first))
	} else {
		head = bat.Gather(b.H, first)
	}
	return bat.Derive(bat.New("{"+fn+"}", head, f.tail(fn, len(first)), 0), bat.Groups, b, nil)
}

// slotFold is the grouped-accumulation kernel of one aggregate over one tail
// column: per-slot accumulators for every aggregate function at once, typed
// for the ordered fixed-width tails (typedFold), boxed for the str, bit and
// void tails (boxedFold).
// Aggr's ordered, hash and radix-partitioned scans, the pipeline's aggregate
// terminal and — with a single slot — the scalar aggregates all fold through
// it, in ascending row order per slot.
type slotFold interface {
	// grow extends the accumulators to G slots.
	grow(G int)
	// fold accumulates the k-th tail row of v into slot slots[k], for every
	// k, in v's order (a stream's position list travels as v.Sel and need not
	// ascend). The slots must have been grown; concurrent folds must touch
	// disjoint slots.
	fold(v bat.Vector, slots []int32)
	// tail builds the G-row result column of aggregate fn.
	tail(fn string, G int) bat.Column
}

func newSlotFold(tail bat.Column) slotFold {
	switch t := tail.(type) {
	case *bat.IntCol:
		return &typedFold[int64]{col: t.V, sumI: []int64{}, sumF: []float64{}}
	case *bat.FltCol:
		return &typedFold[float64]{col: t.V, sumF: []float64{}}
	case *bat.DateCol:
		return &typedFold[int32]{col: t.V}
	case *bat.OIDCol:
		return &typedFold[bat.OID]{col: t.V}
	case *bat.ChrCol:
		return &typedFold[byte]{col: t.V}
	}
	return &boxedFold{col: tail}
}

// foldBlock is the accumulation batch of the materializing scans: slots
// resolve for a block of rows, then the block folds in one typed loop.
const foldBlock = 1024

// foldVec folds one batch into f: the group of the k-th tail row of tv is
// slot(k-th head row of hv) — f grows as slot hands out new slots; slot ids
// are dense, so the highest seen bounds them — or slot 0 throughout when slot
// is nil (a scalar aggregate: one slot, grown up front). slots is scratch,
// at least as long as the batch and all zero when slot is nil.
func foldVec(f slotFold, hv, tv bat.Vector, slots []int32, slot func(row int32) int32) {
	slots = slots[:tv.Rows()]
	if slot != nil {
		top, k := int32(-1), 0
		for r := range hv.All() {
			slots[k] = slot(r)
			top = max(top, slots[k])
			k++
		}
		f.grow(int(top) + 1)
	}
	f.fold(tv, slots)
}

// foldRows folds the given ascending rows of a BAT (head and tail row
// alike) into f, a block at a time.
func foldRows(f slotFold, rows []int32, slot func(row int32) int32) {
	slots := make([]int32, min(len(rows), foldBlock))
	for len(rows) > 0 {
		v := bat.Vector{Sel: rows[:min(len(rows), foldBlock)]}
		foldVec(f, v, v, slots, slot)
		rows = rows[len(v.Sel):]
	}
}

// foldRange is foldRows over the identity selection [0, n): each block is a
// window with no position list, which the typed fold reads sequentially.
func foldRange(f slotFold, n int, slot func(row int32) int32) {
	slots := make([]int32, min(n, foldBlock))
	for lo := 0; lo < n; lo += foldBlock {
		v := bat.Vector{Lo: lo, Hi: min(n, lo+foldBlock)}
		foldVec(f, v, v, slots, slot)
	}
}

// typedFold accumulates a fixed-width tail unboxed. Integer tails keep an
// exact int64 sum beside the float sum avg divides; date, oid and chr tails
// keep no sums (sum and avg over them are zero, as the boxed accumulator has
// it). A sum the tail kind does not keep is a nil slice; one it keeps is
// non-nil from construction on.
type typedFold[E bat.Ordered] struct {
	col      []E
	count    []int64
	sumI     []int64
	sumF     []float64
	min, max []E
}

func (a *typedFold[E]) grow(G int) {
	if G <= len(a.count) {
		return
	}
	a.count = growTo(a.count, G)
	a.min, a.max = growTo(a.min, G), growTo(a.max, G)
	if a.sumF != nil {
		a.sumF = growTo(a.sumF, G)
	}
	if a.sumI != nil {
		a.sumI = growTo(a.sumI, G)
	}
}

// growTo extends s with zeros to length n >= len(s), amortized like append
// (the spare capacity is never written before it is exposed, so it is still
// the zeros it was allocated as).
func growTo[T any](s []T, n int) []T {
	return slices.Grow(s, n-len(s))[:n]
}

func (a *typedFold[E]) fold(rows bat.Vector, slots []int32) {
	// Slice headers in locals: through a, every store would force a reload.
	col, count, sumF, sumI, lo, hi := a.col, a.count, a.sumF, a.sumI, a.min, a.max
	sel := rows.Sel
	if sel == nil {
		col = col[rows.Lo:rows.Hi] // the identity selection: batch row k is col[k]
	}
	for k, s := range slots {
		r := k
		if sel != nil {
			r = int(sel[k])
		}
		v := col[r]
		if count[s] == 0 {
			lo[s], hi[s] = v, v
		}
		count[s]++
		if sumF != nil {
			sumF[s] += float64(v)
		}
		if sumI != nil {
			sumI[s] += int64(v)
		}
		if v < lo[s] {
			lo[s] = v
		}
		if v > hi[s] {
			hi[s] = v
		}
	}
}

func (a *typedFold[E]) tail(fn string, G int) bat.Column {
	switch fn {
	case "count":
		return bat.NewIntCol(a.count)
	case "sum":
		if a.sumI != nil {
			return bat.NewIntCol(a.sumI)
		}
		return bat.NewFltCol(growTo(a.sumF, G))
	case "avg":
		sum := growTo(a.sumF, G)
		vals := make([]float64, G)
		for i := range vals {
			if a.count[i] > 0 { // only a scalar aggregate's slot can be empty
				vals[i] = sum[i] / float64(a.count[i])
			}
		}
		return bat.NewFltCol(vals)
	case "min":
		return &bat.FixedCol[E]{V: a.min}
	case "max":
		return &bat.FixedCol[E]{V: a.max}
	}
	panic(fmt.Sprintf("mil: unknown aggregate %q", fn))
}

// boxedFold accumulates the remaining tail kinds through boxed values.
type boxedFold struct {
	col  bat.Column
	accs []aggAcc
}

func (a *boxedFold) grow(G int) {
	if G > len(a.accs) {
		a.accs = growTo(a.accs, G)
	}
}

func (a *boxedFold) fold(v bat.Vector, slots []int32) {
	k := 0
	for r := range v.All() {
		a.accs[slots[k]].add(a.col.Get(int(r)))
		k++
	}
}

func (a *boxedFold) tail(fn string, G int) bat.Column {
	kind := a.col.Kind()
	b := bat.NewBuilder(aggResultKind(fn, kind), G)
	for i := 0; i < G; i++ {
		b.Set(i, a.accs[i].result(fn, kind))
	}
	return b.Column()
}

// AggrScalar aggregates all tail values of b into a single-BUN BAT
// [oid(0), g(tails)] — the translation of a top-level MOA aggregate like
// TPC-D Q6's sum(...) over a whole set.
func AggrScalar(ctx *Ctx, fn string, b *bat.BAT) *bat.BAT {
	ctx.chose("scalar-aggr")
	b.T.TouchAll(ctx.pager())
	f := newScalarFold(b.T)
	foldRange(f, b.Len(), nil)
	return scalarResult(fn, f)
}

// A scalar aggregate is the grouped fold with one slot (a nil slot resolver
// to foldVec). Over no rows the slot stays empty and every function yields
// the zero value of its result kind.
func newScalarFold(tail bat.Column) slotFold {
	f := newSlotFold(tail)
	f.grow(1)
	return f
}

func scalarResult(fn string, f slotFold) *bat.BAT {
	return bat.Derive(bat.New("{"+fn+"}all", bat.NewOIDCol([]bat.OID{0}), f.tail(fn, 1), 0), bat.One, nil, nil)
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
