package mil

import (
	"fmt"

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
// otherwise) and typed accumulator arrays replace per-group boxed
// accumulators. Over large unordered inputs the grouping runs
// radix-partitioned: rows are split by key hash, per-partition groupers run
// concurrently, and accumulation proceeds partition-parallel over disjoint
// slot sets. Because a group never spans partitions, every accumulator —
// including order-sensitive floating-point sums — combines its rows in
// ascending row order, so parallel results are bit-identical to sequential
// execution for all aggregate functions.
func Aggr(ctx *Ctx, fn string, b *bat.BAT) *bat.BAT {
	p := ctx.pager()
	b.H.TouchAll(p)
	b.T.TouchAll(p)
	n := b.Len()
	k := workersFor(ctx, n)
	if n == 0 {
		return aggrBoxed(ctx, fn, b)
	}
	hr := bat.NewKeyRepP(b.H, k)
	eq := hr.Verifier()
	if b.Props.Has(bat.HOrdered) {
		ctx.chose("ordered-aggr")
		part := aggrScanOrdered(b, hr, n)
		return aggrAssembleTyped(fn, b, part.first, part)
	}
	ctx.chose("hash-aggr")
	if k > 1 {
		gs := bat.BuildGroupSlotsPartitionedSched(hr.Rep, eq, ctx.sched(n))
		part := aggrScanPartitioned(b, gs, ctx.sched(n))
		return aggrAssembleTyped(fn, b, gs.First, part)
	}
	part := aggrScanHash(b, hr, eq, 0, n)
	return aggrAssembleTyped(fn, b, part.g.Rows(), part)
}

// aggPart holds per-slot accumulators for one scan range. Exactly one of
// the typed array sets (or boxed) is populated, matching the tail kind.
type aggPart struct {
	g     *bat.Grouper // hash path; nil for the ordered path
	first []int32      // ordered path: first row per slot

	count      []int64
	sumI       []int64
	sumF       []float64
	minI, maxI []int64
	minF, maxF []float64
	boxed      []aggAcc
}

// aggrScanPartitioned accumulates all rows against pre-assigned group slots,
// dispatching the partitions of gs to the schedule's workers (morsel-claimed
// by default — a skew-heavy partition stops one worker, not its stripe).
// Partitions own disjoint slot sets, so the workers write disjoint
// accumulator entries; within a partition rows ascend, so per-group
// accumulation order equals the sequential scan's.
func aggrScanPartitioned(b *bat.BAT, gs *bat.GroupSlots, s bat.Sched) *aggPart {
	G := len(gs.First)
	a := &aggPart{first: gs.First}
	switch b.T.(type) {
	case *bat.IntCol:
		a.count = make([]int64, G)
		a.sumI = make([]int64, G)
		a.sumF = make([]float64, G)
		a.minI = make([]int64, G)
		a.maxI = make([]int64, G)
	case *bat.FltCol:
		a.count = make([]int64, G)
		a.sumF = make([]float64, G)
		a.minF = make([]float64, G)
		a.maxF = make([]float64, G)
	case *bat.DateCol:
		a.count = make([]int64, G)
		a.minI = make([]int64, G)
		a.maxI = make([]int64, G)
	default:
		a.boxed = make([]aggAcc, G)
	}
	parts := gs.PartRows
	s.Dispatch(len(parts), func(_, pi int) {
		a.accumulateRows(b, parts[pi], gs.Slots, gs.First)
	})
	return a
}

// accumulateRows folds the given rows into pre-sized accumulator arrays; a
// row is its group's first when it equals the slot's first-occurrence row.
func (a *aggPart) accumulateRows(b *bat.BAT, rows []int32, slots, first []int32) {
	switch t := b.T.(type) {
	case *bat.IntCol:
		for _, r := range rows {
			s := slots[r]
			v := t.V[r]
			if first[s] == r {
				a.minI[s], a.maxI[s] = v, v
			}
			a.count[s]++
			a.sumI[s] += v
			a.sumF[s] += float64(v)
			if v < a.minI[s] {
				a.minI[s] = v
			}
			if v > a.maxI[s] {
				a.maxI[s] = v
			}
		}
	case *bat.FltCol:
		for _, r := range rows {
			s := slots[r]
			v := t.V[r]
			if first[s] == r {
				a.minF[s], a.maxF[s] = v, v
			}
			a.count[s]++
			a.sumF[s] += v
			if v < a.minF[s] {
				a.minF[s] = v
			}
			if v > a.maxF[s] {
				a.maxF[s] = v
			}
		}
	case *bat.DateCol:
		for _, r := range rows {
			s := slots[r]
			v := int64(t.V[r])
			if first[s] == r {
				a.minI[s], a.maxI[s] = v, v
			}
			a.count[s]++
			if v < a.minI[s] {
				a.minI[s] = v
			}
			if v > a.maxI[s] {
				a.maxI[s] = v
			}
		}
	default:
		for _, r := range rows {
			a.boxed[slots[r]].add(b.T.Get(int(r)))
		}
	}
}

// aggrScanHash accumulates rows [lo,hi) with grouper slot assignment.
func aggrScanHash(b *bat.BAT, hr bat.KeyRep, eq bat.KeyEq, lo, hi int) *aggPart {
	g := bat.NewGrouper(hi - lo)
	a := &aggPart{g: g}
	a.scan(b, lo, hi, func(i int) (int32, bool) {
		return g.Slot(hr.Rep[i], int32(i), eq)
	})
	return a
}

// aggrScanOrdered accumulates all rows with run-detection slot assignment:
// an ordered head clusters each group contiguously.
func aggrScanOrdered(b *bat.BAT, hr bat.KeyRep, n int) *aggPart {
	a := &aggPart{}
	slot := int32(-1)
	a.scan(b, 0, n, func(i int) (int32, bool) {
		if i == 0 || !(hr.Exact && hr.Rep[i-1] == hr.Rep[i] || !hr.Exact && hr.KeyEqual(int32(i-1), int32(i))) {
			slot++
			a.first = append(a.first, int32(i))
			return slot, true
		}
		return slot, false
	})
	return a
}

// scan runs the typed accumulation loop for the part's tail kind.
func (a *aggPart) scan(b *bat.BAT, lo, hi int, slot func(i int) (int32, bool)) {
	switch t := b.T.(type) {
	case *bat.IntCol:
		for i := lo; i < hi; i++ {
			s, fresh := slot(i)
			v := t.V[i]
			if fresh {
				a.count = append(a.count, 0)
				a.sumI = append(a.sumI, 0)
				a.sumF = append(a.sumF, 0)
				a.minI = append(a.minI, v)
				a.maxI = append(a.maxI, v)
			}
			a.count[s]++
			a.sumI[s] += v
			a.sumF[s] += float64(v)
			if v < a.minI[s] {
				a.minI[s] = v
			}
			if v > a.maxI[s] {
				a.maxI[s] = v
			}
		}
	case *bat.FltCol:
		for i := lo; i < hi; i++ {
			s, fresh := slot(i)
			v := t.V[i]
			if fresh {
				a.count = append(a.count, 0)
				a.sumF = append(a.sumF, 0)
				a.minF = append(a.minF, v)
				a.maxF = append(a.maxF, v)
			}
			a.count[s]++
			a.sumF[s] += v
			if v < a.minF[s] {
				a.minF[s] = v
			}
			if v > a.maxF[s] {
				a.maxF[s] = v
			}
		}
	case *bat.DateCol:
		for i := lo; i < hi; i++ {
			s, fresh := slot(i)
			v := int64(t.V[i])
			if fresh {
				a.count = append(a.count, 0)
				a.minI = append(a.minI, v)
				a.maxI = append(a.maxI, v)
			}
			a.count[s]++
			if v < a.minI[s] {
				a.minI[s] = v
			}
			if v > a.maxI[s] {
				a.maxI[s] = v
			}
		}
	default:
		for i := lo; i < hi; i++ {
			s, fresh := slot(i)
			if fresh {
				a.boxed = append(a.boxed, aggAcc{})
			}
			a.boxed[s].add(b.T.Get(i))
		}
	}
}

// aggrAssembleTyped builds the result BAT from accumulated slots: the head
// gathers the first-occurrence rows, the tail is constructed directly as a
// typed column.
func aggrAssembleTyped(fn string, b *bat.BAT, first []int32, a *aggPart) *bat.BAT {
	G := len(first)
	var head bat.Column
	if v, ok := b.H.(*bat.VoidCol); ok {
		// a void head is dense and key: every row is its own group, and the
		// result head is the same dense sequence.
		head = bat.NewVoid(v.Seq, G)
	} else {
		head = bat.Gather32(b.H, first)
	}

	out := bat.New("{"+fn+"}", head, a.assembleTail(fn, b.T.Kind(), G), bat.HKey)
	if b.Props.Has(bat.HOrdered) {
		out.Props |= bat.HOrdered
	}
	return out
}

// assembleTail builds the result tail column from accumulated slots; tailKind
// is the kind of the aggregated (tail) column. Shared by the materializing
// assembly and the pipeline's aggregate terminal.
func (a *aggPart) assembleTail(fn string, tailKind bat.Kind, G int) bat.Column {
	if a.boxed != nil {
		kind := aggResultKind(fn, tailKind)
		vals := make([]bat.Value, G)
		for i := range vals {
			vals[i] = a.boxed[i].result(fn, tailKind)
		}
		return bat.FromValues(kind, vals)
	}
	switch fn {
	case "count":
		return bat.NewIntCol(a.count)
	case "sum":
		if tailKind == bat.KInt {
			return bat.NewIntCol(a.sumI)
		}
		return bat.NewFltCol(a.sumFOrZero(G))
	case "avg":
		sum := a.sumFOrZero(G)
		vals := make([]float64, G)
		for i := range vals {
			vals[i] = sum[i] / float64(a.count[i])
		}
		return bat.NewFltCol(vals)
	case "min", "max":
		return a.minmaxCol(fn, tailKind)
	}
	panic(fmt.Sprintf("mil: unknown aggregate %q", fn))
}

// scanRows is scan over explicit row lists: row k of the stream reads tail
// value t[trows[k]] and resolves its group through slot(hrows[k]). The
// accumulation bodies are the same as scan's, so a streamed scan over
// (hrows, trows) folds bit-identically to a materialized scan over the
// gathered intermediate.
func (a *aggPart) scanRows(t bat.Column, hrows, trows []int32, slot func(hr int32) (int32, bool)) {
	switch tc := t.(type) {
	case *bat.IntCol:
		for k := range hrows {
			s, fresh := slot(hrows[k])
			v := tc.V[trows[k]]
			if fresh {
				a.count = append(a.count, 0)
				a.sumI = append(a.sumI, 0)
				a.sumF = append(a.sumF, 0)
				a.minI = append(a.minI, v)
				a.maxI = append(a.maxI, v)
			}
			a.count[s]++
			a.sumI[s] += v
			a.sumF[s] += float64(v)
			if v < a.minI[s] {
				a.minI[s] = v
			}
			if v > a.maxI[s] {
				a.maxI[s] = v
			}
		}
	case *bat.FltCol:
		for k := range hrows {
			s, fresh := slot(hrows[k])
			v := tc.V[trows[k]]
			if fresh {
				a.count = append(a.count, 0)
				a.sumF = append(a.sumF, 0)
				a.minF = append(a.minF, v)
				a.maxF = append(a.maxF, v)
			}
			a.count[s]++
			a.sumF[s] += v
			if v < a.minF[s] {
				a.minF[s] = v
			}
			if v > a.maxF[s] {
				a.maxF[s] = v
			}
		}
	case *bat.DateCol:
		for k := range hrows {
			s, fresh := slot(hrows[k])
			v := int64(tc.V[trows[k]])
			if fresh {
				a.count = append(a.count, 0)
				a.minI = append(a.minI, v)
				a.maxI = append(a.maxI, v)
			}
			a.count[s]++
			if v < a.minI[s] {
				a.minI[s] = v
			}
			if v > a.maxI[s] {
				a.maxI[s] = v
			}
		}
	default:
		for k := range hrows {
			s, fresh := slot(hrows[k])
			if fresh {
				a.boxed = append(a.boxed, aggAcc{})
			}
			a.boxed[s].add(t.Get(int(trows[k])))
		}
	}
}

// sumFOrZero returns the float sums, or zeros for kinds that accumulate
// none (dates), matching the boxed accumulator's behavior.
func (a *aggPart) sumFOrZero(G int) []float64 {
	if a.sumF != nil {
		return a.sumF
	}
	return make([]float64, G)
}

func (a *aggPart) minmaxCol(fn string, kind bat.Kind) bat.Column {
	sel64 := a.minI
	selF := a.minF
	if fn == "max" {
		sel64, selF = a.maxI, a.maxF
	}
	switch kind {
	case bat.KInt:
		return bat.NewIntCol(sel64)
	case bat.KFlt:
		return bat.NewFltCol(selF)
	case bat.KDate:
		days := make([]int32, len(sel64))
		for i, v := range sel64 {
			days[i] = int32(v)
		}
		return bat.NewDateCol(days)
	}
	panic("mil: typed min/max over kind " + kind.String())
}

// aggrBoxed is the boxed reference implementation (it also serves empty
// inputs).
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
	ctx.chose("ordered-aggr")
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

// AggrScalar aggregates all tail values of b into a single-BUN BAT
// [oid(0), g(tails)] — the translation of a top-level MOA aggregate like
// TPC-D Q6's sum(...) over a whole set.
func AggrScalar(ctx *Ctx, fn string, b *bat.BAT) *bat.BAT {
	ctx.chose("scalar-aggr")
	p := ctx.pager()
	b.T.TouchAll(p)
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

// ScalarOf extracts the single value of a one-BUN BAT produced by
// AggrScalar; it is how scalar subquery results are broadcast back into
// multiplexed expressions (TPC-D Q11, Q15).
func ScalarOf(b *bat.BAT) bat.Value {
	if b.Len() == 0 {
		return bat.Value{}
	}
	return b.T.Get(0)
}
