package mil

import (
	"sort"

	"repro/internal/bat"
)

// gatherPositions builds the result BAT of a filtering operation: the BUNs
// of b at the given ascending positions (int from the boxed paths, int32
// from the typed kernels). Filters preserve BUN order, so all order/key
// properties of the operand carry over to the result (Section 5.1: "a
// rangeselect will propagate the ordered information on both head and tail
// to the result"; semijoin propagates the key properties of its left
// operand).
func gatherPositions[I int | int32](ctx *Ctx, name string, b *bat.BAT, pos []I) *bat.BAT {
	// Positions forming a contiguous run (binary-search selections, slices,
	// 100%-selectivity filters) gather as zero-copy column views: no copies,
	// and the pager accounts one page span instead of one touch per row.
	if lo, ok := bat.PositionRun(pos); ok {
		return gatherRun(ctx, name, b, lo, len(pos))
	}
	if p := ctx.pager(); p != nil {
		p32 := positions32(pos)
		b.H.TouchPositions(p, p32)
		b.T.TouchPositions(p, p32)
	}
	out := bat.New(name, bat.GatherAny(b.H, pos), bat.GatherAny(b.T, pos), 0)
	out.Props |= b.Props & (bat.HOrdered | bat.TOrdered | bat.HKey | bat.TKey)
	// A filter that kept every BUN left the sequence untouched: the result
	// is positionally synced with its operand.
	if len(pos) == b.Len() {
		out.SyncWith(b)
	}
	return out
}

// positions32 narrows a position list to the width the pager batches take;
// the typed kernels' lists already have it.
func positions32[I int | int32](pos []I) []int32 {
	if p32, ok := any(pos).([]int32); ok {
		return p32
	}
	out := make([]int32, len(pos))
	for i, x := range pos {
		out[i] = int32(x)
	}
	return out
}

// gatherRun is gatherPositions for the contiguous run [lo, lo+n): the result
// BAT shares its operand's backing storage through column views. A
// contiguous slice additionally preserves density of dense columns.
func gatherRun(ctx *Ctx, name string, b *bat.BAT, lo, n int) *bat.BAT {
	if p := ctx.pager(); p != nil {
		b.H.TouchRange(p, lo, n)
		b.T.TouchRange(p, lo, n)
	}
	out := bat.New(name, bat.SliceView(b.H, lo, n), bat.SliceView(b.T, lo, n), 0)
	out.Props |= b.Props & (filterProps | bat.HDense | bat.TDense)
	if n == b.Len() {
		out.SyncWith(b)
	}
	return out
}

// filterProps is the property mask preserved by order-preserving filters.
const filterProps = bat.HOrdered | bat.TOrdered | bat.HKey | bat.TKey

// SelectRange implements AB.select(Tl,Th): {ab ∈ AB | Tl ≤ b ≤ Th}, with
// optional exclusive bounds. A nil lo or hi leaves that side unbounded. The
// dynamic optimizer uses binary search when the tail is ordered (the layout
// Section 5.2 prescribes for attribute BATs) and a scan otherwise.
func SelectRange(ctx *Ctx, b *bat.BAT, lo, hi *bat.Value, loIncl, hiIncl bool) *bat.BAT {
	if b.Props.Has(bat.TOrdered) {
		return selectBinSearch(ctx, b, lo, hi, loIncl, hiIncl)
	}
	return selectScan(ctx, b, lo, hi, loIncl, hiIncl)
}

// SelectEq implements AB.select(T): {ab ∈ AB | b = T}. It prefers binary
// search on ordered tails, then an existing hash accelerator, then a scan.
func SelectEq(ctx *Ctx, b *bat.BAT, v bat.Value) *bat.BAT {
	if b.Props.Has(bat.TOrdered) {
		return selectBinSearch(ctx, b, &v, &v, true, true)
	}
	if b.HasTailHash() {
		ctx.chose("hash-select")
		// Lookup yields positions in ascending order (bucket entries are
		// clustered ascending), so the hits gather directly — no widening
		// copy into []int and no re-sort.
		return gatherPositions(ctx, b.Name+".sel", b, b.TailHash().Lookup(v))
	}
	return selectScan(ctx, b, &v, &v, true, true)
}

func inRange(v bat.Value, lo, hi *bat.Value, loIncl, hiIncl bool) bool {
	if lo != nil {
		c := bat.Compare(v, *lo)
		if c < 0 || (c == 0 && !loIncl) {
			return false
		}
	}
	if hi != nil {
		c := bat.Compare(v, *hi)
		if c > 0 || (c == 0 && !hiIncl) {
			return false
		}
	}
	return true
}

func selectScan(ctx *Ctx, b *bat.BAT, lo, hi *bat.Value, loIncl, hiIncl bool) *bat.BAT {
	ctx.chose("scan-select")
	p := ctx.pager()
	b.T.TouchAll(p)
	var pos []int
	n := b.Len()
	switch t := b.T.(type) {
	case *bat.IntCol:
		pos = scanClosed(ctx, b, t.V, lo, hi, loIncl, hiIncl)
	case *bat.FltCol:
		pos = parallelCollect(ctx, n, func(from, to int) []int {
			var p []int
			for i := from; i < to; i++ {
				if inRange(bat.F(t.V[i]), lo, hi, loIncl, hiIncl) {
					p = append(p, i)
				}
			}
			return p
		})
	case *bat.ChrCol:
		pos = parallelCollect(ctx, n, func(from, to int) []int {
			var p []int
			for i := from; i < to; i++ {
				if inRange(bat.C(t.V[i]), lo, hi, loIncl, hiIncl) {
					p = append(p, i)
				}
			}
			return p
		})
	case *bat.OIDCol:
		pos = scanClosed(ctx, b, t.V, lo, hi, loIncl, hiIncl)
	case *bat.StrCol:
		loS, hiS, ok := strBounds(lo, hi)
		if ok {
			pos = parallelCollect(ctx, n, func(from, to int) []int {
				var p []int
				for i := from; i < to; i++ {
					v := t.At(i)
					if loS != nil {
						if v < *loS || (v == *loS && !loIncl) {
							continue
						}
					}
					if hiS != nil {
						if v > *hiS || (v == *hiS && !hiIncl) {
							continue
						}
					}
					p = append(p, i)
				}
				return p
			})
		} else {
			pos = scanGeneric(b, lo, hi, loIncl, hiIncl)
		}
	case *bat.DateCol:
		pos = parallelCollect(ctx, n, func(from, to int) []int {
			var p []int
			for i := from; i < to; i++ {
				if inRange(bat.D(t.V[i]), lo, hi, loIncl, hiIncl) {
					p = append(p, i)
				}
			}
			return p
		})
	default:
		pos = parallelCollect(ctx, n, func(from, to int) []int {
			var p []int
			for i := from; i < to; i++ {
				if inRange(b.T.Get(i), lo, hi, loIncl, hiIncl) {
					p = append(p, i)
				}
			}
			return p
		})
	}
	return gatherPositions(ctx, b.Name+".sel", b, pos)
}

// workersFor reports the parallel degree for an operator over n rows:
// parallel iteration engages only when enabled and the input is large enough
// to amortize it.
func workersFor(ctx *Ctx, n int) int {
	if n < parallelMinRows {
		return 1
	}
	return ctx.workers()
}

func scanGeneric(b *bat.BAT, lo, hi *bat.Value, loIncl, hiIncl bool) []int {
	var pos []int
	for i := 0; i < b.Len(); i++ {
		if inRange(b.T.Get(i), lo, hi, loIncl, hiIncl) {
			pos = append(pos, i)
		}
	}
	return pos
}

// scanClosed is the scan select over an integer-valued tail (int or oid):
// with bounds of the tail's own kind it compares unboxed against closed
// int64 bounds.
func scanClosed[E int64 | bat.OID](ctx *Ctx, b *bat.BAT, v []E, lo, hi *bat.Value, loIncl, hiIncl bool) []int {
	loI, hiI, ok := closedBounds(b.T.Kind(), lo, hi, loIncl, hiIncl)
	if !ok {
		return scanGeneric(b, lo, hi, loIncl, hiIncl)
	}
	return parallelCollect(ctx, len(v), func(from, to int) []int {
		var p []int
		for i := from; i < to; i++ {
			if x := int64(v[i]); x >= loI && x <= hiI {
				p = append(p, i)
			}
		}
		return p
	})
}

// closedPred is scanClosed's per-row predicate, or nil when a bound is not
// of kind k.
func closedPred[E int64 | bat.OID](k bat.Kind, v []E, lo, hi *bat.Value, loIncl, hiIncl bool) func(int32) bool {
	loI, hiI, ok := closedBounds(k, lo, hi, loIncl, hiIncl)
	if !ok {
		return nil
	}
	return func(i int32) bool { x := int64(v[i]); return x >= loI && x <= hiI }
}

// closedBounds converts optional boxed bounds into closed int64 bounds, when
// both sides are of kind k (or absent).
func closedBounds(k bat.Kind, lo, hi *bat.Value, loIncl, hiIncl bool) (int64, int64, bool) {
	loI := int64(-1 << 62)
	hiI := int64(1<<62 - 1)
	if lo != nil {
		if lo.K != k {
			return 0, 0, false
		}
		loI = lo.I
		if !loIncl {
			loI++
		}
	}
	if hi != nil {
		if hi.K != k {
			return 0, 0, false
		}
		hiI = hi.I
		if !hiIncl {
			hiI--
		}
	}
	return loI, hiI, true
}

// strBounds validates optional boxed bounds as string-typed (or absent).
func strBounds(lo, hi *bat.Value) (*string, *string, bool) {
	var loS, hiS *string
	if lo != nil {
		if lo.K != bat.KStr {
			return nil, nil, false
		}
		loS = &lo.S
	}
	if hi != nil {
		if hi.K != bat.KStr {
			return nil, nil, false
		}
		hiS = &hi.S
	}
	return loS, hiS, true
}

// binSearchRun locates the qualifying run [start, end) of a range select on
// a tail-ordered BAT. Shared by the materializing select and the pipeline
// source, so both cut the bit-identical window.
func binSearchRun(b *bat.BAT, lo, hi *bat.Value, loIncl, hiIncl bool) (int, int) {
	n := b.Len()
	start := 0
	if lo != nil {
		start = sort.Search(n, func(i int) bool {
			c := bat.Compare(b.T.Get(i), *lo)
			if loIncl {
				return c >= 0
			}
			return c > 0
		})
	}
	end := n
	if hi != nil {
		end = sort.Search(n, func(i int) bool {
			c := bat.Compare(b.T.Get(i), *hi)
			if hiIncl {
				return c > 0
			}
			return c >= 0
		})
	}
	if end < start {
		end = start
	}
	return start, end
}

// tailPred compiles the range predicate of a scan select over b's tail into
// a per-row closure — the same typed fast paths selectScan dispatches on,
// with the same boxed fallbacks, so pred(i) holds exactly when selectScan
// would keep row i. The pipeline evaluates it per vector.
func tailPred(b *bat.BAT, lo, hi *bat.Value, loIncl, hiIncl bool) func(int32) bool {
	switch t := b.T.(type) {
	case *bat.IntCol:
		if pred := closedPred(bat.KInt, t.V, lo, hi, loIncl, hiIncl); pred != nil {
			return pred
		}
	case *bat.OIDCol:
		if pred := closedPred(bat.KOID, t.V, lo, hi, loIncl, hiIncl); pred != nil {
			return pred
		}
	case *bat.StrCol:
		if loS, hiS, ok := strBounds(lo, hi); ok {
			return func(i int32) bool {
				v := t.At(int(i))
				if loS != nil && (v < *loS || (v == *loS && !loIncl)) {
					return false
				}
				if hiS != nil && (v > *hiS || (v == *hiS && !hiIncl)) {
					return false
				}
				return true
			}
		}
	case *bat.FltCol:
		return func(i int32) bool { return inRange(bat.F(t.V[i]), lo, hi, loIncl, hiIncl) }
	case *bat.ChrCol:
		return func(i int32) bool { return inRange(bat.C(t.V[i]), lo, hi, loIncl, hiIncl) }
	case *bat.DateCol:
		return func(i int32) bool { return inRange(bat.D(t.V[i]), lo, hi, loIncl, hiIncl) }
	}
	tc := b.T
	return func(i int32) bool { return inRange(tc.Get(int(i)), lo, hi, loIncl, hiIncl) }
}

// bitPred compiles SelectBit's predicate into a per-row closure.
func bitPred(b *bat.BAT) func(int32) bool {
	if t, ok := b.T.(*bat.BitCol); ok {
		return func(i int32) bool { return t.V[i] }
	}
	tc := b.T
	return func(i int32) bool { return tc.Get(int(i)).Bool() }
}

func selectBinSearch(ctx *Ctx, b *bat.BAT, lo, hi *bat.Value, loIncl, hiIncl bool) *bat.BAT {
	ctx.chose("binsearch-select")
	start, end := binSearchRun(b, lo, hi, loIncl, hiIncl)
	// The qualifying positions are exactly [start, end): gather the run as
	// zero-copy views without materializing a position vector at all.
	out := gatherRun(ctx, b.Name+".sel", b, start, end-start)
	// A contiguous slice of a tail-ordered BAT is itself tail-ordered even
	// if the operand lost other properties.
	out.Props |= bat.TOrdered
	return out
}

// SelectBit keeps the BUNs whose (boolean) tail is true; it is how the
// translation of a general boolean predicate materializes its qualifying
// set.
func SelectBit(ctx *Ctx, b *bat.BAT) *bat.BAT {
	ctx.chose("scan-select")
	p := ctx.pager()
	b.T.TouchAll(p)
	var pos []int
	if t, ok := b.T.(*bat.BitCol); ok {
		for i, v := range t.V {
			if v {
				pos = append(pos, i)
			}
		}
	} else {
		for i := 0; i < b.Len(); i++ {
			if b.T.Get(i).Bool() {
				pos = append(pos, i)
			}
		}
	}
	return gatherPositions(ctx, b.Name+".sel", b, pos)
}

// Slice returns the first n BUNs of b (the top-N primitive backing MOA's
// top[n] after a sort).
func Slice(ctx *Ctx, b *bat.BAT, n int) *bat.BAT {
	ctx.chose("slice")
	if n > b.Len() {
		n = b.Len()
	}
	return gatherRun(ctx, b.Name+".slice", b, 0, n)
}
