package mil

import (
	"math"
	"sort"
	"strings"

	"repro/internal/bat"
)

// gatherPositions builds the result BAT of a filtering operation: the BUNs
// of b at the given ascending positions, a bat.Subset of b (Section 5.1: "a
// rangeselect will propagate the ordered information on both head and tail
// to the result"; semijoin propagates the key properties of its left
// operand).
func gatherPositions(ctx *Ctx, name string, b *bat.BAT, pos []int32) *bat.BAT {
	// Positions forming a contiguous run (binary-search selections, slices,
	// 100%-selectivity filters) gather as zero-copy column views: no copies,
	// and the pager accounts one page span instead of one touch per row.
	if lo, ok := bat.PositionRun(pos); ok {
		return gatherRun(ctx, name, b, lo, len(pos))
	}
	if p := ctx.pager(); p != nil {
		b.H.TouchPositions(p, pos)
		b.T.TouchPositions(p, pos)
	}
	return bat.Derive(bat.New(name, bat.Gather(b.H, pos), bat.Gather(b.T, pos), 0), bat.Subset, b, nil)
}

// gatherRun is gatherPositions for the contiguous run [lo, lo+n): the result
// BAT shares its operand's backing storage through column views, a bat.Run
// of b.
func gatherRun(ctx *Ctx, name string, b *bat.BAT, lo, n int) *bat.BAT {
	if p := ctx.pager(); p != nil {
		b.H.TouchRange(p, lo, n)
		b.T.TouchRange(p, lo, n)
	}
	return bat.Derive(bat.New(name, bat.SliceView(b.H, lo, n), bat.SliceView(b.T, lo, n), 0), bat.Run, b, nil)
}

// SelectRange implements AB.select(Tl,Th): {ab ∈ AB | Tl ≤ b ≤ Th}, with
// optional exclusive bounds. A nil lo or hi leaves that side unbounded. The
// dynamic optimizer uses binary search when the tail is ordered (the layout
// Section 5.2 prescribes for attribute BATs) and a scan otherwise.
func SelectRange(ctx *Ctx, b *bat.BAT, lo, hi *bat.Value, loIncl, hiIncl bool) *bat.BAT {
	if b.Props.Has(bat.TOrdered) {
		return selectBinSearch(ctx, b, lo, hi, loIncl, hiIncl)
	}
	return scanSelect(ctx, b, tailKernel(b, lo, hi, loIncl, hiIncl))
}

// SelectEq implements AB.select(T): {ab ∈ AB | b = T}: binary search on
// ordered tails, else a scan.
func SelectEq(ctx *Ctx, b *bat.BAT, v bat.Value) *bat.BAT {
	if b.Props.Has(bat.TOrdered) {
		return selectBinSearch(ctx, b, &v, &v, true, true)
	}
	return scanSelect(ctx, b, tailKernel(b, &v, &v, true, true))
}

// SelectBit keeps the BUNs whose (boolean) tail is true; it is how the
// translation of a general boolean predicate materializes its qualifying
// set.
func SelectBit(ctx *Ctx, b *bat.BAT) *bat.BAT {
	return scanSelect(ctx, b, bitKernel(b))
}

// scanSelect is the scan select: the kernel runs over every morsel range of
// b.
func scanSelect(ctx *Ctx, b *bat.BAT, keep selKernel) *bat.BAT {
	ctx.chose("scan-select")
	b.T.TouchAll(ctx.pager())
	return gatherPositions(ctx, b.Name+".sel", b, morselLoop(ctx, b.Len(), keep, catPositions))
}

// selKernel is a compiled select predicate over one BAT's tail: it returns
// the rows of [lo, hi) that qualify, ascending. The scan select calls it
// once per morsel range.
type selKernel func(lo, hi int) []int32

// fixedKernel is the typed range kernel over a fixed-width tail: the rows
// whose value is neither below lo nor above hi. (Phrased by exclusion so a
// NaN — which bat.Compare holds equal to every bound — qualifies, as it
// does under inRange with inclusive bounds.)
func fixedKernel[E bat.Ordered](col []E, lo, hi E) selKernel {
	return func(from, to int) (out []int32) {
		for i, x := range col[from:to] {
			if !(x < lo) && !(x > hi) {
				out = append(out, int32(from+i))
			}
		}
		return out
	}
}

// rowKernel lifts a per-row predicate into a kernel: the path of the tails
// without a typed loop (bits, and bounds the typed kernels cannot express).
func rowKernel(keep func(i int32) bool) selKernel {
	return func(lo, hi int) (out []int32) {
		for i := int32(lo); i < int32(hi); i++ {
			if keep(i) {
				out = append(out, i)
			}
		}
		return out
	}
}

// closedInts converts optional boxed bounds of kind k over an integer-valued
// element type into the closed interval [l, h]: an absent side is the
// type's extreme (minE, maxE), an exclusive bound steps inward, and an
// exclusive bound at the extreme leaves nothing to select (the empty
// interval [1, 0]). ok is false when a bound is of another kind.
func closedInts[E bat.OID | int64 | byte | int32](k bat.Kind, minE, maxE E, lo, hi *bat.Value, loIncl, hiIncl bool) (l, h E, ok bool) {
	l, h = minE, maxE
	if lo != nil {
		if l = E(lo.I); lo.K != k {
			return 0, 0, false
		}
		if !loIncl {
			if l == maxE {
				return 1, 0, true
			}
			l++
		}
	}
	if hi != nil {
		if h = E(hi.I); hi.K != k {
			return 0, 0, false
		}
		if !hiIncl {
			if h == minE {
				return 1, 0, true
			}
			h--
		}
	}
	return l, h, true
}

// closedFlts is closedInts for float tails: only inclusive (or absent)
// float bounds form a closed interval.
func closedFlts(lo, hi *bat.Value, loIncl, hiIncl bool) (l, h float64, ok bool) {
	l, h = math.Inf(-1), math.Inf(1)
	if lo != nil {
		if l = lo.F; lo.K != bat.KFlt || !loIncl {
			return 0, 0, false
		}
	}
	if hi != nil {
		if h = hi.F; hi.K != bat.KFlt || !hiIncl {
			return 0, 0, false
		}
	}
	return l, h, true
}

// strKernel is the range kernel over a string tail, its bounds string-typed
// or nil (absent): one loop over the offsets and the character heap per
// range. The closed point range [s, s] — SelectEq — is one string equality
// per row, which compares lengths before bytes.
func strKernel(t *bat.StrCol, lo, hi *bat.Value, loIncl, hiIncl bool) selKernel {
	var l, h string
	if lo != nil {
		l = lo.S
	}
	if hi != nil {
		h = hi.S
	}
	// The least / greatest strings.Compare(s, bound) that still qualifies.
	loMin, hiMax := 1, -1
	if loIncl {
		loMin = 0
	}
	if hiIncl {
		hiMax = 0
	}
	point := lo != nil && hi != nil && loIncl && hiIncl && l == h
	return func(from, to int) (out []int32) {
		off, chars := t.Off, t.Chars
		for i := int32(from); i < int32(to); i++ {
			switch s := chars[off[i]:off[i+1]]; {
			case point:
				if s != l {
					continue
				}
			case lo != nil && strings.Compare(s, l) < loMin, hi != nil && strings.Compare(s, h) > hiMax:
				continue
			}
			out = append(out, i)
		}
		return out
	}
}

// tailKernel compiles the range predicate lo ≤/< tail ≤/< hi over b's tail:
// row i qualifies exactly when inRange holds of its boxed tail value. Bounds
// of the tail's own kind compile to a typed loop; anything else (bat.Compare
// then orders across kinds) evaluates boxed.
func tailKernel(b *bat.BAT, lo, hi *bat.Value, loIncl, hiIncl bool) selKernel {
	switch t := b.T.(type) {
	case *bat.IntCol:
		if l, h, ok := closedInts[int64](bat.KInt, math.MinInt64, math.MaxInt64, lo, hi, loIncl, hiIncl); ok {
			return fixedKernel(t.V, l, h)
		}
	case *bat.OIDCol:
		if l, h, ok := closedInts[bat.OID](bat.KOID, 0, math.MaxUint32, lo, hi, loIncl, hiIncl); ok {
			return fixedKernel(t.V, l, h)
		}
	case *bat.DateCol:
		if l, h, ok := closedInts[int32](bat.KDate, math.MinInt32, math.MaxInt32, lo, hi, loIncl, hiIncl); ok {
			return fixedKernel(t.V, l, h)
		}
	case *bat.ChrCol:
		if l, h, ok := closedInts[byte](bat.KChr, 0, math.MaxUint8, lo, hi, loIncl, hiIncl); ok {
			return fixedKernel(t.V, l, h)
		}
	case *bat.FltCol:
		if l, h, ok := closedFlts(lo, hi, loIncl, hiIncl); ok {
			return fixedKernel(t.V, l, h)
		}
	case *bat.StrCol:
		if (lo == nil || lo.K == bat.KStr) && (hi == nil || hi.K == bat.KStr) {
			return strKernel(t, lo, hi, loIncl, hiIncl)
		}
	}
	tc := b.T
	return rowKernel(func(i int32) bool { return inRange(tc.Get(int(i)), lo, hi, loIncl, hiIncl) })
}

// bitKernel compiles SelectBit's predicate: the rows whose tail is true.
func bitKernel(b *bat.BAT) selKernel {
	if t, ok := b.T.(*bat.BitCol); ok {
		return rowKernel(func(i int32) bool { return t.V[i] })
	}
	tc := b.T
	return rowKernel(func(i int32) bool { return tc.Get(int(i)).Bool() })
}

// inRange is the boxed range predicate: the definition the typed kernels
// specialize.
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

// selectBinSearch is the range select on a tail-ordered BAT: it locates the
// qualifying run [start, end) by binary search.
func selectBinSearch(ctx *Ctx, b *bat.BAT, lo, hi *bat.Value, loIncl, hiIncl bool) *bat.BAT {
	ctx.chose("binsearch-select")
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
	// The qualifying positions are exactly [start, end): gather the run as
	// zero-copy views without materializing a position vector at all.
	return gatherRun(ctx, b.Name+".sel", b, start, end-start)
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
