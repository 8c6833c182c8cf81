package mil

import (
	"repro/internal/bat"
)

// Monet "supports shared-memory parallelism via parallel iteration and
// parallel block execution" (Section 2). The Go kernel mirrors the parallel
// iteration primitive with one loop, morselLoop: a data-parallel operator
// splits its input into contiguous ranges (morsels), the workers claim them
// through the one dispatcher (bat.Sched.Dispatch), and the partial results
// are stitched in range order — never completion order — so parallel and
// sequential execution produce identical BATs.
//
// There are many more morsels than workers. Under a skewed workload — a
// tail-ordered attribute BAT clusters a hot key's rows contiguously, and
// those rows can carry far more probe work than the rest — one range per
// worker would strand the whole hot range on one worker; morsel claiming
// lets the fast workers steal the tail of the queue instead of idling.
//
// Parallelism is opt-in per execution context (Ctx.Workers > 1) and engages
// only from bat.ParallelMinRows rows on (workersFor); every Sched the MIL
// layer hands the kernels carries that decision.

// Probe-morsel sizing, a function of the rows and workers only. The default
// targets an L2-resident chunk (~32k rows is 256 KB of 8-byte elements);
// the skew-aware cap guarantees at least morselsPerWorker claimable units
// per worker even on inputs barely past bat.ParallelMinRows, so there is
// always a tail to steal; the floor keeps the per-morsel dispatch and
// stitch overhead amortized.
const (
	defaultMorselRows = 1 << 15
	minMorselRows     = 1 << 9
	morselsPerWorker  = 4
)

// workersFor reports the parallel degree for an operator over n rows:
// parallel iteration engages only when enabled and the input is large enough
// to amortize it.
func workersFor(c *Ctx, n int) int {
	if n < bat.ParallelMinRows || c == nil || c.Workers < 1 {
		return 1
	}
	return c.Workers
}

// sched returns the dispatch descriptor for an n-row operator: the workers
// workersFor grants it, the query's stop hook, and the profile's build and
// dispatch observers. Accelerator builds and key-rep fills triggered by the
// operator run under it.
func (c *Ctx) sched(n int) bat.Sched {
	k := workersFor(c, n)
	return bat.Sched{
		Workers:    k,
		Stop:       c.stop(),
		OnBuild:    c.buildHook(),
		OnParallel: c.parallelHook(k),
	}
}

// probeRanges splits [0, n) into the morsel ranges of one parallel scan on
// k workers: ~L2-sized chunks claimed dynamically, never fewer than k.
func probeRanges(n, k int) [][2]int {
	mr := min(defaultMorselRows, (n+k*morselsPerWorker-1)/(k*morselsPerWorker))
	mr = max(mr, minMorselRows)
	m := max((n+mr-1)/mr, min(k, n))
	rs := make([][2]int, m)
	for i := range rs {
		rs[i] = [2]int{i * n / m, (i + 1) * n / m}
	}
	return rs
}

// ProbeRanges reports the morsel ranges an n-row parallel scan under c
// would dispatch (one range when the scan stays sequential). Exported so
// the scheduling ablations measure shares over the exact ranges the
// scheduler uses rather than re-deriving the sizing heuristic.
func (c *Ctx) ProbeRanges(n int) [][2]int {
	k := workersFor(c, n)
	if k <= 1 {
		return [][2]int{{0, n}}
	}
	return probeRanges(n, k)
}

// morselLoop is the parallel iteration of the MIL operators: fn runs over
// the rows [0, n) — once, fn(0, n), when the scan stays sequential, else
// once per morsel range on the workers — and cat joins the per-range
// results in range order (nil when fn writes its own output range and
// returns nothing).
func morselLoop[P any](c *Ctx, n int, fn func(lo, hi int) P, cat func([]P) P) P {
	k := workersFor(c, n)
	if k <= 1 {
		return fn(0, n)
	}
	rs := probeRanges(n, k)
	parts := make([]P, len(rs))
	rec := c.dispatchRec(k)
	c.sched(n).Dispatch(bat.SiteScan, len(rs), func(w, mi int) {
		lo, hi := rs[mi][0], rs[mi][1]
		parts[mi] = fn(lo, hi)
		rec.claim(w, hi-lo)
	})
	rec.done(c)
	if cat == nil {
		var none P
		return none
	}
	return cat(parts)
}

// catPositions concatenates position lists in order.
func catPositions(parts [][]int32) []int32 {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]int32, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// pairs are the matched (left, right) positions of a join probe.
type pairs struct{ l, r []int32 }

// catPairs concatenates join pairs in order.
func catPairs(parts []pairs) pairs {
	total := 0
	for _, p := range parts {
		total += len(p.l)
	}
	out := pairs{make([]int32, 0, total), make([]int32, 0, total)}
	for _, p := range parts {
		out.l = append(out.l, p.l...)
		out.r = append(out.r, p.r...)
	}
	return out
}

// scratchHint pre-sizes the position buffer of the rows [lo, hi) of an
// n-row operator from its total cardinality estimate, scaled by the range's
// share of the input (the whole estimate for the whole input).
func scratchHint(capHint, lo, hi, n int) int {
	if capHint <= 0 || n <= 0 {
		return 0
	}
	return int((int64(capHint)*int64(hi-lo) + int64(n) - 1) / int64(n))
}
