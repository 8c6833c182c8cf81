package mil

import (
	"repro/internal/bat"
)

// Monet "supports shared-memory parallelism via parallel iteration and
// parallel block execution" (Section 2). The Go kernel mirrors the parallel
// iteration primitive: data-parallel operators split their input into
// contiguous ranges and merge the partial results in range order, so
// parallel and sequential execution produce identical BATs.
//
// Scheduling is morsel-driven: the input splits into many more ranges
// (morsels) than workers, and workers claim the next morsel index from an
// atomic counter (bat.MorselDo). Under a skewed workload — a tail-ordered
// attribute BAT clusters a hot key's rows contiguously, and those rows can
// carry far more probe work than the rest — one range per worker would
// strand the whole hot range on one worker; morsel claiming lets the
// fast workers steal the tail of the queue instead of idling. Partials are
// stitched in morsel-index order (never completion order), so every
// schedule produces the bit-identical result of a sequential scan.
//
// Parallelism is opt-in per execution context (Ctx.Workers > 1) and only
// engages above parallelMinRows, below which goroutine overhead dominates.

// parallelMinRows is the smallest input for which parallel iteration pays.
const parallelMinRows = 1 << 14

// Probe-morsel sizing. The default targets an L2-resident chunk (~32k rows
// is 256 KB of 8-byte elements); the skew-aware cap guarantees at least
// morselsPerWorker claimable units per worker even on inputs barely past
// parallelMinRows, so there is always a tail to steal; the floor keeps the
// per-morsel dispatch and stitch overhead amortized.
const (
	defaultMorselRows = 1 << 15
	minMorselRows     = 1 << 9
	morselsPerWorker  = 4
)

// workers reports the effective degree of parallelism.
func (c *Ctx) workers() int {
	if c == nil || c.Workers < 1 {
		return 1
	}
	return c.Workers
}

// morselRows resolves the Ctx knob to a probe-morsel length for an n-row
// scan on k workers.
func (c *Ctx) morselRows(n, k int) int {
	if c != nil && c.MorselRows > 0 {
		return c.MorselRows
	}
	mr := defaultMorselRows
	if lim := (n + k*morselsPerWorker - 1) / (k * morselsPerWorker); lim < mr {
		mr = lim
	}
	if mr < minMorselRows {
		mr = minMorselRows
	}
	return mr
}

// sched returns the partition-dispatch descriptor for an n-row operator:
// how accelerator builds and partitioned groupings triggered by this
// operator schedule their partitions onto workers. Builds use whole
// partitions as morsels, so the probe-morsel length does not carry over.
func (c *Ctx) sched(n int) bat.Sched {
	return bat.Sched{
		Workers: workersFor(c, n),
		Stop:    c.stop(),
		OnBuild: c.buildHook(),
	}
}

// ranges splits [0, n) into at most k contiguous chunks (the kernel layer's
// chunking helper, shared so the split stays identical across layers).
func ranges(n, k int) [][2]int { return bat.SplitRange(n, k) }

// probeRanges splits [0, n) into the morsel ranges of one parallel scan:
// ~morselRows-sized chunks claimed dynamically, never fewer than k.
func probeRanges(c *Ctx, n, k int) [][2]int {
	mr := c.morselRows(n, k)
	m := (n + mr - 1) / mr
	if m < k {
		m = k
	}
	return ranges(n, m)
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
	return probeRanges(c, n, k)
}

// scratchHint pre-sizes one morsel's position buffer from the operator's
// total cardinality estimate, scaled by the morsel's share of the input —
// sizing by morsel length rather than splitting the total hint evenly, so
// the hint stays proportional even when ranges are uneven.
func scratchHint(capHint, lo, hi, n int) int {
	if capHint <= 0 || n <= 0 {
		return 0
	}
	return int(int64(capHint)*int64(hi-lo)/int64(n)) + 1
}

// parallelCollect32 runs fn over the morsel ranges of [0, n), each appending
// the positions it keeps (ascending within its range), and concatenates the
// partials in range order — the result is identical to a sequential
// left-to-right scan. capHint pre-sizes each morsel's buffer from the
// operator's cardinality estimate so results do not grow by repeated
// doubling.
func parallelCollect32(c *Ctx, n, capHint int, fn func(lo, hi int, out []int32) []int32) []int32 {
	k := workersFor(c, n)
	if capHint < 0 {
		capHint = 0
	}
	if k <= 1 {
		return fn(0, n, make([]int32, 0, capHint))
	}
	rs := probeRanges(c, n, k)
	if len(rs) <= 1 {
		return fn(0, n, make([]int32, 0, capHint))
	}
	parts := make([][]int32, len(rs))
	rec := c.dispatchRec(k)
	bat.MorselDoStop(k, len(rs), c.stop(), func(w, mi int) {
		lo, hi := rs[mi][0], rs[mi][1]
		parts[mi] = fn(lo, hi, make([]int32, 0, scratchHint(capHint, lo, hi, n)))
		rec.claim(w, hi-lo)
	})
	rec.done(c)
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

// parallelPairs runs fn over the morsel ranges of [0, n), each producing
// matched (left, right) position pairs in range order, and concatenates the
// partials in range order — the parallel hash-join probe. The result is
// identical to a sequential left-to-right probe.
func parallelPairs(c *Ctx, n, capHint int, fn func(lo, hi int, lp, rp []int32) ([]int32, []int32)) ([]int32, []int32) {
	k := workersFor(c, n)
	if capHint < 0 {
		capHint = 0
	}
	if k <= 1 {
		return fn(0, n, make([]int32, 0, capHint), make([]int32, 0, capHint))
	}
	rs := probeRanges(c, n, k)
	if len(rs) <= 1 {
		return fn(0, n, make([]int32, 0, capHint), make([]int32, 0, capHint))
	}
	lparts := make([][]int32, len(rs))
	rparts := make([][]int32, len(rs))
	rec := c.dispatchRec(k)
	bat.MorselDoStop(k, len(rs), c.stop(), func(w, mi int) {
		lo, hi := rs[mi][0], rs[mi][1]
		hint := scratchHint(capHint, lo, hi, n)
		lparts[mi], rparts[mi] = fn(lo, hi,
			make([]int32, 0, hint), make([]int32, 0, hint))
		rec.claim(w, hi-lo)
	})
	rec.done(c)
	total := 0
	for _, p := range lparts {
		total += len(p)
	}
	lpos := make([]int32, 0, total)
	rpos := make([]int32, 0, total)
	for i := range lparts {
		lpos = append(lpos, lparts[i]...)
		rpos = append(rpos, rparts[i]...)
	}
	return lpos, rpos
}

// parallelFill runs fn over the morsel ranges of [0, n); fn writes its own
// output range, so no merging is needed.
func parallelFill(c *Ctx, n int, fn func(lo, hi int)) {
	k := workersFor(c, n)
	if k <= 1 {
		fn(0, n)
		return
	}
	rs := probeRanges(c, n, k)
	if len(rs) <= 1 {
		fn(0, n)
		return
	}
	rec := c.dispatchRec(k)
	bat.MorselDoStop(k, len(rs), c.stop(), func(w, mi int) {
		fn(rs[mi][0], rs[mi][1])
		rec.claim(w, rs[mi][1]-rs[mi][0])
	})
	rec.done(c)
}
