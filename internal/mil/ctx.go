// Package mil implements the Monet Interpreter Language execution algebra of
// Boncz, Wilschut & Kersten (ICDE 1998), Section 4.2 and Figure 4: a small
// set of BAT-algebra primitives (mirror, semijoin, join, select, unique,
// group, multiplex, set-aggregate, set operations) that suffices to execute
// the MOA object algebra, plus the run-time "dynamic optimization" layer
// that picks among algorithm variants (hash / merge / sync / datavector)
// based on kernel-maintained BAT properties (Section 5.1).
//
// All operations materialize their result and never change their operands.
package mil

import (
	"context"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/storage"
)

// MemGauge is a process-wide gauge of live intermediate bytes, shared by
// every concurrent query context that points at it: Account and Release
// mirror their per-query deltas into the gauge atomically. It feeds the
// server's admission controller — a query is refused while the gauge sits
// above the memory budget, shedding load before the process OOMs. A nil
// *MemGauge is valid and disables global tracking.
type MemGauge struct {
	live atomic.Int64
}

// Live reports the gauge's current live intermediate bytes.
func (g *MemGauge) Live() int64 {
	if g == nil {
		return 0
	}
	return g.live.Load()
}

// Add shifts the gauge by delta bytes. External reservations (admission
// holds, retained result sets) use it directly; query contexts feed it
// through Account/Release.
func (g *MemGauge) Add(delta int64) {
	if g != nil && delta != 0 {
		g.live.Add(delta)
	}
}

// Ctx carries the execution environment of one query: the paged-storage
// simulator (for Fig. 9/10 fault accounting), memory accounting for
// intermediate results, and the record of which algorithm variant the
// dynamic optimizer chose last (surfaced in traces).
//
// A nil *Ctx is valid and disables all accounting.
type Ctx struct {
	// Options are the query's execution settings; tests and ablations may
	// tweak one of them mid-flight.
	Options

	// Context, when non-nil, is the query's lifecycle: when it is cancelled
	// (client disconnect) or its deadline expires, the interpreter stops at
	// the next operator boundary and every parallel dispatch stops within
	// one morsel (see Cancelled). A nil Context never cancels.
	Context context.Context

	// canceled caches an observed cancellation so the amortized check is a
	// single atomic load once the signal has fired (several goroutines —
	// morsel workers via the Sched.Stop hook — may consult it).
	canceled atomic.Bool

	// IntermBytes accumulates the owned size of every intermediate BAT
	// created ("total MB" column in Fig. 9). Zero-copy views, and operand
	// columns a result holds unchanged, count nothing, so view-heavy plans
	// report the memory they actually allocate.
	IntermBytes int64
	// LiveBytes tracks currently-live intermediate bytes and PeakBytes its
	// maximum ("max MB" column in Fig. 9).
	LiveBytes int64
	PeakBytes int64

	// lastAlgo names the variant the dynamic optimizer chose for the most
	// recent operation (e.g. "merge-join", "datavector-semijoin").
	lastAlgo string

	// Statement-scoped profile accumulators, drained into the statement's
	// trace by FillStmtProf at each statement boundary. All writes happen on
	// the interpreter goroutine: accelerator builds run under the
	// singleflight slot lock on the goroutine that triggered them, and
	// dispatch recorders fold their per-worker counters back after
	// Dispatch returns, and a dispatch reports its site before it starts
	// its workers — so plain fields suffice.
	profBuilds  int
	profBuildNs int64
	profWorkers int
	profMorsels int
	profShare   float64
	profSites   []string

	// tracker attributes this query's touches of the shared Pager pool;
	// created lazily by pager() on the interpreter goroutine (operators
	// account their page touches before fanning work out to parallel
	// workers, so the lazy init is single-threaded).
	tracker *storage.Tracker
}

// Options are the execution settings of a query, declared once: Ctx,
// engine.Session and engine.Database embed them, so a database's settings
// flow to each session and from there into each query's Ctx. The zero value
// is a fully usable default (sequential, no paging simulation, no
// accounting).
type Options struct {
	// Pager, when non-nil, is the shared paged-storage pool the query
	// touches. The pool may be shared with any number of concurrent
	// queries (one mutex guards it); each query's own fault/hit counts are
	// attributed through a private storage.Tracker created on first touch
	// (see Ctx.PageFaults). nil disables the paging simulation.
	Pager *storage.Pager

	// Workers enables shared-memory parallel iteration (Section 2) for the
	// data-parallel operators when > 1; results are bit-identical to
	// sequential execution.
	Workers int

	// Gauge, when non-nil, receives every Account/Release delta: the
	// process-wide live-bytes feed of the server's admission control.
	Gauge *MemGauge
}

// NewCtx returns a query context configured by o and bound to the lifecycle
// of cx: cancellation or deadline expiry stops the interpreter at the next
// operator boundary and parallel dispatch within one morsel. A cx that can
// never fire (context.Background()) is not retained, keeping the
// uncancellable fast path free of even the amortized check; passing nil cx
// means the query has no lifecycle.
func NewCtx(cx context.Context, o Options) *Ctx {
	c := &Ctx{Options: o}
	if cx != nil && cx.Done() != nil {
		c.Context = cx
	}
	return c
}

// Cancelled performs the cheap amortized cancellation check: one atomic
// load when the signal has already been observed, otherwise a non-blocking
// poll of Context.Done(). The interpreter calls it at every operator
// boundary and morsel dispatch consults it (through the stop hook) once
// per claimed unit, so a cancelled query stops within one morsel (~32k
// rows) of the signal without any per-row cost.
func (c *Ctx) Cancelled() bool {
	if c == nil {
		return false
	}
	if c.canceled.Load() {
		return true
	}
	cx := c.Context
	if cx == nil {
		return false
	}
	select {
	case <-cx.Done():
		c.canceled.Store(true)
		return true
	default:
		return false
	}
}

// CtxErr reports why the query was cancelled (context.Canceled or
// context.DeadlineExceeded), or nil when it was not.
func (c *Ctx) CtxErr() error {
	if c == nil || c.Context == nil {
		return nil
	}
	return c.Context.Err()
}

// stop returns the cancellation hook for parallel dispatch, or nil when the
// query has no lifecycle — the nil keeps the uncancellable fast path free
// of even the amortized check.
func (c *Ctx) stop() func() bool {
	if c == nil || c.Context == nil {
		return nil
	}
	return c.Cancelled
}

// LastAlgo reports the algorithm variant chosen by the most recent
// operation.
func (c *Ctx) LastAlgo() string {
	if c == nil {
		return ""
	}
	return c.lastAlgo
}

// Variants lists every algorithm variant an operator reports through
// LastAlgo (Intersect appends " (intersect)" to its semijoin's).
var Variants = []string{
	"id-aggr", "dense-aggr", "hash-aggr", "scalar-aggr",
	"extent-unique", "dense-unique", "hash-unique", "dense-group", "hash-group",
	"datavector-join", "sync-join", "fetch-join", "merge-join", "hash-join",
	"aligned-multiplex", "hash-multiplex", "mirror", "calc", "mark",
	"scan-select", "binsearch-select", "slice",
	"alias-semijoin", "sync-semijoin", "datavector-semijoin", "merge-semijoin", "hash-semijoin",
	"hash-union", "hash-diff", "sort",
}

func (c *Ctx) chose(algo string) {
	if c != nil {
		c.lastAlgo = algo
	}
}

func (c *Ctx) pager() *storage.Tracker {
	if c == nil || c.Pager == nil {
		return nil
	}
	if c.tracker == nil {
		c.tracker = c.Pager.NewTracker()
	}
	return c.tracker
}

// PageFaults reports the page faults attributed to this query: touches of
// the shared pool that found the page non-resident. Unlike differencing the
// pool's aggregate counter around execution, this never includes a
// concurrent query's faults.
func (c *Ctx) PageFaults() uint64 {
	if c == nil {
		return 0
	}
	return c.tracker.Faults()
}

// PageHits reports the page hits attributed to this query.
func (c *Ctx) PageHits() uint64 {
	if c == nil {
		return 0
	}
	return c.tracker.Hits()
}

// Account records the creation of an intermediate BAT that newly owns sz
// bytes of backing storage (see chargedBytes): a zero-copy view's shared
// backing, and an operand column the result holds unchanged, were charged
// once when their owner was created, so they add nothing.
func (c *Ctx) Account(sz int64) {
	if c == nil {
		return
	}
	c.IntermBytes += sz
	c.LiveBytes += sz
	if c.LiveBytes > c.PeakBytes {
		c.PeakBytes = c.LiveBytes
	}
	c.Gauge.Add(sz)
}

// Release records that an intermediate BAT is no longer live, debiting the
// sz bytes Account credited for it, so credits and debits always balance.
// Known approximation: a zero-copy view or shared column that outlives its
// owning intermediate keeps the owner's backing alive after the owner's
// release debited it, so LiveBytes (and the gauge) can under-count within a
// query; the window closes at query end (DrainGauge), and views of base
// BATs — the common case — are unaffected (base data is never accounted).
// The admission budget is a load-shedding heuristic, not an allocator.
func (c *Ctx) Release(sz int64) {
	if c == nil {
		return
	}
	c.LiveBytes -= sz
	if c.LiveBytes < 0 {
		c.LiveBytes = 0
	}
	c.Gauge.Add(-sz)
}

// DrainGauge returns the context's still-live bytes (kept results the
// interpreter never releases) to the shared gauge; the session calls it
// when the query's results have been materialized and the intermediates
// become garbage. Idempotent; per-query stats (PeakBytes, IntermBytes) are
// unaffected.
func (c *Ctx) DrainGauge() {
	if c == nil || c.Gauge == nil {
		return
	}
	c.Gauge.Add(-c.LiveBytes)
	c.LiveBytes = 0
}

// ResetStats zeroes the memory and fault accounting for a fresh query. The
// shared Pager pool (state and aggregate counters) is unaffected.
func (c *Ctx) ResetStats() {
	if c == nil {
		return
	}
	c.IntermBytes = 0
	c.LiveBytes = 0
	c.PeakBytes = 0
	c.lastAlgo = ""
	c.tracker = c.Pager.NewTracker()
	c.profBuilds, c.profBuildNs = 0, 0
	c.profWorkers, c.profMorsels, c.profShare = 0, 0, 0
	c.profSites = nil
}

// noteBuild records one accelerator construction this query triggered (and
// won — singleflight losers wait but do not build). Build events are rare
// (once per accelerator per epoch), so this is always-on.
func (c *Ctx) noteBuild(d time.Duration) {
	if c == nil {
		return
	}
	c.profBuilds++
	c.profBuildNs += int64(d)
}

// buildHook returns the accelerator-build observer to thread through
// bat.Sched, or nil for a nil Ctx.
func (c *Ctx) buildHook() func(time.Duration) {
	if c == nil {
		return nil
	}
	return c.noteBuild
}

// parallelHook returns the observer of multi-worker dispatches to thread
// through a k-worker bat.Sched, or nil when the schedule is sequential (or
// c is nil): a sequential query pays nothing, not even the closure.
func (c *Ctx) parallelHook(k int) func(string) {
	if c == nil || k <= 1 {
		return nil
	}
	return c.noteParallel
}

// noteParallel records that a dispatch at site engaged more than one
// worker in the current statement.
func (c *Ctx) noteParallel(site string) {
	if !slices.Contains(c.profSites, site) {
		c.profSites = append(c.profSites, site)
	}
}

// dispatchRec collects one parallel dispatch's per-worker load; a nil
// recorder (a nil Ctx) makes every method a no-op. Workers increment plain
// counters — safe because a worker id never runs two units concurrently
// (the Dispatch contract) and each worker touches only its own slots.
type dispatchRec struct {
	rows    []int64
	morsels []int64
}

// dispatchRec returns a recorder for a k-worker dispatch, or nil for a nil
// Ctx. Only a dispatch over more than one worker asks for one, so the
// sequential path allocates nothing.
func (c *Ctx) dispatchRec(k int) *dispatchRec {
	if c == nil {
		return nil
	}
	return &dispatchRec{rows: make([]int64, k), morsels: make([]int64, k)}
}

// claim records that worker w processed one morsel of the given row count.
func (r *dispatchRec) claim(w, rows int) {
	if r == nil {
		return
	}
	r.rows[w] += int64(rows)
	r.morsels[w]++
}

// done folds the dispatch's counters into the statement-scoped accumulators
// on the dispatching goroutine: workers engaged is the max across the
// statement's dispatches, morsels accumulate, and the share is the largest
// fraction of one dispatch's rows claimed by a single worker (1/k is
// perfect balance, 1.0 is total skew).
func (r *dispatchRec) done(c *Ctx) {
	if r == nil {
		return
	}
	var total, maxRows, morsels int64
	engaged := 0
	for w := range r.rows {
		total += r.rows[w]
		morsels += r.morsels[w]
		if r.morsels[w] > 0 {
			engaged++
		}
		if r.rows[w] > maxRows {
			maxRows = r.rows[w]
		}
	}
	if engaged > c.profWorkers {
		c.profWorkers = engaged
	}
	c.profMorsels += int(morsels)
	if total > 0 {
		if sh := float64(maxRows) / float64(total); sh > c.profShare {
			c.profShare = sh
		}
	}
}

// FillStmtProf drains the statement-scoped profile accumulators into tr and
// resets them for the next statement. The interpreter calls it at every
// statement boundary — the reset (a handful of plain stores) keeps one
// statement's events from bleeding into the next.
func (c *Ctx) FillStmtProf(tr *StmtTrace) {
	if c == nil {
		return
	}
	tr.AccelBuilds = c.profBuilds
	tr.AccelBuildNs = c.profBuildNs
	tr.Workers = c.profWorkers
	tr.Morsels = c.profMorsels
	tr.MaxShare = c.profShare
	tr.Sites = c.profSites
	c.profBuilds, c.profBuildNs = 0, 0
	c.profWorkers, c.profMorsels, c.profShare = 0, 0, 0
	c.profSites = nil
}
