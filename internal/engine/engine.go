// Package engine assembles the full query pipeline of the paper: MOA text is
// parsed and type-checked (Section 4.1), rewritten into a MIL program plus
// result structure function (Section 4.3), executed on the BAT kernel with
// property-driven dynamic optimization (Sections 2, 5), and the result
// materialized back through the structure functions (Section 3.3).
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/epoch"
	"repro/internal/mil"
	"repro/internal/moa"
	"repro/internal/rewrite"
)

// AutoWorkers reports the default parallel iteration degree for this host:
// one worker per schedulable CPU. Parallel execution stays bit-identical to
// sequential (the bulk operators merge per-worker partials in range order),
// so any degree is safe; 1 disables parallelism for paper-faithful
// single-CPU measurements.
func AutoWorkers() int { return runtime.GOMAXPROCS(0) }

// Database is an open MOA database: a schema plus the BAT environment
// holding its vertically decomposed extents, attribute BATs and
// accelerators.
//
// The base env and its BATs are safe to share between concurrent sessions
// (see NewSession): queries never write the base env — each session
// executes in a private scratch level layered over it — and the lazily
// built accelerators (head hashes) publish atomically with singleflight
// construction. A Pager, when the caller sets
// one (cmd/tpcd, cmd/moaquery, tests, the benchmark's traced pass; the
// query service sets none), is inherited by every session and safe to
// share: every query attributes its own faults through a private
// storage.Tracker, so concurrent sessions keep the per-query Figure 9/10
// fault observable (Stats.Faults) without interleaving into each other's
// counts.
type Database struct {
	Schema *moa.Schema
	Env    mil.Env
	// Epochs, when non-nil, makes the database writable behind epoch-based
	// copy-on-write publication: each Execute pins the chain's current
	// epoch for the query's lifetime and resolves base BATs through that
	// epoch's env instead of Env (which then only serves as the fallback
	// for epoch-less use). In-flight queries keep their snapshot while
	// ingests swap new epochs in — snapshot isolation, lock-free reads.
	Epochs *epoch.Manager
	// Options are the execution defaults every session inherits. A non-nil
	// Pager simulates paged storage and accounts page faults (the
	// substitute for Monet's memory-mapped files). The Gauge is a
	// per-session concern: the server sets it on each session.
	mil.Options
}

// New creates a database over an existing BAT environment.
func New(schema *moa.Schema, env mil.Env) *Database {
	return &Database{Schema: schema, Env: env}
}

// Stats summarizes one query execution with the measures reported in the
// paper's Fig. 9.
type Stats struct {
	Elapsed     time.Duration
	Faults      uint64
	Hits        uint64 // page hits attributed to this query (buffer efficacy)
	IntermBytes int64  // total size of all intermediate results
	PeakBytes   int64  // maximum memory consumption during execution
	Epoch       uint64 // epoch the query executed against (0 without epochs)
	// AccelBuilds counts the accelerator constructions this query triggered
	// (and won under singleflight) and AccelBuildNs the wall time spent
	// inside them — the build cost an unlucky first query pays on behalf of
	// everyone who probes the accelerator after it. Summed from the
	// statement traces; zero on error paths that produced no traces.
	AccelBuilds  int
	AccelBuildNs int64
	// Materialize is the part of Elapsed spent after the MIL program ran:
	// binding the structure function to the result BATs and, on Query's
	// path, materializing Set.
	Materialize time.Duration
}

// Result is a fully executed query.
type Result struct {
	// Set is the materialized answer: Query fills it, Execute leaves it nil.
	Set *moa.SetVal
	// Bound is the answer bound to the query's BATs: Bound.Len elements,
	// each rendered by Bound.AppendElem without being materialized.
	Bound  *moa.Bound
	Plan   *mil.Program
	Struct moa.Struct
	Type   moa.Type
	Traces []mil.StmtTrace
	Stats  Stats
}

// Prepare parses, checks and translates a MOA query without executing it.
func (db *Database) Prepare(src string) (*rewrite.Result, error) {
	e, err := moa.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	ck, err := moa.Check(db.Schema, e)
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	res, err := rewrite.Translate(ck)
	if err != nil {
		return nil, fmt.Errorf("translate: %w", err)
	}
	return res, nil
}

// Query executes a MOA query end to end on a fresh single-use session,
// without a cancellation lifecycle (batch tools, examples, benchmarks).
func (db *Database) Query(src string) (*Result, error) {
	return db.NewSession().Query(context.Background(), src)
}

// Session is one client's sequential query stream over a shared Database —
// the unit of concurrency of the query service. Many sessions may execute
// simultaneously against one Database: each query runs with a private
// mil.Ctx and a scratch env level layered over the shared base env (no
// per-query copy of the database env map), while accelerator construction
// on the shared BATs is coalesced by the kernel's singleflight slots.
//
// Within one Session, queries must still be issued sequentially (Monet's
// per-session execution model); open more sessions for more concurrency.
type Session struct {
	db *Database
	// Options are this session's execution settings, handed to every
	// query's mil.Ctx. Sharing one Pager across concurrently executing
	// sessions is safe: each query's Stats.Faults comes from a per-query
	// tracker, not from the pool's aggregate counters.
	mil.Options
}

// NewSession opens a session over the database, inheriting its execution
// settings.
func (db *Database) NewSession() *Session {
	return &Session{db: db, Options: db.Options}
}

// Query prepares and executes a MOA query on this session, materializing
// Result.Set. qctx is the query's lifecycle: cancellation or deadline expiry
// stops execution within one morsel and surfaces as *CanceledError.
// context.Background() disables the lifecycle entirely (no per-morsel
// polling).
func (s *Session) Query(qctx context.Context, src string) (*Result, error) {
	prep, err := s.db.Prepare(src)
	if err != nil {
		return nil, err
	}
	return s.execute(qctx, prep, true)
}

// Execute runs a prepared query under qctx's lifecycle and binds its answer
// (Result.Bound) without materializing it into Result.Set. The preparation is immutable and may be shared: many
// sessions can Execute the same *rewrite.Result concurrently (the server's
// plan cache relies on this).
//
// Failure modes are typed: a cancelled or expired qctx yields
// *CanceledError, a contained panic yields *InternalError (both carry the
// Stats accumulated up to the failure), and a user-program fault surfaces
// with a wrapped *mil.UserError. On every path — success, cancel, panic —
// the deferred DrainGauge folds the query's live intermediate bytes back to
// the shared gauge, so admission control never leaks budget to dead queries.
func (s *Session) Execute(qctx context.Context, prep *rewrite.Result) (*Result, error) {
	return s.execute(qctx, prep, false)
}

func (s *Session) execute(qctx context.Context, prep *rewrite.Result, materialize bool) (res *Result, err error) {
	// qctx binds the query lifecycle at construction: NewCtx retains only a
	// cancellable context, so Background/TODO (nil Done channel) keep the
	// uncancellable fast path free of even the amortized per-morsel poll.
	ctx := mil.NewCtx(qctx, s.Options)
	// Pin the current epoch for the whole query: base BATs resolve through
	// the pinned env, so an ingest publishing a new epoch mid-query cannot
	// change what this query sees (snapshot isolation). The deferred Release
	// runs on every exit path — success, user error, cancellation, panic —
	// which is what keeps retired epochs from leaking pins (and therefore
	// gauge bytes) when queries die.
	base := s.db.Env
	var epochID uint64
	if m := s.db.Epochs; m != nil {
		ep := m.Acquire()
		base = ep.Env
		epochID = ep.ID
		defer ep.Release()
	}
	// Whatever stays live at the end (kept results) is only read by the
	// bound answer's rendering, which allocates no intermediates; return it
	// to the shared gauge. Runs on every exit path, including the panic
	// recovery below.
	defer ctx.DrainGauge()
	start := time.Now()
	statsAt := func() Stats {
		return Stats{
			Elapsed:     time.Since(start),
			Faults:      ctx.PageFaults(),
			Hits:        ctx.PageHits(),
			IntermBytes: ctx.IntermBytes,
			PeakBytes:   ctx.PeakBytes,
			Epoch:       epochID,
		}
	}
	// Outermost containment: the interpreter already recovers per-statement
	// panics (mil.PanicError), but binding, materialization and the
	// engine's own bookkeeping run outside that boundary. Nothing may unwind into the
	// caller's serving loop.
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, &InternalError{
				Err:   fmt.Errorf("panic outside statement boundary: %v", r),
				Stack: debug.Stack(),
				Stats: statsAt(),
			}
		}
	}()

	// Execute in a scratch level layered over the shared base env: base
	// BATs resolve through the shared map, every binding lands in the
	// session-private level — no O(|database|) env copy per query, and
	// concurrent or repeated queries cannot pollute the database env.
	scope, traces, rerr := mil.Exec(ctx, prep.Prog, base)
	if rerr != nil {
		var pe *mil.PanicError
		if errors.As(rerr, &pe) {
			return nil, &InternalError{Err: rerr, Stack: pe.Stack, Stats: statsAt()}
		}
		if errors.Is(rerr, context.Canceled) || errors.Is(rerr, context.DeadlineExceeded) {
			return nil, &CanceledError{Err: rerr, Stats: statsAt()}
		}
		return nil, fmt.Errorf("execute: %w", rerr)
	}
	bound0 := time.Now()
	bound, berr := prep.Resolver.Bind(scope)
	if berr != nil {
		return nil, fmt.Errorf("materialize: %w", berr)
	}
	res = &Result{Bound: bound, Plan: prep.Prog, Struct: prep.Struct, Type: prep.Type, Traces: traces}
	if materialize {
		res.Set = bound.Materialize()
	}
	// Per-query attribution: the ctx's private tracker counted exactly the
	// touches this query made against the (possibly shared) pool. The old
	// before/after delta on the pool's aggregate counter would interleave
	// concurrent sessions' faults into each other's stats.
	res.Stats = statsAt()
	res.Stats.Materialize = res.Stats.Elapsed - bound0.Sub(start)
	for i := range traces {
		res.Stats.AccelBuilds += traces[i].AccelBuilds
		res.Stats.AccelBuildNs += traces[i].AccelBuildNs
	}
	return res, nil
}
