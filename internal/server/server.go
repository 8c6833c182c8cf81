// Package server turns the single-session engine into a concurrent query
// service: many sessions execute simultaneously over one shared, read-only
// base Env. The paper's Monet executes each session's MIL sequentially over
// a shared BAT kernel (Section 2); this layer is the reproduction's step
// from "one fast query" to "a system under load":
//
//   - sessions share base BATs and their accelerators — hash-index
//     construction is singleflight in the kernel (bat.accelSlot), so
//     concurrent probes that need the same missing index coalesce onto one
//     build, and a datavector probe builds nothing;
//   - a prepared-plan cache parses/checks/translates each distinct MOA
//     source once and executes it many times (preparation is pure);
//   - admission control gates query start on a global memory budget fed by
//     the engine's intermediate-result accounting, shedding load with a
//     typed OverloadedError instead of running the process out of memory;
//   - a bounded slot pool caps simultaneously executing queries, so a
//     burst queues instead of oversubscribing the morsel workers.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/epoch"
	"repro/internal/mil"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/storage/heapfile"
)

// Config tunes a Service.
type Config struct {
	// Workers is the per-query parallel iteration degree handed to each
	// session (0 = sequential execution per query; concurrency then comes
	// from running many sessions at once — the sensible default when
	// sessions ≥ cores).
	Workers int
	// MaxConcurrent caps simultaneously executing queries; excess callers
	// queue. 0 picks GOMAXPROCS.
	MaxConcurrent int
	// MemBudgetBytes is the admission controller's global live-intermediate
	// budget: a query is shed with an OverloadedError while the gauge is at
	// or above it. 0 disables shedding.
	MemBudgetBytes int64
	// MaxPlans caps the prepared-plan cache (0 = 256 entries).
	MaxPlans int
	// QueryTimeout, when > 0, bounds every query's wall clock as a context
	// deadline, unless the caller's own context expires sooner. An expired
	// query stops within one morsel and surfaces as *engine.CanceledError
	// wrapping context.DeadlineExceeded (HTTP 504).
	QueryTimeout time.Duration
	// SlowQuery, when > 0, arms the slow-query log: every query runs with
	// per-statement profiling enabled (the opt-in dispatch-stat cost), and
	// any successful query at or above this wall-clock threshold emits its
	// full Profile as one JSONL record to SlowQueryLog. 0 disables.
	SlowQuery time.Duration
	// SlowQueryLog is the slow-query sink; nil with SlowQuery armed falls
	// back to os.Stderr.
	SlowQueryLog io.Writer
	// Pprof exposes net/http/pprof under /debug/pprof/ on the service
	// handler. Off by default: the profiler endpoints cost nothing until
	// scraped but should not be reachable on an open port unasked.
	Pprof bool
}

// Service is a concurrent query service over one shared database.
type Service struct {
	db    *engine.Database
	cfg   Config
	gauge *mil.MemGauge
	plans *planCache
	slots chan struct{}
	// store, when attached, is the durable single-writer ingest path; nil
	// serves the pre-PR-7 read-only regime.
	store *epoch.Store
	// PrepareIngest, when set, rewrites an incoming ingest body into the
	// store's payload format before validation — moaserve installs a
	// translator that expands {"generate":N,"seed":S} directives into
	// concrete refresh batches, so clients don't have to ship full batch
	// JSON over the wire. nil passes bodies through.
	PrepareIngest func([]byte) ([]byte, error)

	queries  atomic.Int64 // completed successfully
	errors   atomic.Int64 // failed (parse/check/translate/execute)
	shed     atomic.Int64 // refused by admission control
	canceled atomic.Int64 // stopped by client disconnect
	timeouts atomic.Int64 // stopped by deadline expiry
	panics   atomic.Int64 // contained panics (plan quarantined)
	ingests  atomic.Int64 // successful ingest publications
	inflight atomic.Int64

	// Service latency histograms (lock-free log₂ buckets, /metrics). The
	// latency histogram observes exactly the queries counted in `queries`,
	// so its _count conserves against moaserve_queries_total; the wait
	// histograms observe every request that passed the respective phase.
	histLatency obs.Hist
	histSlot    obs.Hist
	histAdmit   obs.Hist
	// histResult observes the result phase of every answer the HTTP front
	// end serves: binding the structure function, rendering and encoding.
	histResult obs.Hist
	// histIngest observes exactly the ingests counted in `ingests`, end to
	// end (validate, WAL, apply, publish, any checkpoint).
	histIngest obs.Hist

	// accelBuildNs accumulates the build wall time attributed to completed
	// queries (the count companion is the kernel-global bat.AccelBuilds).
	accelBuildNs atomic.Int64

	slowLog io.Writer
	slowMu  sync.Mutex
}

// New creates a service over db. The service adds no paging of its own:
// what the OS pages is sampled into the *_real metrics, and a simulated
// pool exists only if the caller attached one to db (sessions inherit
// db.Pager, so each query's Stats.Faults then comes from its own tracker).
func New(db *engine.Database, cfg Config) *Service {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxPlans <= 0 {
		cfg.MaxPlans = 256
	}
	s := &Service{
		db:    db,
		cfg:   cfg,
		gauge: &mil.MemGauge{},
		slots: make(chan struct{}, cfg.MaxConcurrent),
	}
	if cfg.SlowQuery > 0 {
		s.slowLog = cfg.SlowQueryLog
		if s.slowLog == nil {
			s.slowLog = os.Stderr
		}
	}
	s.plans = newPlanCache(cfg.MaxPlans, db.Prepare)
	return s
}

// AttachStore makes the service writable: queries pin epochs from the
// store's chain (Database.Epochs), Ingest publishes new ones, retired
// epochs' owned bytes flow through the service gauge (so admission control
// sees version memory alongside intermediates), and the plan cache becomes
// epoch-keyed. Call before serving; the ingest path itself is already
// single-writer.
func (s *Service) AttachStore(st *epoch.Store) {
	s.store = st
	s.db.Epochs = st.Manager()
	st.Manager().SetGauge(s.gauge)
	s.plans.epochOf = st.Manager().CurrentID
}

// ErrReadOnly is returned by Ingest when no store is attached.
var ErrReadOnly = errors.New("service is read-only: no epoch store attached")

// Ingest publishes one refresh batch as a new epoch: validated, WAL-logged
// and fsynced, applied copy-on-write, then swapped in atomically —
// in-flight queries keep their pinned snapshot, later queries see the new
// epoch. Returns the published epoch id. A validation failure is the
// caller's fault (the HTTP layer maps it to 400); anything else is a
// server-side defect.
func (s *Service) Ingest(payload []byte) (uint64, error) {
	if s.store == nil {
		return 0, ErrReadOnly
	}
	t0 := time.Now()
	ep, err := s.store.Ingest(payload)
	if err != nil {
		return 0, err
	}
	s.ingests.Add(1)
	s.histIngest.Observe(time.Since(t0))
	return ep.ID, nil
}

// OverloadedError is the admission controller's typed refusal: the service
// sheds the query while live intermediate memory is at or above the budget,
// instead of risking OOM. Clients should back off and retry; RetryAfter,
// when set, is the server's suggested wait.
type OverloadedError struct {
	Live       int64         // live intermediate bytes at refusal
	Budget     int64         // configured budget
	RetryAfter time.Duration // suggested client backoff (0 = client's choice)
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("server overloaded: %d live intermediate bytes >= %d budget", e.Live, e.Budget)
}

// ExecError marks a failure past preparation: the source parsed, checked
// and translated, so the fault lies in execution or materialization — a
// server-side defect, not a caller error (the HTTP layer maps it to 500,
// not 400).
type ExecError struct{ Err error }

func (e *ExecError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying execution error.
func (e *ExecError) Unwrap() error { return e.Err }

// QueryOpts selects the per-request observability extras of QueryProfiled.
type QueryOpts struct {
	// Profile asks for an assembled *Profile in the return.
	Profile bool
	// RequestID, when set, is echoed into the assembled profile and the
	// slow-query record (the HTTP layer passes the request's id).
	RequestID string
}

// Query admits, prepares (through the plan cache) and executes one MOA
// query on a fresh session over the shared database, under ctx's lifecycle,
// and materializes Result.Set: cancellation or deadline expiry — the
// caller's or the server default (Config.QueryTimeout) — stops the query
// within one morsel and surfaces as *engine.CanceledError. A contained
// panic surfaces as an ExecError wrapping *engine.InternalError, and the
// cached plan that produced it is quarantined (evicted) so a
// plan-correlated defect cannot keep recurring from the cache. nil ctx
// means no lifecycle.
func (s *Service) Query(ctx context.Context, src string) (*engine.Result, error) {
	res, _, err := s.QueryProfiled(ctx, src, QueryOpts{})
	if err != nil {
		return nil, err
	}
	res.Set = res.Bound.Materialize()
	return res, nil
}

// QueryProfiled is Query plus the observability path, and leaves the answer
// bound (Result.Bound), not materialized: every query's phase wall times
// feed the service histograms (always-on, a handful of time.Now() calls),
// and a structured Profile is assembled when the caller asks (opts.Profile)
// or the slow-query log is armed. The returned Profile is nil otherwise,
// and on every error path.
func (s *Service) QueryProfiled(ctx context.Context, src string, opts QueryOpts) (*engine.Result, *Profile, error) {
	res, ph, err := s.execute(ctx, src, opts)
	if err != nil {
		return nil, nil, err
	}
	return res, s.finish(ph, opts, src, res), nil
}

// execute runs one query through slot, admission, plan cache and engine,
// timing each phase on one chain of timestamps.
func (s *Service) execute(ctx context.Context, src string, opts QueryOpts) (*engine.Result, *phases, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if d := s.cfg.QueryTimeout; d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	ph := &phases{start: time.Now()}
	ph.last = ph.start

	// A bounded slot pool: a burst beyond MaxConcurrent queues here
	// instead of oversubscribing the CPU with competing morsel workers. A
	// caller whose context dies while queued leaves without ever holding a
	// slot — queued cancellations cannot wedge the pool.
	select {
	case s.slots <- struct{}{}:
	case <-ctx.Done():
		return nil, nil, s.refuseCtx(ctx.Err())
	}
	defer func() { <-s.slots }()
	ph.slotWait = ph.mark()
	s.histSlot.Observe(ph.slotWait)

	// Admission: gate query start on the global memory budget. The gauge
	// is fed by every running query's Account/Release deltas, so shedding
	// reacts to actual intermediate pressure, not a static session count.
	if b := s.cfg.MemBudgetBytes; b > 0 {
		if live := s.gauge.Live(); live >= b {
			s.shed.Add(1)
			return nil, nil, &OverloadedError{Live: live, Budget: b, RetryAfter: time.Second}
		}
	}
	ph.admitWait = ph.mark()
	s.histAdmit.Observe(ph.admitWait)

	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	prep, hit, err := s.plans.lookup(src)
	ph.planWait, ph.planHit = ph.mark(), hit
	if err != nil {
		s.errors.Add(1)
		return nil, nil, err
	}
	sess := s.db.NewSession()
	sess.Workers = s.cfg.Workers
	sess.Gauge = s.gauge
	res, err := sess.Execute(ctx, prep)
	if err != nil {
		var ce *engine.CanceledError
		var ie *engine.InternalError
		var ue *mil.UserError
		switch {
		case errors.As(err, &ce):
			// Clean unwind, not a server defect: count by cause, pass the
			// typed error through untouched (HTTP 499/504).
			s.countCtx(ce.Err)
			return nil, nil, err
		case errors.As(err, &ie):
			// Contained panic. Quarantine the cached plan: if the defect
			// correlates with this plan (a translator bug, a poisoned
			// cache entry), the next request re-prepares from source
			// instead of replaying the bad preparation forever.
			s.panics.Add(1)
			s.errors.Add(1)
			s.plans.invalidate(src)
			return nil, nil, &ExecError{Err: err}
		case errors.As(err, &ue):
			// The program asked for something the algebra cannot do: the
			// caller's fault, not the server's (HTTP 400, not 500).
			s.errors.Add(1)
			return nil, nil, err
		}
		s.errors.Add(1)
		return nil, nil, &ExecError{Err: err}
	}
	ph.execWait = ph.mark() - res.Stats.Materialize
	ph.matWait = res.Stats.Materialize
	s.queries.Add(1)
	// The latency histogram observes exactly the successful queries, right
	// where they are counted: Σ buckets == moaserve_queries_total holds at
	// every scrape (both adds happen-before the response; a scrape between
	// them can read count ahead by in-flight completions, never behind).
	s.histLatency.Observe(ph.last.Sub(ph.start))
	s.accelBuildNs.Add(res.Stats.AccelBuildNs)
	return res, ph, nil
}

// finish closes a successful query's phase chain and assembles its Profile
// when the caller asked for one, or when the slow-query log is armed and
// the query reached its threshold (then logged, and returned only if
// asked).
func (s *Service) finish(ph *phases, opts QueryOpts, src string, res *engine.Result) *Profile {
	total := ph.last.Sub(ph.start)
	slow := s.cfg.SlowQuery > 0 && total >= s.cfg.SlowQuery
	if !opts.Profile && !slow {
		return nil
	}
	prof := ph.assemble(opts.RequestID, src, res)
	if slow {
		s.logSlowQuery(prof)
	}
	if !opts.Profile {
		return nil
	}
	return prof
}

// refuseCtx types a context death observed before execution started (while
// queued for a slot) as the same *engine.CanceledError execution produces,
// so callers see one cancellation shape regardless of where the signal won.
func (s *Service) refuseCtx(cause error) error {
	s.countCtx(cause)
	return &engine.CanceledError{Err: fmt.Errorf("queued for execution slot: %w", cause)}
}

func (s *Service) countCtx(cause error) {
	if errors.Is(cause, context.DeadlineExceeded) {
		s.timeouts.Add(1)
	} else {
		s.canceled.Add(1)
	}
}

// Gauge exposes the service's live-intermediate gauge (metrics, tests,
// external reservations).
func (s *Service) Gauge() *mil.MemGauge { return s.gauge }

// Metrics is a point-in-time snapshot of the service counters.
type Metrics struct {
	Queries             int64   // successfully completed queries
	Errors              int64   // failed queries
	Shed                int64   // admission-control refusals
	Canceled            int64   // queries stopped by client disconnect
	Timeouts            int64   // queries stopped by deadline expiry
	Panics              int64   // contained panics (each quarantined its plan)
	Inflight            int64   // currently executing
	PlanHits            int64   // plan-cache hits
	PlanMisses          int64   // plan-cache misses (actual prepares)
	PlanEvictions       int64   // plan-cache evictions, all reasons
	PlanEvictLRU        int64   // …evicted for capacity
	PlanEvictQuarantine int64   // …quarantined after a contained panic
	PlanEvictEpoch      int64   // …invalidated by an epoch swap
	LiveBytes           int64   // current live intermediate bytes
	Ingests             int64   // successful ingest publications
	EpochCurrent        uint64  // current epoch id (0 when read-only)
	EpochsPinned        int64   // epochs alive: current + retired-but-pinned
	WALBytes            int64   // bytes in the current WAL segment
	WALSyncs            int64   // fsync batches the WAL issued (group-commit leaders)
	WALGroupCommits     int64   // ingests whose durability rode another ingest's fsync
	Recoveries          int64   // 1 if this process recovered durable state at start
	RecoverySeconds     float64 // wall time of that recovery (0 when fresh)
	CheckpointFailures  int64   // ingest-time checkpoints that failed (the WAL keeps growing)
	CheckpointWritten   int64   // checkpoint part bytes written into packs (heapfile.CommittedBytes)
	CheckpointLinked    int64   // checkpoint part bytes borrowed by linking an earlier pack

	// What the operating system actually paged, sampled from
	// mincore/getrusage over the registered file mappings (the *_real
	// metrics). All zero (and RealProbed/RealRusage false) when serving
	// from anonymous memory or on platforms without the syscalls.
	RealMappedBytes   int64  // bytes of column data currently mmap'd
	RealResidentBytes int64  // … of which the OS holds in RAM
	RealMajorFaults   uint64 // process major faults (disk reads), cumulative
	RealMinorFaults   uint64 // process minor faults, cumulative
	RealProbed        bool   // mincore sampling ran
	RealRusage        bool   // fault counters are real getrusage values
}

// Snapshot reads the service counters. It also samples real residency (a
// mincore over every mapped heap, plus getrusage): call it per scrape, not
// per request.
func (s *Service) Snapshot() Metrics {
	hits, misses, evictions := s.plans.stats()
	lru, quarantine, epochEv := s.plans.evictionReasons()
	m := Metrics{
		Queries:             s.queries.Load(),
		Errors:              s.errors.Load(),
		Shed:                s.shed.Load(),
		Canceled:            s.canceled.Load(),
		Timeouts:            s.timeouts.Load(),
		Panics:              s.panics.Load(),
		Inflight:            s.inflight.Load(),
		PlanHits:            hits,
		PlanMisses:          misses,
		PlanEvictions:       evictions,
		PlanEvictLRU:        lru,
		PlanEvictQuarantine: quarantine,
		PlanEvictEpoch:      epochEv,
		LiveBytes:           s.gauge.Live(),
	}
	if st := s.store; st != nil {
		m.Ingests = s.ingests.Load()
		m.EpochCurrent = st.Manager().CurrentID()
		m.EpochsPinned = st.Manager().Alive()
		m.WALBytes = st.WALBytes()
		m.WALSyncs = st.WALSyncs()
		m.WALGroupCommits = st.WALGroupCommits()
		m.Recoveries = st.Recoveries()
		m.RecoverySeconds = st.RecoveryTime().Seconds()
		m.CheckpointFailures = st.CheckpointFailures()
		m.CheckpointWritten, m.CheckpointLinked = heapfile.CommittedBytes()
	}
	rs := storage.SampleResidency()
	m.RealMappedBytes = rs.MappedBytes
	m.RealResidentBytes = rs.ResidentBytes
	m.RealMajorFaults = rs.MajorFaults
	m.RealMinorFaults = rs.MinorFaults
	m.RealProbed = rs.Probed
	m.RealRusage = rs.RusageOK
	return m
}
