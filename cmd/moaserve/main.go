// Command moaserve is the concurrent query service: it loads a generated
// TPC-D database and serves MOA queries over HTTP from many concurrent
// sessions sharing one read-only BAT environment (singleflight accelerator
// builds, prepared-plan cache, memory-budget admission control — see
// internal/server).
//
//	moaserve -addr :8080 -sf 0.005 -membudget-mb 256
//
// endpoints: POST /query (MOA source in the body, ?q=, ?trace=1,
// ?noresult=1, ?profile=1 for the structured per-statement profile),
// POST /ingest, GET /metrics (counters + latency histograms), GET /healthz,
// and /debug/pprof/ with -pprof. -slow-query DUR emits a JSONL profile to
// stderr for every query at or above DUR. SIGINT/SIGTERM drain in-flight
// queries and exit cleanly.
//
// Writes: the server always carries an epoch chain — POST /ingest publishes
// a TPC-D refresh batch (or a {"generate":N,"seed":S} directive) as a new
// immutable epoch while in-flight queries keep their pinned snapshot. With
// -data DIR, every ingest is WAL-logged and fsynced before it becomes
// visible, the BATs are checkpointed as heap files every -snapshot-every
// ingests, and a restart recovers exactly the last published epoch from the
// newest valid checkpoint plus the WAL past it (torn WAL tails are
// truncated, not fatal). There is one storage regime: a fresh directory
// serves genesis from memory until its first checkpoint, and a restart
// serves the checkpoint's columns straight from their memory-mapped heap
// files, so the OS virtual memory is the buffer manager.
//
// Load is driven from outside: the repo benchmark (go run -C bench .) and
// scripts/server_smoke.sh.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/epoch"
	"repro/internal/server"
	"repro/internal/tpcd"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	sf := flag.Float64("sf", 0.005, "TPC-D scale factor")
	seed := flag.Int64("seed", 42, "generator seed")
	workers := flag.Int("workers", 1, "per-query parallel iteration degree (1 = concurrency from sessions alone)")
	maxconc := flag.Int("maxconc", 0, "max concurrently executing queries (0 = GOMAXPROCS)")
	membudget := flag.Int64("membudget-mb", 256, "admission control: live intermediate budget in MB (0 = unlimited)")
	maxplans := flag.Int("maxplans", 0, "prepared-plan cache capacity (0 = default)")
	queryTimeout := flag.Duration("query-timeout", 0, "server default per-query deadline (0 = none; ?timeout= can tighten it per request)")
	slowQuery := flag.Duration("slow-query", 0, "emit a JSONL profile to stderr for every query at or above this wall clock (0 = off)")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")

	dataDir := flag.String("data", "", "durable data directory for WAL + snapshots (empty = epochs in memory only, nothing survives restart)")
	snapEvery := flag.Int("snapshot-every", 8, "checkpoint a snapshot and rotate the WAL every N ingests (0 = never)")
	flag.Parse()

	svc, st := newService(tpcd.DurableConfig{
		Dir: *dataDir, SF: *sf, Seed: *seed, SnapshotEvery: *snapEvery,
	}, server.Config{
		Workers:        *workers,
		MaxConcurrent:  *maxconc,
		MemBudgetBytes: *membudget << 20,
		MaxPlans:       *maxplans,
		QueryTimeout:   *queryTimeout,
		SlowQuery:      *slowQuery,
		Pprof:          *pprofOn,
	})
	srv := &http.Server{Addr: *addr, Handler: svc.Handler()}

	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "moaserve: serving sf=%g on %s (workers=%d maxconc=%d membudget=%dMB data=%q epoch=%d recovered=%d)\n",
		*sf, *addr, *workers, *maxconc, *membudget, *dataDir, st.Manager().CurrentID(), st.Recoveries())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-done:
		fmt.Fprintf(os.Stderr, "moaserve: server stopped: %v\n", err)
		os.Exit(1)
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "moaserve: %v: draining\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "moaserve: shutdown: %v\n", err)
			os.Exit(1)
		}
		st.Close()
		m := svc.Snapshot()
		fmt.Fprintf(os.Stderr, "moaserve: clean shutdown: queries=%d errors=%d shed=%d plan_hits=%d plan_misses=%d ingests=%d epoch=%d\n",
			m.Queries, m.Errors, m.Shed, m.PlanHits, m.PlanMisses, m.Ingests, m.EpochCurrent)
	}
}

// newService opens the durable epoch store (loading the newest checkpoint
// in -data and replaying the WAL past it) and builds the writable service
// over it: queries pin epochs and /ingest publishes new ones. No simulated
// pager is attached — as in Monet, the OS virtual memory is the buffer
// manager, and /metrics reports what it did (the *_real series).
//
// The reference population that validates and generates refresh batches
// is lazy: a restart that loads a checkpoint never generates it, so a
// read-only restarted server's anonymous footprint stays near the page tables
// and the heap files themselves can exceed the memory budget. The first
// /ingest pays the generation cost once.
func newService(dc tpcd.DurableConfig, cfg server.Config) (*server.Service, *epoch.Store) {
	st, gen, err := tpcd.OpenStoreLazy(dc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "moaserve: open store: %v\n", err)
		os.Exit(1)
	}
	svc := server.New(engine.New(tpcd.Schema(), st.Manager().Current().Env), cfg)
	svc.AttachStore(st)
	svc.PrepareIngest = prepareIngest(gen)
	return svc, st
}

// ingestDirective is the compact /ingest request moaserve accepts in place
// of a full refresh batch: generate N orders from the deterministic refresh
// generator with the given seed.
type ingestDirective struct {
	Generate int   `json:"generate"`
	Seed     int64 `json:"seed"`
}

// prepareIngest translates {"generate":N,"seed":S} directives into concrete
// refresh batches; anything else (a full batch JSON) passes through for the
// store's own validation. The generator database materialises on the first
// directive, not at server start.
func prepareIngest(gen func() *tpcd.DB) func([]byte) ([]byte, error) {
	return func(body []byte) ([]byte, error) {
		var d ingestDirective
		if err := json.Unmarshal(body, &d); err == nil && d.Generate > 0 {
			return tpcd.EncodeRefresh(tpcd.GenRefresh(gen(), d.Seed, d.Generate))
		}
		return body, nil
	}
}
