// Command moaserve is the concurrent query service front end: it loads a
// generated TPC-D database and serves MOA queries over HTTP from many
// concurrent sessions sharing one read-only BAT environment (singleflight
// accelerator builds, prepared-plan cache, memory-budget admission
// control — see internal/server).
//
// Serve mode (default):
//
//	moaserve -addr :8080 -sf 0.005 -membudget-mb 256
//
// endpoints: POST /query (MOA source in the body, ?q=, ?trace=1,
// ?noresult=1, ?profile=1 for the structured per-statement profile),
// GET /metrics (counters + latency histograms), GET /healthz, and
// /debug/pprof/ with -pprof. -slow-query DUR emits a JSONL profile to
// stderr for every query at or above DUR. SIGINT/SIGTERM drain in-flight
// queries and exit cleanly.
//
// Load-generator mode (-loadgen) drives a closed loop of clients against a
// running instance (or in process when -url is empty) with a Figure-9 query
// mix and prints QPS and latency percentiles:
//
//	moaserve -loadgen -url http://localhost:8080 -clients 8 -duration 10s
//
// Writes: the server always carries an epoch chain — POST /ingest publishes
// a TPC-D refresh batch (or a {"generate":N,"seed":S} directive) as a new
// immutable epoch while in-flight queries keep their pinned snapshot. With
// -data DIR, every ingest is WAL-logged and fsynced before it becomes
// visible, snapshots checkpoint every -snapshot-every ingests, and a
// restart recovers exactly the last published epoch (torn WAL tails are
// truncated, not fatal). -loadgen -write-mix 0.1 makes a tenth of the
// closed-loop operations ingests; -ingest runs a standalone refresh-stream
// driver:
//
//	moaserve -ingest -url http://localhost:8080 -ingest-batches 10
//	moaserve -ingest -data /var/lib/moa -ingest-batches 10   # no server
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/epoch"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/tpcd"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (serve mode)")
	sf := flag.Float64("sf", 0.005, "TPC-D scale factor")
	seed := flag.Int64("seed", 42, "generator seed")
	workers := flag.Int("workers", 1, "per-query parallel iteration degree (1 = concurrency from sessions alone)")
	maxconc := flag.Int("maxconc", 0, "max concurrently executing queries (0 = GOMAXPROCS)")
	membudget := flag.Int64("membudget-mb", 256, "admission control: live intermediate budget in MB (0 = unlimited)")
	maxplans := flag.Int("maxplans", 0, "prepared-plan cache capacity (0 = default)")
	pages := flag.Int("pages", 0, "shared buffer pool capacity in pages for fault accounting (0 = unbounded cold pool, <0 = disable the pager: hot-set regime)")
	pagesize := flag.Int64("pagesize", 0, "buffer pool page size in bytes (0 = 4096, the paper's B)")
	queryTimeout := flag.Duration("query-timeout", 0, "server default per-query deadline (0 = none; ?timeout= can tighten it per request)")
	thrashShed := flag.Float64("thrash-shed", 0, "shed queries while the windowed pager fault ratio meets this value (0 = disabled, e.g. 0.9)")
	faultEvery := flag.Uint64("fault-every", 0, "fault injection: panic on every Nth eligible pager touch (0 = off; chaos/testing only)")
	faultDelayEvery := flag.Uint64("fault-delay-every", 0, "fault injection: delay every Nth eligible pager touch (0 = off)")
	faultDelay := flag.Duration("fault-delay", time.Millisecond, "fault injection: length of an injected pager delay")
	slowQuery := flag.Duration("slow-query", 0, "emit a JSONL profile to stderr for every query at or above this wall clock (0 = off)")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (serve mode)")

	dataDir := flag.String("data", "", "durable data directory for WAL + snapshots (empty = epochs in memory only, nothing survives restart)")
	flag.StringVar(dataDir, "datadir", "", "alias for -data")
	snapEvery := flag.Int("snapshot-every", 8, "checkpoint a snapshot and rotate the WAL every N ingests (0 = never)")
	storageMode := flag.String("storage", tpcd.StorageSim, "column storage engine: sim = anonymous memory with simulated paging, mmap = serve base columns from mmap'd heap-file checkpoints in -data (requires -data)")
	mapFallback := flag.Bool("map-fallback", false, "mmap storage: read heap files into anonymous memory instead of mapping (portable fallback, also selected automatically where mmap is unsupported)")

	loadgen := flag.Bool("loadgen", false, "run the closed-loop load generator instead of serving")
	url := flag.String("url", "", "loadgen/ingest: target base URL (empty = drive the service in process)")
	clients := flag.Int("clients", 4, "loadgen: closed-loop client count")
	duration := flag.Duration("duration", 5*time.Second, "loadgen: run length")
	mix := flag.String("mix", "", "loadgen: comma-separated TPC-D query numbers (empty = all 15)")
	writeMix := flag.Float64("write-mix", 0, "loadgen: fraction of operations issued as ingests (0 = pure reads)")

	refresh := flag.Bool("ingest", false, "run the TPC-D refresh-stream driver instead of serving")
	refreshBatches := flag.Int("ingest-batches", 10, "ingest driver: number of refresh batches to publish")
	refreshOrders := flag.Int("ingest-orders", 50, "orders per refresh batch (ingest driver and loadgen write mix)")
	flag.Parse()

	cfg := serviceConfig(*workers, *maxconc, *membudget, *maxplans)
	cfg.QueryTimeout = *queryTimeout
	cfg.ThrashShedRatio = *thrashShed
	cfg.SlowQuery = *slowQuery
	cfg.Pprof = *pprofOn
	faults := storage.FaultPlan{FailEvery: *faultEvery, DelayEvery: *faultDelayEvery, Delay: *faultDelay}
	open := openConfig{sf: *sf, seed: *seed, dataDir: *dataDir, snapEvery: *snapEvery,
		pages: *pages, pagesize: *pagesize, faults: faults,
		storage: *storageMode, mapFallback: *mapFallback}

	if *refresh {
		os.Exit(runRefresh(*url, open, *refreshBatches, *refreshOrders))
	}
	if *loadgen {
		os.Exit(runLoadgen(*url, *clients, *duration, *mix, *writeMix, *refreshOrders, cfg, open))
	}

	svc, st, _ := newService(open, cfg)
	srv := &http.Server{Addr: *addr, Handler: svc.Handler()}

	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "moaserve: serving sf=%g on %s (workers=%d maxconc=%d membudget=%dMB pages=%d data=%q storage=%s epoch=%d recovered=%d)\n",
		*sf, *addr, *workers, *maxconc, *membudget, *pages, *dataDir, *storageMode, st.Manager().CurrentID(), st.Recoveries())

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

// openConfig bundles everything needed to open the database + epoch store.
type openConfig struct {
	sf          float64
	seed        int64
	dataDir     string
	snapEvery   int
	pages       int
	pagesize    int64
	faults      storage.FaultPlan
	storage     string // tpcd.StorageSim | tpcd.StorageMmap
	mapFallback bool
}

func serviceConfig(workers, maxconc int, membudgetMB int64, maxplans int) server.Config {
	return server.Config{
		Workers:        workers,
		MaxConcurrent:  maxconc,
		MemBudgetBytes: membudgetMB << 20,
		MaxPlans:       maxplans,
	}
}

// newService opens the durable epoch store (replaying any WAL/snapshot
// state in -data) and builds the writable service over it: queries pin
// epochs, /ingest publishes new ones, and the shared lock-striped buffer
// pool (unless pages < 0 disables fault accounting) plays the role of the
// OS page cache over Monet's memory-mapped BATs. A non-empty fault plan
// arms the pager's chaos injector (-fault-every etc.).
//
// The object-level generator database is lazy: a read-only restart over a
// mapped checkpoint never materialises it, so the server's anonymous
// footprint stays near the page tables and the heap files themselves can
// exceed the memory budget. The first /ingest (or any WAL replay) pays the
// generation cost once.
func newService(open openConfig, cfg server.Config) (*server.Service, *epoch.Store, func() *tpcd.DB) {
	st, gen, err := tpcd.OpenStoreLazy(tpcd.DurableConfig{
		Dir: open.dataDir, SF: open.sf, Seed: open.seed, SnapshotEvery: open.snapEvery,
		Storage: open.storage, MapFallback: open.mapFallback,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "moaserve: open store: %v\n", err)
		os.Exit(1)
	}
	db := engine.New(tpcd.Schema(), st.Manager().Current().Env)
	if open.pages >= 0 {
		db.Pager = storage.NewPager(open.pagesize, open.pages)
		if open.faults.FailEvery > 0 || open.faults.DelayEvery > 0 {
			db.Pager.SetFaultInjector(storage.NewFaultInjector(open.faults))
		}
	}
	svc := server.New(db, cfg)
	svc.AttachStore(st)
	svc.PrepareIngest = prepareIngest(gen)
	return svc, st, gen
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

// queryMix resolves -mix into MOA sources from the Figure-9 suite.
func queryMix(gen *tpcd.DB, mix string) []string {
	all := tpcd.Queries(gen)
	if mix == "" {
		out := make([]string, len(all))
		for i, q := range all {
			out[i] = q.MOA
		}
		return out
	}
	var out []string
	for _, part := range strings.Split(mix, ",") {
		num, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			fmt.Fprintf(os.Stderr, "moaserve: bad -mix entry %q: %v\n", part, err)
			os.Exit(2)
		}
		found := false
		for _, q := range all {
			if q.Num == num {
				out = append(out, q.MOA)
				found = true
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "moaserve: no TPC-D query %d\n", num)
			os.Exit(2)
		}
	}
	return out
}

func runLoadgen(url string, clients int, duration time.Duration, mix string, writeMix float64, orders int, cfg server.Config, open openConfig) int {
	// Each ingest gets a fresh generator seed, so the write mix publishes
	// distinct refresh batches.
	var seedCtr atomic.Int64
	seedCtr.Store(open.seed * 1_000_003)
	directive := func() []byte {
		b, _ := json.Marshal(ingestDirective{Generate: orders, Seed: seedCtr.Add(1)})
		return b
	}

	var do func(string) error
	var ing func() (uint64, error)
	var queries []string
	if url != "" {
		gen := tpcd.Generate(open.sf, open.seed) // query-mix text only; the server owns the data
		queries = queryMix(gen, mix)
		client := &http.Client{Timeout: 30 * time.Second}
		do = server.HTTPQueryFunc(url, client)
		ing = server.HTTPIngestFunc(url, client, directive)
	} else {
		svc, st, gen := newService(open, cfg)
		defer st.Close()
		queries = queryMix(gen(), mix)
		do = func(src string) error { _, err := svc.Query(context.Background(), src); return err }
		ing = func() (uint64, error) {
			payload, err := svc.PrepareIngest(directive())
			if err != nil {
				return 0, err
			}
			return svc.Ingest(payload)
		}
	}
	lc := server.LoadConfig{Clients: clients, Duration: duration, Queries: queries, WriteMix: writeMix}
	if writeMix > 0 {
		lc.Ingest = ing
	}
	rep := server.RunLoad(lc, do)
	fmt.Println(rep)
	if rep.Errors > 0 || rep.Queries == 0 {
		fmt.Fprintln(os.Stderr, "moaserve: load generation failed (errors or no completed queries)")
		return 1
	}
	if writeMix > 0 && rep.Ingests == 0 {
		fmt.Fprintln(os.Stderr, "moaserve: write mix requested but no ingest completed")
		return 1
	}
	return 0
}

// runRefresh is the standalone TPC-D refresh-stream driver: it publishes
// -ingest-batches refresh batches of -ingest-orders orders each, either
// through a running server's /ingest endpoint (-url) or directly against
// the local store (-data) with no server at all — the batch-mode update
// path. Batch seeds are deterministic from -seed, so reruns regenerate the
// same stream.
func runRefresh(url string, open openConfig, batches, orders int) int {
	seedBase := open.seed * 1_000_003
	if url != "" {
		client := &http.Client{Timeout: 60 * time.Second}
		for i := 0; i < batches; i++ {
			body, _ := json.Marshal(ingestDirective{Generate: orders, Seed: seedBase + int64(i) + 1})
			id, err := server.HTTPIngestFunc(url, client, func() []byte { return body })()
			if err != nil {
				fmt.Fprintf(os.Stderr, "moaserve: refresh batch %d: %v\n", i+1, err)
				return 1
			}
			fmt.Printf("refresh batch %d/%d: %d orders -> epoch %d\n", i+1, batches, orders, id)
		}
		return 0
	}
	st, gen, err := tpcd.OpenStore(tpcd.DurableConfig{
		Dir: open.dataDir, SF: open.sf, Seed: open.seed, SnapshotEvery: open.snapEvery,
		Storage: open.storage, MapFallback: open.mapFallback,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "moaserve: open store: %v\n", err)
		return 1
	}
	defer st.Close()
	fmt.Printf("store open: epoch %d (recovered=%d) orders=%d items=%d\n",
		st.Manager().CurrentID(), st.Recoveries(), len(gen.Orders), len(gen.Items))
	for i := 0; i < batches; i++ {
		payload, err := tpcd.EncodeRefresh(tpcd.GenRefresh(gen, seedBase+int64(i)+1, orders))
		if err != nil {
			fmt.Fprintf(os.Stderr, "moaserve: refresh batch %d: %v\n", i+1, err)
			return 1
		}
		ep, err := st.Ingest(payload)
		if err != nil {
			fmt.Fprintf(os.Stderr, "moaserve: refresh batch %d: %v\n", i+1, err)
			return 1
		}
		fmt.Printf("refresh batch %d/%d: %d orders -> epoch %d (wal %d bytes)\n",
			i+1, batches, orders, ep.ID, st.WALBytes())
	}
	return 0
}
