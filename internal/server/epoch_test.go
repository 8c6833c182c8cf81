package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bat"
	"repro/internal/engine"
	"repro/internal/epoch"
	"repro/internal/mil"
	"repro/internal/moa"
	"repro/internal/tpcd"
)

// writableService builds a service over an epoch store (in-memory unless
// dir is set): the PR-7 serving mode, where queries pin epochs and /ingest
// publishes new ones.
func writableService(t *testing.T, cfg Config, dir string) (*Service, *epoch.Store, *tpcd.DB) {
	t.Helper()
	st, gen, err := tpcd.OpenStore(tpcd.DurableConfig{Dir: dir, SF: 0.002, Seed: 7, SnapshotEvery: 4})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	db := engine.New(tpcd.Schema(), st.Manager().Current().Env)
	svc := New(db, cfg)
	svc.AttachStore(st)
	return svc, st, gen
}

// countOrders runs count(Order) through the full query path and returns the
// scalar.
func countOrders(t *testing.T, svc *Service) int64 {
	t.Helper()
	res, err := svc.Query(context.Background(), "count(Order)")
	if err != nil {
		t.Fatalf("count(Order): %v", err)
	}
	if len(res.Set.Elems) != 1 {
		t.Fatalf("count(Order) returned %d elems, want 1", len(res.Set.Elems))
	}
	return res.Set.Elems[0].V.(bat.Value).I
}

// ingestOrders publishes one generated refresh batch and returns the epoch.
func ingestOrders(t *testing.T, svc *Service, gen *tpcd.DB, seed int64, n int) uint64 {
	t.Helper()
	p, err := tpcd.EncodeRefresh(tpcd.GenRefresh(gen, seed, n))
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	id, err := svc.Ingest(p)
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	return id
}

func TestIngestVisibility(t *testing.T) {
	svc, st, gen := writableService(t, Config{MaxConcurrent: 4}, "")
	base := countOrders(t, svc)
	if base != 3000 {
		t.Fatalf("genesis count(Order) = %d, want 3000 at sf 0.002 seed 7", base)
	}
	if id := ingestOrders(t, svc, gen, 11, 10); id != 1 {
		t.Fatalf("first ingest published epoch %d, want 1", id)
	}
	if got := countOrders(t, svc); got != base+10 {
		t.Fatalf("count(Order) after ingest = %d, want %d", got, base+10)
	}
	m := svc.Snapshot()
	if m.Ingests != 1 || m.EpochCurrent != 1 {
		t.Fatalf("metrics ingests=%d epoch=%d, want 1/1", m.Ingests, m.EpochCurrent)
	}
	if st.Manager().Pins() != 0 {
		t.Fatalf("pins = %d after queries returned, want 0", st.Manager().Pins())
	}
}

func TestReadOnlyServiceRefusesIngest(t *testing.T) {
	svc, _ := testService(t, Config{})
	if _, err := svc.Ingest([]byte(`{}`)); err != ErrReadOnly {
		t.Fatalf("ingest on read-only service: %v, want ErrReadOnly", err)
	}
}

// TestSnapshotIsolationDuringIngest races readers against the writer: every
// count(Order) must equal one of the published epoch counts exactly —
// 3000 + 5k — never a value in between (which would mean a query observed a
// half-swapped env).
func TestSnapshotIsolationDuringIngest(t *testing.T) {
	svc, st, gen := writableService(t, Config{MaxConcurrent: 8}, "")
	const (
		readers = 8
		ingests = 6
		perWave = 5
	)
	valid := make(map[int64]bool, ingests+1)
	for k := 0; k <= ingests; k++ {
		valid[3000+int64(k*perWave)] = true
	}

	stop := make(chan struct{})
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := svc.Query(context.Background(), "count(Order)")
				if err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
				if got := res.Set.Elems[0].V.(bat.Value).I; !valid[got] {
					select {
					case errs <- fmt.Errorf("count(Order) = %d is not any epoch's count", got):
					default:
					}
					return
				}
			}
		}()
	}
	for i := 0; i < ingests; i++ {
		ingestOrders(t, svc, gen, int64(20+i), perWave)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if got := countOrders(t, svc); got != 3000+ingests*perWave {
		t.Fatalf("final count = %d, want %d", got, 3000+ingests*perWave)
	}
	if p := st.Manager().Pins(); p != 0 {
		t.Errorf("pins at quiesce = %d, want 0", p)
	}
	if a := st.Manager().Alive(); a != 1 {
		t.Errorf("alive epochs at quiesce = %d, want 1", a)
	}
}

// TestPinnedReadersDuringInPlaceGrowth: readers pinned on one epoch read
// attribute values through its datavectors — a sum over
// Item_extendedprice, a string projection over Item_shipmode — while later
// ingests grow that epoch's vectors in place. Every answer must equal the
// one computed before the ingests; under -race the run also shows that the
// appends write no byte a reader of the pinned epoch reads.
func TestPinnedReadersDuringInPlaceGrowth(t *testing.T) {
	svc, st, gen := writableService(t, Config{MaxConcurrent: 8}, "")
	// Genesis vectors have no spare capacity; after one ingest they do.
	ingestOrders(t, svc, gen, 30, 5)
	ep := st.Manager().Acquire()
	defer ep.Release()
	db := engine.New(tpcd.Schema(), ep.Env)
	queries := []string{
		"sum(project[extendedprice](Item))",
		`project[shipmode](select[<(shipdate, date("1992-02-01"))](Item))`,
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		res, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want[i] = moa.RenderVal(res.Set)
	}

	const readers = 4
	stop := make(chan struct{})
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[i%len(queries)]
				res, err := db.Query(q)
				if err == nil && moa.RenderVal(res.Set) != want[i%len(queries)] {
					err = fmt.Errorf("%s: the pinned epoch's answer changed", q)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}
	for i := 0; i < 6; i++ {
		ingestOrders(t, svc, gen, int64(40+i), 5)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	for _, name := range []string{"Item_extendedprice", "Item_shipmode"} {
		pinned := ep.Env[name].Datavector().Vector
		cur := st.Manager().Current().Env[name].Datavector().Vector
		if !bat.SameColumn(bat.SliceView(cur, 0, pinned.Len()), pinned) {
			t.Errorf("%s: the ingests did not grow the pinned epoch's vector in place", name)
		}
	}
}

// TestPlanCacheEpochInvalidation: a cached plan prepared against epoch k
// must be re-prepared after a swap — and the eviction must be attributed to
// the epoch reason, not LRU or quarantine.
func TestPlanCacheEpochInvalidation(t *testing.T) {
	svc, _, gen := writableService(t, Config{MaxConcurrent: 4}, "")
	countOrders(t, svc) // miss: prepare against epoch 0
	countOrders(t, svc) // hit
	m0 := svc.Snapshot()
	if m0.PlanHits < 1 {
		t.Fatalf("warm-up did not hit the plan cache: %+v", m0)
	}
	ingestOrders(t, svc, gen, 31, 10)
	if got := countOrders(t, svc); got != 3010 {
		t.Fatalf("post-swap count = %d, want 3010 (stale plan served?)", got)
	}
	m1 := svc.Snapshot()
	if m1.PlanEvictEpoch != m0.PlanEvictEpoch+1 {
		t.Fatalf("epoch evictions %d → %d, want +1", m0.PlanEvictEpoch, m1.PlanEvictEpoch)
	}
	if m1.PlanEvictLRU != m0.PlanEvictLRU || m1.PlanEvictQuarantine != m0.PlanEvictQuarantine {
		t.Fatalf("epoch swap moved the wrong eviction counters: %+v → %+v", m0, m1)
	}
}

// TestNoPinLeakOnAbort drives every abnormal query exit — pre-canceled
// context, deadline expiry mid-execution, contained panic — and checks no
// epoch pin survives. A leaked pin would hold retired epochs (and their
// owned bytes) forever.
func TestNoPinLeakOnAbort(t *testing.T) {
	svc, st, gen := writableService(t, Config{MaxConcurrent: 2}, "")
	ingestOrders(t, svc, gen, 41, 10) // make the chain non-trivial

	// Pre-canceled context.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.Query(ctx, "count(Order)"); err == nil {
		t.Fatal("query with canceled context succeeded")
	}

	// Deadline expiry mid-execution.
	tctx, tcancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer tcancel()
	if _, err := svc.Query(tctx, "count(Order)"); err == nil {
		t.Fatal("query with expired deadline succeeded")
	}

	// Contained panic mid-execution.
	var armed atomic.Bool
	armed.Store(true)
	mil.SetExecHook(func(i int, op string) {
		if armed.CompareAndSwap(true, false) {
			panic("injected kernel fault")
		}
	})
	defer mil.SetExecHook(nil)
	if _, err := svc.Query(context.Background(), "count(Order)"); err == nil {
		t.Fatal("query with injected panic succeeded")
	}

	if p := st.Manager().Pins(); p != 0 {
		t.Fatalf("pins after aborted queries = %d, want 0 (pin leak)", p)
	}
	// The service must still work, on the current epoch.
	if got := countOrders(t, svc); got != 3010 {
		t.Fatalf("count after aborts = %d, want 3010", got)
	}
}

// TestGaugeConservationAcrossSwap: after ingests and queries quiesce, the
// service gauge must hold exactly the current epoch's owned bytes — every
// retired epoch's memory left when its last pin dropped, and every query's
// intermediates drained on completion.
func TestGaugeConservationAcrossSwap(t *testing.T) {
	svc, st, gen := writableService(t, Config{MaxConcurrent: 4}, "")
	for i := 0; i < 3; i++ {
		ingestOrders(t, svc, gen, int64(50+i), 8)
		countOrders(t, svc)
	}
	cur := st.Manager().Current()
	if live := svc.Gauge().Live(); live != cur.Owned {
		t.Fatalf("gauge at quiesce = %d, want current epoch's owned %d", live, cur.Owned)
	}
	if a, p := st.Manager().Alive(), st.Manager().Pins(); a != 1 || p != 0 {
		t.Fatalf("alive=%d pins=%d at quiesce, want 1/0", a, p)
	}
	// Each query result carries the epoch it executed against.
	res, err := svc.Query(context.Background(), "count(Order)")
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Epoch != 3 {
		t.Fatalf("result stats epoch = %d, want 3", res.Stats.Epoch)
	}
}
