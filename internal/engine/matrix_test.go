package engine

import (
	"testing"

	"repro/internal/mil"
	"repro/internal/storage"
	"repro/internal/tpcd"
)

// TestQueryMatrix runs the whole TPC-D suite under every execution
// configuration the engine supports — sequential/parallel × unbounded/
// bounded buffer pool — and validates every
// result against the reference evaluator: the configurations must never
// change answers, only costs. Every query drains the memory gauge, and every
// fault and hit of the pool belongs to exactly one query. The parallel
// configurations run over SF 0.02: at SF 0.002 no operand reaches
// bat.ParallelMinRows, so they would validate parallel execution in name
// only; each must dispatch at least one statement.
func TestQueryMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix is slow")
	}
	gen, _ := testDB(t)
	env, _ := tpcd.Load(gen)
	bigGen := tpcd.Generate(0.02, 7)
	bigEnv, _ := tpcd.Load(bigGen)

	configs := []struct {
		name    string
		workers int
		pool    int
	}{
		{"sequential/unbounded", 1, 0},
		{"parallel8/unbounded", 8, 0},
		{"sequential/512pages", 1, 512},
		{"parallel8/64pages", 8, 64},
		{"parallel3/unbounded", 3, 0},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			gen, env := gen, env
			if cfg.workers > 1 {
				gen, env = bigGen, bigEnv
			}
			db := New(tpcd.Schema(), env)
			db.Pager = storage.NewPager(4096, cfg.pool)
			db.Workers = cfg.workers
			db.Gauge = &mil.MemGauge{}
			var faults, hits uint64
			dispatched := 0
			for _, q := range tpcd.Queries(gen) {
				res, err := db.Query(q.MOA)
				if err != nil {
					t.Fatalf("Q%d: %v", q.Num, err)
				}
				if live := db.Gauge.Live(); live != 0 {
					t.Fatalf("Q%d: gauge not drained: %d bytes live", q.Num, live)
				}
				faults += res.Stats.Faults
				hits += res.Stats.Hits
				for _, tr := range res.Traces {
					if len(tr.Sites) > 0 {
						dispatched++
					}
				}
				want, err := tpcd.Reference(gen, q.Num)
				if err != nil {
					t.Fatal(err)
				}
				if err := tpcd.CompareResults(res.Set, want, q.Ordered); err != nil {
					t.Fatalf("Q%d under %s: %v", q.Num, cfg.name, err)
				}
			}
			if db.Pager.Faults() != faults || db.Pager.Hits() != hits {
				t.Errorf("pool %d faults, %d hits; queries %d, %d", db.Pager.Faults(), db.Pager.Hits(), faults, hits)
			}
			if cfg.workers > 1 && dispatched == 0 {
				t.Errorf("%s: no statement dispatched", cfg.name)
			}
		})
	}
}

// TestParallelMatchesSequentialCosts: parallel execution changes wall-clock,
// never the fault accounting (the same pages are touched).
func TestParallelFaultAccountingUnchanged(t *testing.T) {
	gen, _ := testDB(t)
	env, _ := tpcd.Load(gen)
	q := tpcd.Queries(gen)[5] // Q6: big scan-selects

	faultsWith := func(workers int) uint64 {
		db := New(tpcd.Schema(), env)
		db.Pager = storage.NewPager(4096, 0)
		db.Workers = workers
		res, err := db.Query(q.MOA)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Faults
	}
	if seq, par := faultsWith(1), faultsWith(8); seq != par {
		t.Fatalf("fault accounting differs: sequential %d vs parallel %d", seq, par)
	}
}

// TestScaleInvariantShapes spot-checks that the qualitative Fig. 9 shape is
// scale-free: at two different scale factors, the Monet engine's fault
// advantage on a selective query (Q4) holds.
func TestScaleInvariantShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("generates extra databases")
	}
	for _, sf := range []float64{0.002, 0.008} {
		gen := tpcd.Generate(sf, 5)
		env, _ := tpcd.Load(gen)
		db := New(tpcd.Schema(), env)
		db.Pager = storage.NewPager(4096, 0)
		q := tpcd.Queries(gen)[3] // Q4, 4% selectivity
		res, err := db.Query(q.MOA)
		if err != nil {
			t.Fatal(err)
		}
		// the fault count must stay well under one full vertical scan of
		// the Item class (14 attribute BATs ≈ items*avg-width/4096)
		fullScan := uint64(len(gen.Items)) * 40 / 4096
		if res.Stats.Faults > fullScan*4 {
			t.Fatalf("SF %g: Q4 faults %d vs full-scan estimate %d — selectivity advantage lost",
				sf, res.Stats.Faults, fullScan)
		}
	}

}
