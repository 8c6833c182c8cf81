package engine

import (
	"runtime"
	"testing"

	"repro/internal/epoch"
	"repro/internal/moa"
	"repro/internal/storage"
	"repro/internal/tpcd"
)

const parityScale, paritySeed = 0.002, int64(7)

// ingestRefreshes generates n refresh batches from gen and ingests each
// into every store, in order.
func ingestRefreshes(t *testing.T, gen *tpcd.DB, n int, stores ...*epoch.Store) {
	t.Helper()
	for i := 0; i < n; i++ {
		p, err := tpcd.EncodeRefresh(tpcd.GenRefresh(gen, int64(i+1), 10))
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		for _, st := range stores {
			if _, err := st.Ingest(p); err != nil {
				t.Fatalf("ingest %d: %v", i, err)
			}
		}
	}
}

// fig9Answers runs the Figure-9 mix over st's current epoch and returns
// each query's rendered answer, with the pool and per-query fault and hit
// totals of the simulated pager attached to the run.
func fig9Answers(t *testing.T, st *epoch.Store, gen *tpcd.DB) (answers map[int]string, pool, sum [2]uint64) {
	t.Helper()
	db := New(tpcd.Schema(), st.Manager().Current().Env)
	db.Pager = storage.NewPager(4096, 0)
	answers = make(map[int]string)
	for _, q := range tpcd.Queries(gen) {
		res, err := db.Query(q.MOA)
		if err != nil {
			t.Fatalf("Q%d: %v", q.Num, err)
		}
		answers[q.Num] = moa.RenderVal(res.Set)
		sum[0] += res.Stats.Faults
		sum[1] += res.Stats.Hits
	}
	return answers, [2]uint64{db.Pager.Faults(), db.Pager.Hits()}, sum
}

func sameAnswers(t *testing.T, got, want map[int]string, what string) {
	t.Helper()
	for q, w := range want {
		if got[q] != w {
			t.Fatalf("Q%d diverges from %s:\ngot:  %s\nwant: %s", q, what, trunc(got[q]), trunc(w))
		}
	}
}

// Out-of-core invisibility: the full Figure-9 query mix must produce
// bit-identical results whether the columns were built in memory or are
// served from a restarted store's mapped checkpoint — and the simulated
// fault model must conserve attribution (pool totals == per-query sums) on
// the mapped path exactly as it does in memory.
func TestStorageModeParityTPCD(t *testing.T) {
	t.Run("mmap", func(t *testing.T) {
		mem, gen, err := tpcd.OpenStore(tpcd.DurableConfig{SF: parityScale, Seed: paritySeed})
		if err != nil {
			t.Fatalf("open in-memory store: %v", err)
		}
		defer mem.Close()
		cfg := tpcd.DurableConfig{Dir: t.TempDir(), SF: parityScale, Seed: paritySeed, SnapshotEvery: 1}
		st, sgen, err := tpcd.OpenStore(cfg)
		if err != nil {
			t.Fatalf("open store: %v", err)
		}
		ingestRefreshes(t, sgen, 1, st, mem)
		st.Close()

		re, _, err := tpcd.OpenStore(cfg)
		if err != nil {
			t.Fatalf("reopen store: %v", err)
		}
		defer re.Close()
		if id, memID := re.Manager().CurrentID(), mem.Manager().CurrentID(); id != memID {
			t.Fatalf("restarted store at epoch %d, in-memory store at %d", id, memID)
		}
		want, _, _ := fig9Answers(t, mem, gen)
		got, pool, sum := fig9Answers(t, re, sgen)
		sameAnswers(t, got, want, "the in-memory store")
		// Tracker conservation over mapped columns: every simulated fault/hit
		// attributed to exactly one query.
		if pool != sum {
			t.Errorf("pool faults/hits %v != sum of per-query faults/hits %v", pool, sum)
		}
		if sum[0] == 0 {
			t.Error("no simulated faults over mapped persistent columns — fault accounting lost")
		}
	})
}

// TestDurableRestartServesMapped: a durable store opened with nothing but
// its directory, scale, seed and checkpoint cadence, reopened after a
// checkpoint, serves its columns from mapped heap files and answers the
// Figure-9 mix exactly as it did before the restart.
func TestDurableRestartServesMapped(t *testing.T) {
	cfg := tpcd.DurableConfig{Dir: t.TempDir(), SF: parityScale, Seed: paritySeed, SnapshotEvery: 2}
	st, gen, err := tpcd.OpenStore(cfg)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	ingestRefreshes(t, gen, 2, st)
	want, _, _ := fig9Answers(t, st, gen)
	st.Close()

	before := storage.SampleResidency()
	re, _, err := tpcd.OpenStore(cfg)
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	defer re.Close()
	during := storage.SampleResidency()
	if during.MappedBytes <= before.MappedBytes {
		t.Fatalf("restart mapped no columns: mapped bytes %d -> %d", before.MappedBytes, during.MappedBytes)
	}
	// mincore probes only real file mappings: a checkpoint read into
	// memory instead reports itself unprobed.
	if runtime.GOOS == "linux" && !during.Probed {
		t.Fatal("restart read its checkpoint into memory instead of mapping it")
	}
	got, _, _ := fig9Answers(t, re, gen)
	sameAnswers(t, got, want, "the answers before the restart")
}
