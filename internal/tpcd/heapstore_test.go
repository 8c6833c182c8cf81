package tpcd

import (
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/bat"
	"repro/internal/epoch"
	"repro/internal/mil"
	"repro/internal/storage"
)

// envFingerprint renders every BAT in an env, sorted by name — the full
// logical content a mapped restart must agree on.
func envFingerprint(t *testing.T, env mil.Env) string {
	t.Helper()
	names := make([]string, 0, len(env))
	for n := range env {
		names = append(names, n)
	}
	sort.Strings(names)
	out := ""
	for _, n := range names {
		out += n + "=" + batFingerprint(env[n]) + "\n"
	}
	return out
}

// ingestBatches generates n refresh batches of 8 orders from db and
// ingests each into every store, in order.
func ingestBatches(t *testing.T, db *DB, n int, stores ...*epoch.Store) {
	t.Helper()
	for i := 0; i < n; i++ {
		p, err := EncodeRefresh(GenRefresh(db, int64(i+1), 8))
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

// TestOpenStoreMmapParity: a store restarted on its one checkpoint serves
// the checkpoint's mapped columns, and they must be bit-identical to an
// in-memory store at the same epoch — mapping is invisible to results.
func TestOpenStoreMmapParity(t *testing.T) {
	// The subtest keeps its name from when a read-into-memory regime was a
	// configurable alternative: this is the mapped (no fallback) restart.
	t.Run("fallback=false", func(t *testing.T) {
		mem, _, err := OpenStore(DurableConfig{SF: testSF, Seed: testSeed})
		if err != nil {
			t.Fatalf("open in-memory: %v", err)
		}
		defer mem.Close()
		cfg := DurableConfig{Dir: t.TempDir(), SF: testSF, Seed: testSeed, SnapshotEvery: 1}
		st, db, err := OpenStore(cfg)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		ingestBatches(t, db, 1, st, mem)
		st.Close()

		re, _, err := OpenStore(cfg)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer re.Close()
		if id := re.Manager().CurrentID(); id != 1 {
			t.Fatalf("recovered epoch %d, want 1", id)
		}
		if got, want := envFingerprint(t, re.Manager().Current().Env), envFingerprint(t, mem.Manager().Current().Env); got != want {
			t.Fatal("mapped checkpoint diverged from the in-memory store at the same epoch")
		}
	})
}

// TestOpenStoreMmapRecovery is TestOpenStoreRecovery checked bit for bit:
// ingest through checkpoints, reopen, and require the recovered env — now
// mapped from snap-<epoch>.d plus a WAL tail replay — to match both the
// pre-restart state and an in-memory store fed the same batches.
func TestOpenStoreMmapRecovery(t *testing.T) {
	cfg := DurableConfig{Dir: t.TempDir(), SF: testSF, Seed: testSeed, SnapshotEvery: 2}
	st, db, err := OpenStore(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	mem, _, err := OpenStore(DurableConfig{SF: testSF, Seed: testSeed})
	if err != nil {
		t.Fatalf("open in-memory: %v", err)
	}
	defer mem.Close()
	const ingests = 3 // checkpoint at 2, WAL tail carries 3
	ingestBatches(t, db, ingests, st, mem)
	wantOrders := len(db.Orders) + ingests*8
	want := envFingerprint(t, st.Manager().Current().Env)
	st.Close()

	rec, _, err := OpenStore(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer rec.Close()
	if id := rec.Manager().CurrentID(); id != ingests {
		t.Fatalf("recovered epoch %d, want %d", id, ingests)
	}
	if n := rec.Manager().Current().Env["Order"].Len(); n != wantOrders {
		t.Fatalf("recovered Order extent holds %d orders, want %d", n, wantOrders)
	}
	got := envFingerprint(t, rec.Manager().Current().Env)
	if got != want {
		t.Fatal("mapped recovery diverged from pre-restart state")
	}
	if got != envFingerprint(t, mem.Manager().Current().Env) {
		t.Fatal("mapped recovery diverged from the in-memory store fed the same batches")
	}
}

// TestCheckpointBorrowsUnchangedColumns asserts checkpoint copy-on-write
// at the checkpointer level (the store prunes old snapshots, which drops
// the observable link count back to one): a second checkpoint over an env
// whose BAT pointers are unchanged hard-links every file from the first,
// while a replaced BAT — same bytes, new pointer — is rewritten fresh.
func TestCheckpointBorrowsUnchangedColumns(t *testing.T) {
	db := Generate(testSF, testSeed)
	env, _ := Load(db)

	root := t.TempDir()
	dirA := filepath.Join(root, "a")
	dirB := filepath.Join(root, "b")
	hc := &heapCheckpointer{}
	if err := hc.save(dirA, dirA, env); err != nil {
		t.Fatalf("first checkpoint: %v", err)
	}

	// New epoch: Order_cust rebuilt (fresh pointer), everything else reused.
	env2 := mil.Env{}
	for n, b := range env {
		env2[n] = b
	}
	oc := env["Order_cust"]
	fresh := bat.BAT{Name: oc.Name, H: oc.H, T: oc.T, Props: oc.Props}
	env2["Order_cust"] = &fresh
	if err := hc.save(dirB, dirB, env2); err != nil {
		t.Fatalf("second checkpoint: %v", err)
	}

	stable, err := os.Stat(filepath.Join(dirB, "Region_name.tail.heap"))
	if err != nil {
		t.Fatalf("stat stable column: %v", err)
	}
	if n := linkCount(stable); n < 2 {
		if n == -1 {
			t.Skip("hard-link counts not observable on this platform")
		}
		t.Fatalf("unchanged Region_name was rewritten (links=%d), want borrowed", n)
	}
	rebuilt, err := os.Stat(filepath.Join(dirB, "Order_cust.tail.heap"))
	if err != nil {
		t.Fatalf("stat rebuilt column: %v", err)
	}
	if n := linkCount(rebuilt); n > 1 {
		t.Fatalf("rebuilt Order_cust shares inodes (%d links) — CoW over-sharing", n)
	}
}

// TestMmapResidencyObservable: a store restarted on a checkpoint maps it,
// and the process-wide residency registry must see the mappings until the
// store closes.
func TestMmapResidencyObservable(t *testing.T) {
	cfg := DurableConfig{Dir: t.TempDir(), SF: testSF, Seed: testSeed, SnapshotEvery: 1}
	st, db, err := OpenStore(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	ingestBatches(t, db, 1, st)
	st.Close()

	before := storage.SampleResidency()
	st, _, err = OpenStore(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	during := storage.SampleResidency()
	if during.MappedBytes <= before.MappedBytes {
		t.Fatalf("mapped bytes did not grow: %d -> %d", before.MappedBytes, during.MappedBytes)
	}
	st.Close()
	after := storage.SampleResidency()
	if after.MappedBytes != before.MappedBytes {
		t.Fatalf("store close did not release mappings: %d -> %d", before.MappedBytes, after.MappedBytes)
	}
}
