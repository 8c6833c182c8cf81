package tpcd

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/bat"
	"repro/internal/mil"
	"repro/internal/storage"
)

// envFingerprint renders every BAT in an env, sorted by name — the full
// logical content the storage modes must agree on.
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

// TestOpenStoreMmapParity opens the same genesis under sim and mmap (and
// the portable fallback) and requires the served envs to be bit-identical
// — the out-of-core storage engine must be invisible to query results.
func TestOpenStoreMmapParity(t *testing.T) {
	sim, _, err := OpenStore(DurableConfig{SF: testSF, Seed: testSeed, Storage: StorageSim})
	if err != nil {
		t.Fatalf("open sim: %v", err)
	}
	defer sim.Close()
	want := envFingerprint(t, sim.Manager().Current().Env)

	for _, fallback := range []bool{false, true} {
		t.Run(fmt.Sprintf("fallback=%v", fallback), func(t *testing.T) {
			st, _, err := OpenStore(DurableConfig{
				Dir: t.TempDir(), SF: testSF, Seed: testSeed,
				Storage: StorageMmap, MapFallback: fallback,
			})
			if err != nil {
				t.Fatalf("open mmap: %v", err)
			}
			defer st.Close()
			if got := envFingerprint(t, st.Manager().Current().Env); got != want {
				t.Fatal("mmap-served env diverged from sim-served env")
			}
		})
	}
}

// TestOpenStoreMmapRecovery is TestOpenStoreRecovery on the out-of-core
// path: ingest through checkpoints, reopen, and require the recovered env
// — now mapped from snap-<epoch>.d plus a WAL tail replay — to match both
// the pre-restart state and a sim store opened over the same directory
// (which reads the same checkpoint into memory).
func TestOpenStoreMmapRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := DurableConfig{Dir: dir, SF: testSF, Seed: testSeed, SnapshotEvery: 2, Storage: StorageMmap}

	st, db, err := OpenStore(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	const ingests = 3 // checkpoint at 2, WAL tail carries 3
	for i := 0; i < ingests; i++ {
		b := GenRefresh(db, int64(i+1), 8)
		p, err := EncodeRefresh(b)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		if _, err := st.Ingest(p); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}
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
	if got := envFingerprint(t, rec.Manager().Current().Env); got != want {
		t.Fatal("mapped recovery diverged from pre-restart state")
	}

	// Cross-mode: a sim store over the same WAL must serve the same bits.
	simCfg := cfg
	simCfg.Dir = dir
	simCfg.Storage = StorageSim
	sim, _, err := OpenStore(simCfg)
	if err != nil {
		t.Fatalf("open sim over mmap dir: %v", err)
	}
	defer sim.Close()
	if got := envFingerprint(t, sim.Manager().Current().Env); got != want {
		t.Fatal("sim recovery over the same directory diverged from mmap recovery")
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

// TestMmapResidencyObservable: in mmap mode the process-wide residency
// registry must see the mapped checkpoint.
func TestMmapResidencyObservable(t *testing.T) {
	before := storage.SampleResidency()
	st, _, err := OpenStore(DurableConfig{
		Dir: t.TempDir(), SF: testSF, Seed: testSeed, Storage: StorageMmap,
	})
	if err != nil {
		t.Fatalf("open: %v", err)
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
