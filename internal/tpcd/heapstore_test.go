package tpcd

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/bat"
	"repro/internal/epoch"
	"repro/internal/mil"
	"repro/internal/storage"
	"repro/internal/storage/heapfile"
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

// partFile returns the path of the file holding part name in checkpoint
// dir, as its manifest says.
func partFile(t *testing.T, dir, name string) string {
	t.Helper()
	man, err := heapfile.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	fi, ok := man.Lookup(name)
	if !ok || fi.File == "" {
		t.Fatalf("%s: no file holds part %s", dir, name)
	}
	return filepath.Join(dir, fi.File)
}

// TestCheckpointBorrowsUnchangedColumns asserts checkpoint copy-on-write
// at the checkpointer level (the store prunes old snapshots, which drops
// the observable link count back to one): a second checkpoint over an env
// whose BAT pointers are unchanged hard-links the pack holding them from
// the first, while a replaced BAT — same bytes, new pointer — is rewritten
// fresh into the second checkpoint's own pack.
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

	stable, err := os.Stat(partFile(t, dirB, "Region_name.tail"))
	if err != nil {
		t.Fatalf("stat stable column: %v", err)
	}
	if n := linkCount(stable); n < 2 {
		if n == -1 {
			t.Skip("hard-link counts not observable on this platform")
		}
		t.Fatalf("unchanged Region_name was rewritten (links=%d), want borrowed", n)
	}
	rebuilt, err := os.Stat(partFile(t, dirB, "Order_cust.tail"))
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

// TestCheckpointPackLayout pins what a TPC-D checkpoint leaves on disk.
// Over a store checkpointing every 2nd ingest, each checkpoint directory
// creates exactly two files — its pack and its manifest — and links the
// rest from the checkpoint before it; it holds at most three files beside
// MANIFEST.json; every part starts at a multiple of the page size; and the
// bytes the checkpoint wrote plus those it linked add up to its manifest's
// part bytes.
func TestCheckpointPackLayout(t *testing.T) {
	dir := t.TempDir()
	st, db, err := OpenStore(DurableConfig{Dir: dir, SF: testSF, Seed: testSeed, SnapshotEvery: 2})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer st.Close()
	var prev string
	for i := 0; i < 8; i++ {
		w0, l0 := heapfile.CommittedBytes()
		ingestBatches(t, db, 1, st)
		w1, l1 := heapfile.CommittedBytes()
		if (i+1)%2 != 0 {
			if w1 != w0 || l1 != l0 {
				t.Fatalf("ingest %d wrote no checkpoint but moved the byte counters", i+1)
			}
			continue
		}
		snap := filepath.Join(dir, fmt.Sprintf("snap-%016d.d", i+1))
		man, err := heapfile.ReadManifest(snap)
		if err != nil {
			t.Fatalf("checkpoint %d: %v", i+1, err)
		}
		var parts int64
		for _, fi := range man.Files {
			parts += fi.Bytes
		}
		if (w1-w0)+(l1-l0) != parts {
			t.Fatalf("checkpoint %d: written %d + linked %d != the manifest's %d part bytes", i+1, w1-w0, l1-l0, parts)
		}
		if linked := l1 - l0; (prev == "") != (linked == 0) {
			t.Fatalf("checkpoint %d linked %d bytes; want none for the first, some for every later one", i+1, linked)
		}
		for _, fi := range man.Files {
			if fi.Off%int64(os.Getpagesize()) != 0 {
				t.Fatalf("checkpoint %d: part %s at offset %d, not page-aligned", i+1, fi.Name, fi.Off)
			}
		}
		entries, err := os.ReadDir(snap)
		if err != nil {
			t.Fatal(err)
		}
		var created, others []string
		for _, e := range entries {
			if e.Name() != "MANIFEST.json" {
				others = append(others, e.Name())
			}
			if prev != "" {
				a, errA := os.Stat(filepath.Join(snap, e.Name()))
				b, errB := os.Stat(filepath.Join(prev, e.Name()))
				if errA == nil && errB == nil && os.SameFile(a, b) {
					continue
				}
			}
			created = append(created, e.Name())
		}
		if len(created) != 2 {
			t.Fatalf("checkpoint %d created %v, want its pack and MANIFEST.json", i+1, created)
		}
		if len(others) > 3 {
			t.Fatalf("checkpoint %d holds %v beside MANIFEST.json, want at most 3 files", i+1, others)
		}
		prev = snap
	}
}
