package epoch

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mil"
	"repro/internal/storage/heapfile"
)

// vandalize flips the first byte of a checkpoint's data.tail part, found
// at the file and offset its manifest names, so LoadEnv refuses it on the
// CRC check.
func vandalize(t *testing.T, dir string, epoch uint64) {
	t.Helper()
	snap := filepath.Join(dir, snapDirName(epoch))
	man, err := heapfile.ReadManifest(snap)
	if err != nil {
		t.Fatalf("read manifest: %v", err)
	}
	fi, ok := man.Lookup("data.tail")
	if !ok {
		t.Fatalf("%s lists no data.tail part", snap)
	}
	heapPath := filepath.Join(snap, fi.File)
	data, err := os.ReadFile(heapPath)
	if err != nil {
		t.Fatalf("read heap file: %v", err)
	}
	data[fi.Off] ^= 0xFF
	if err := os.WriteFile(heapPath, data, 0o644); err != nil {
		t.Fatalf("corrupt heap file: %v", err)
	}
}

// TestColumnarBootstrapAndMap verifies the open contract directly: a fresh
// store serves genesis without loading or writing a checkpoint, a reopen
// after checkpointed ingests loads the newest snap-<epoch>.d plus the WAL
// tail, and a vandalized newest checkpoint falls back to the previous one
// plus the longer WAL tail the rotation kept — same logical content.
func TestColumnarBootstrapAndMap(t *testing.T) {
	dir := t.TempDir()
	var loadedFrom string
	opts := crashOptions(dir, nil)
	opts.LoadEnv = func(d string) (mil.Env, error) {
		env, err := crashLoadEnv(d)
		if err == nil {
			loadedFrom = filepath.Base(d)
		}
		return env, err
	}
	st, err := Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if loadedFrom != "" {
		t.Fatalf("fresh open loaded %q, want genesis from memory", loadedFrom)
	}
	if got, want := fingerprint(st.Manager().Current().Env), fingerprint(crashGenesis()); got != want {
		t.Fatalf("fresh env diverged from genesis:\nwant %q\ngot  %q", want, got)
	}
	if st.Recoveries() != 0 || st.RecoveryTime() != 0 {
		t.Fatalf("fresh open reports recoveries=%d recovery time %v, want 0", st.Recoveries(), st.RecoveryTime())
	}

	// SnapshotEvery=3: epochs 1..7 leave checkpoints at 3 and 6 plus one
	// WAL record, so recovery exercises load + tail replay together.
	for i := int64(0); i < 7; i++ {
		if _, err := st.Ingest(encodeInts([]int64{i, i * 10})); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}
	want := fingerprint(st.Manager().Current().Env)
	st.Close()

	re, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if id := re.Manager().CurrentID(); id != 7 {
		t.Fatalf("recovered epoch %d, want 7", id)
	}
	if loadedFrom != snapDirName(6) {
		t.Fatalf("recovery loaded %q, want the newest checkpoint snap-6.d", loadedFrom)
	}
	if got := fingerprint(re.Manager().Current().Env); got != want {
		t.Fatalf("checkpoint recovery diverged:\nwant %q\ngot  %q", want, got)
	}
	if re.RecoveryTime() <= 0 {
		t.Fatalf("recovery time %v, want > 0", re.RecoveryTime())
	}
	re.Close()

	// Vandalize the newest checkpoint: LoadEnv must refuse it (CRC) and
	// recovery must fall back to snap-3.d plus records 4..7.
	vandalize(t, dir, 6)
	re2, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen after corruption: %v", err)
	}
	defer re2.Close()
	if loadedFrom != snapDirName(3) {
		t.Fatalf("fallback loaded %q, want the previous checkpoint snap-3.d", loadedFrom)
	}
	if got := fingerprint(re2.Manager().Current().Env); got != want {
		t.Fatalf("fallback recovery diverged:\nwant %q\ngot  %q", want, got)
	}
}

// TestBothCheckpointsDamagedRefused: once two rotations have dropped the
// records before the older retained checkpoint, damage to both retained
// checkpoints is unrecoverable. Open must say so, naming them — not fall
// back to genesis and silently drop the acknowledged epochs.
func TestBothCheckpointsDamagedRefused(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(crashOptions(dir, nil)) // SnapshotEvery = 3
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := int64(0); i < 7; i++ {
		if _, err := st.Ingest(encodeInts([]int64{i})); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}
	st.Close()
	if got, err := listSnapshots(dir); err != nil || len(got) != 2 || got[0] != 6 || got[1] != 3 {
		t.Fatalf("retained checkpoints %v (%v), want [6 3]", got, err)
	}
	vandalize(t, dir, 6)
	vandalize(t, dir, 3)
	_, err = Open(crashOptions(dir, nil))
	if err == nil {
		t.Fatal("open with both checkpoints damaged succeeded, want an error")
	}
	for _, name := range []string{snapDirName(6), snapDirName(3)} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error does not name %s: %v", name, err)
		}
	}
	if !heapfile.IsHeapDir(filepath.Join(dir, snapDirName(6))) {
		t.Error("a refused open removed the damaged checkpoint")
	}
}
