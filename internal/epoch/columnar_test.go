package epoch

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bat"
	"repro/internal/mil"
	"repro/internal/storage/heapfile"
)

// Columnar codec for the crash suite: the same one-BAT int environment as
// the replay codec, but checkpointed as a heap-file directory and
// recovered by MAPPING — the out-of-core path internal/tpcd uses, minus
// the schema. Mapped test stores are never explicitly closed; views into
// them live inside abandoned envs (that is the point of a crash test) and
// the mappings are torn down with the test process.

func crashSaveEnv(tmpDir, _ string, env mil.Env) error {
	b := env["data"]
	vals := make([]int64, b.Len())
	for i := range vals {
		vals[i] = b.TailValue(i).I
	}
	w, err := heapfile.NewWriter(tmpDir, nil)
	if err != nil {
		return err
	}
	if err := w.Put("data.tail", heapfile.BytesOf(vals)); err != nil {
		return err
	}
	return w.Commit()
}

func crashLoadEnv(dir string) (mil.Env, error) {
	s, err := heapfile.Open(dir, heapfile.Options{})
	if err != nil {
		return nil, err
	}
	m := s.Mapping("data.tail")
	if m == nil {
		s.Close()
		return nil, os.ErrNotExist
	}
	vals := heapfile.View[int64](m)
	col := bat.NewMappedCol(vals, m)
	b := bat.New("data", bat.NewVoid(0, len(vals)), col, 0)
	return mil.Env{"data": b}, nil
}

func columnarCrashOptions(dir string, hooks *Hooks) Options {
	opts := crashOptions(dir, hooks)
	opts.SaveEnv = crashSaveEnv
	opts.LoadEnv = crashLoadEnv
	return opts
}

// TestColumnarBootstrapAndMap verifies the out-of-core open contract
// directly: a fresh columnar store immediately serves file-backed columns
// (the genesis bootstrap checkpoint), a reopen after checkpointed ingests
// maps snap-<epoch>.d instead of replaying, and a vandalized heap file
// degrades to genesis-plus-replay with identical logical content.
func TestColumnarBootstrapAndMap(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(columnarCrashOptions(dir, nil))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if !heapfile.IsHeapDir(filepath.Join(dir, snapDirName(0))) {
		t.Fatal("fresh columnar open did not write the genesis checkpoint snap-0.d")
	}
	want0 := fingerprint(crashGenesis())
	if got := fingerprint(st.Manager().Current().Env); got != want0 {
		t.Fatalf("bootstrap env diverged from genesis:\nwant %q\ngot  %q", want0, got)
	}

	// SnapshotEvery=3: epochs 1..4 leave a checkpoint at 3 plus one WAL
	// record, so recovery exercises map + tail replay together.
	for i := int64(0); i < 4; i++ {
		if _, err := st.Ingest(encodeInts([]int64{i, i * 10})); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}
	want := fingerprint(st.Manager().Current().Env)
	st.Close()
	if !heapfile.IsHeapDir(filepath.Join(dir, snapDirName(3))) {
		t.Fatal("checkpoint snap-3.d missing")
	}

	re, err := Open(columnarCrashOptions(dir, nil))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if id := re.Manager().CurrentID(); id != 4 {
		t.Fatalf("recovered epoch %d, want 4", id)
	}
	if got := fingerprint(re.Manager().Current().Env); got != want {
		t.Fatalf("mapped recovery diverged:\nwant %q\ngot  %q", want, got)
	}
	re.Close()

	// Vandalize the newest checkpoint's column file: LoadEnv must refuse it
	// (CRC) and recovery must fall back to replay — same logical content.
	heapPath := filepath.Join(dir, snapDirName(3), "data.tail.heap")
	data, err := os.ReadFile(heapPath)
	if err != nil {
		t.Fatalf("read heap file: %v", err)
	}
	data[0] ^= 0xFF
	if err := os.WriteFile(heapPath, data, 0o644); err != nil {
		t.Fatalf("corrupt heap file: %v", err)
	}
	re2, err := Open(columnarCrashOptions(dir, nil))
	if err != nil {
		t.Fatalf("reopen after corruption: %v", err)
	}
	defer re2.Close()
	if got := fingerprint(re2.Manager().Current().Env); got != want {
		t.Fatalf("replay fallback diverged:\nwant %q\ngot  %q", want, got)
	}
}
