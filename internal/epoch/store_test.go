package epoch

import (
	"os"
	"slices"
	"testing"
)

// walEpochs lists the epochs of the records a directory's WAL holds,
// previous segment first.
func walEpochs(t *testing.T, dir string) []uint64 {
	t.Helper()
	recs, err := readPrevWAL(dir, []byte(crashMeta))
	if err != nil {
		t.Fatalf("read wal.prev: %v", err)
	}
	data, err := os.ReadFile(walPath(dir))
	if err != nil {
		t.Fatalf("read wal: %v", err)
	}
	hdr, err := checkWALHeader(data, []byte(crashMeta))
	if err != nil {
		t.Fatalf("wal header: %v", err)
	}
	cur, _ := replayWAL(data[hdr:])
	var epochs []uint64
	for _, r := range append(recs, cur...) {
		epochs = append(epochs, r.Epoch)
	}
	return epochs
}

// TestHistoryOnlyWhenDurable: the only payload history is a durable
// store's WAL. An in-memory store keeps none; a durable store without
// checkpoints keeps every record; a checkpointing one keeps exactly the
// records past the older of its two retained checkpoints (wal.prev plus
// the current segment). No store writes a checkpoint at open, and each
// ingest-time checkpoint is one observation in the checkpoint histogram,
// none failed.
func TestHistoryOnlyWhenDurable(t *testing.T) {
	const n = 100
	durable := crashOptions(t.TempDir(), nil)
	durable.SnapshotEvery = 0
	for _, tc := range []struct {
		name        string
		opts        Options
		first       uint64 // first epoch the WAL holds (0: no WAL)
		checkpoints uint64
		retained    []uint64
	}{
		{"in-memory", Options{Genesis: crashGenesis, Validate: crashValidate, Apply: crashApply}, 0, 0, nil},
		{"durable", durable, 1, 0, nil},
		{"durable-checkpointed", crashOptions(t.TempDir(), nil), 97, n / 3, []uint64{99, 96}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := Open(tc.opts)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer st.Close()
			dir := tc.opts.Dir
			if dir != "" {
				if snaps, _ := listSnapshots(dir); len(snaps) != 0 {
					t.Fatalf("open wrote checkpoints %v", snaps)
				}
			}
			for i := 0; i < n; i++ {
				if _, err := st.Ingest(encodeInts([]int64{int64(i)})); err != nil {
					t.Fatalf("ingest %d: %v", i, err)
				}
			}
			if got := st.CheckpointHist().Count; got != tc.checkpoints {
				t.Errorf("checkpoint histogram count %d, want %d", got, tc.checkpoints)
			}
			if got := st.CheckpointFailures(); got != 0 {
				t.Errorf("checkpoint failures %d, want 0", got)
			}
			if dir == "" {
				if st.WALBytes() != 0 {
					t.Errorf("in-memory store reports %d WAL bytes", st.WALBytes())
				}
				return
			}
			var want []uint64
			for e := tc.first; e <= n; e++ {
				want = append(want, e)
			}
			if got := walEpochs(t, dir); !slices.Equal(got, want) {
				t.Errorf("WAL holds epochs %v, want %d..%d", got, tc.first, n)
			}
			if snaps, _ := listSnapshots(dir); !slices.Equal(snaps, tc.retained) {
				t.Errorf("retained checkpoints %v, want %v", snaps, tc.retained)
			}
		})
	}
}
