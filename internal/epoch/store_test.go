package epoch

import "testing"

// TestHistoryOnlyWhenDurable: the batch history feeds checkpoints, which
// only a durable store writes, so an in-memory store must not keep its
// payloads — it would grow without bound — while a durable one without
// checkpoints keeps every one. Checkpoints land in the checkpoint
// histogram, one observation each.
func TestHistoryOnlyWhenDurable(t *testing.T) {
	const n = 100
	for _, tc := range []struct {
		name        string
		opts        Options
		history     int
		checkpoints uint64
	}{
		{"in-memory", Options{Genesis: crashGenesis(), Validate: crashValidate, Apply: crashApply}, 0, 0},
		{"durable", Options{Dir: t.TempDir(), Meta: []byte(crashMeta), Genesis: crashGenesis(),
			Validate: crashValidate, Apply: crashApply}, n, 0},
		{"durable-checkpointed", crashOptions(t.TempDir(), nil), n, n / 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := Open(tc.opts)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer st.Close()
			for i := 0; i < n; i++ {
				if _, err := st.Ingest(encodeInts([]int64{int64(i)})); err != nil {
					t.Fatalf("ingest %d: %v", i, err)
				}
			}
			if got := len(st.history); got != tc.history {
				t.Errorf("history holds %d payloads after %d ingests, want %d", got, n, tc.history)
			}
			if got := st.CheckpointHist().Count; got != tc.checkpoints {
				t.Errorf("checkpoint histogram count %d, want %d", got, tc.checkpoints)
			}
		})
	}
}
