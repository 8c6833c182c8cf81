package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/tpcd"
)

// touchCount is one query's (faults, hits) against an unbounded pool.
type touchCount struct{ faults, hits uint64 }

// fig9TouchGolden holds the per-query touch accounting of the 15 Figure-9
// queries at SF 0.005 (seed 7) on an unbounded 4 KB-page pool, run in query
// order over a freshly loaded env: first cold (empty pool, no accelerators,
// no LOOKUP memos), then warm. The faults were captured when every gather
// still touched the pool one row at a time; batching the accounting must not
// move a single count. The hits were re-pinned when plans became
// mil.Optimize'd: computing a repeated statement once drops its re-reads
// (cold Q01 302,104 → 181,232 hits) and no fault. Worker count changes
// nothing (same pages, same touches).
var fig9TouchGolden = [2][15]touchCount{
	{{316, 181232}, {30, 17973}, {127, 19972}, {158, 11095}, {45, 24441}, {0, 31550}, {0, 105402}, {39, 2201}, {42, 112680}, {19, 27093}, {1, 12344}, {62, 107906}, {10, 24328}, {1, 15426}, {0, 15414}},
	{{0, 181548}, {0, 18003}, {0, 20099}, {0, 11253}, {0, 24486}, {0, 31550}, {0, 105402}, {0, 2240}, {0, 112722}, {0, 27112}, {0, 12345}, {0, 107968}, {0, 24338}, {0, 15427}, {0, 15414}},
}

// TestFig9TouchCountsGolden pins the paper's observable across the batch
// accounting: faults and hits per Figure-9 query equal the per-row
// protocol's, cold and warm, sequential and parallel.
func TestFig9TouchCountsGolden(t *testing.T) {
	gen := tpcd.Generate(0.005, 7)
	queries := tpcd.Queries(gen)
	for _, workers := range []int{1, 4} {
		env, _ := tpcd.Load(gen)
		db := New(tpcd.Schema(), env)
		db.Pager = storage.NewPager(4096, 0)
		db.Workers = workers

		var got [2][15]touchCount
		for pass := range got {
			for i, q := range queries {
				res, err := db.NewSession().Query(context.Background(), q.MOA)
				if err != nil {
					t.Fatalf("w%d Q%d: %v", workers, q.Num, err)
				}
				got[pass][i] = touchCount{res.Stats.Faults, res.Stats.Hits}
			}
		}
		if want := fig9TouchGolden; got != want {
			t.Errorf("w%d: touch counts moved; got\n%s", workers, renderGolden(got))
			for pass := range got {
				for i := range got[pass] {
					if got[pass][i] != want[pass][i] {
						t.Errorf("  pass %d Q%d: got %v, want %v", pass, i+1, got[pass][i], want[pass][i])
					}
				}
			}
		}
	}
}

// renderGolden prints a captured table as the Go literal of
// fig9TouchGolden.
func renderGolden(g [2][15]touchCount) string {
	var sb strings.Builder
	for _, pass := range g {
		sb.WriteString("{")
		for i, c := range pass {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "{%d, %d}", c.faults, c.hits)
		}
		sb.WriteString("},\n")
	}
	return sb.String()
}
