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
// no LOOKUP memos), then warm. The table was captured at commit 80ba5c1,
// when every gather still touched the pool one row at a time; batching the
// accounting must not move a single count. Worker count changes nothing
// (same pages, same touches), so the table is keyed by strategy only.
var fig9TouchGolden = map[string][2][15]touchCount{
	"pipeline": {
		{{316, 302104}, {30, 35954}, {127, 19972}, {158, 11095}, {45, 24441}, {0, 31550}, {0, 194034}, {39, 2225}, {42, 112680}, {19, 27093}, {1, 24525}, {62, 109355}, {10, 24328}, {1, 29562}, {2, 30824}},
		{{0, 302420}, {0, 35984}, {0, 20099}, {0, 11253}, {0, 24486}, {0, 31550}, {0, 194034}, {0, 2264}, {0, 112722}, {0, 27112}, {0, 24526}, {0, 109417}, {0, 24338}, {0, 29563}, {0, 30826}},
	},
	"materialized": {
		{{316, 302104}, {30, 35955}, {127, 19972}, {158, 11095}, {45, 24441}, {0, 31550}, {0, 194034}, {39, 2225}, {42, 112680}, {19, 27093}, {1, 24525}, {62, 109355}, {10, 24328}, {1, 29562}, {0, 30826}},
		{{0, 302420}, {0, 35985}, {0, 20099}, {0, 11253}, {0, 24486}, {0, 31550}, {0, 194034}, {0, 2264}, {0, 112722}, {0, 27112}, {0, 24526}, {0, 109417}, {0, 24338}, {0, 29563}, {0, 30826}},
	},
}

// TestFig9TouchCountsGolden pins the paper's observable across the batch
// accounting: faults and hits per Figure-9 query equal the per-row
// protocol's, cold and warm, sequential and parallel, fused and fully
// materialized.
func TestFig9TouchCountsGolden(t *testing.T) {
	gen := tpcd.Generate(0.005, 7)
	queries := tpcd.Queries(gen)
	for _, strategy := range []struct {
		name     string
		pipeline int
	}{{"pipeline", 0}, {"materialized", -1}} {
		for _, workers := range []int{1, 4} {
			env, _ := tpcd.Load(gen)
			db := New(tpcd.Schema(), env)
			db.Pager = storage.NewPager(4096, 0)
			db.Workers = workers
			db.Pipeline = strategy.pipeline

			var got [2][15]touchCount
			for pass := range got {
				for i, q := range queries {
					res, err := db.NewSession().Query(context.Background(), q.MOA)
					if err != nil {
						t.Fatalf("%s/w%d Q%d: %v", strategy.name, workers, q.Num, err)
					}
					got[pass][i] = touchCount{res.Stats.Faults, res.Stats.Hits}
				}
			}
			if want := fig9TouchGolden[strategy.name]; got != want {
				t.Errorf("%s/w%d: touch counts moved; got\n%s", strategy.name, workers, renderGolden(got))
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
}

// renderGolden prints a captured table as the Go literal of one
// fig9TouchGolden entry.
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
