package engine

import (
	"context"
	"strings"
	"testing"

	"repro/internal/tpcd"
)

// TestQ01GroupsByDirectIndex: Q01 groups on the return flag and the line
// status, dedups (group id, flag) pairs and aggregates over the group ids —
// keys of a few values each — so its 2 groups, 2 uniques and 8 aggregates
// must all take their direct-index variant, statement-at-a-time and fused,
// sequential and parallel. A silent fallback to hashing fails here.
func TestQ01GroupsByDirectIndex(t *testing.T) {
	gen := tpcd.Generate(0.005, 7)
	env, _ := tpcd.Load(gen)
	db := New(tpcd.Schema(), env)
	q01 := tpcd.Queries(gen)[0]
	for _, pipeline := range []int{-1, 0} {
		for _, workers := range []int{1, 4} {
			db.Pipeline, db.Workers = pipeline, workers
			res, err := db.NewSession().Query(context.Background(), q01.MOA)
			if err != nil {
				t.Fatalf("pipeline=%d/w%d: %v", pipeline, workers, err)
			}
			counts := map[string]int{}
			for _, tr := range res.Traces {
				_, rhs, _ := strings.Cut(tr.Text, ":= ")
				var class, want string
				switch {
				case strings.HasPrefix(rhs, "group("):
					class, want = "group", "dense-group"
				case strings.HasSuffix(rhs, ".unique"):
					class, want = "unique", "dense-unique"
				case strings.HasPrefix(rhs, "{"):
					class, want = "aggr", "dense-aggr"
				default:
					continue
				}
				counts[class]++
				if strings.HasPrefix(tr.Algo, "pipeline/") {
					counts["fused"]++
				}
				if tr.Algo != want && tr.Algo != "pipeline/"+want {
					t.Errorf("pipeline=%d/w%d: %s ran %q, want %s", pipeline, workers, tr.Text, tr.Algo, want)
				}
			}
			if counts["group"] != 2 || counts["unique"] != 2 || counts["aggr"] != 8 {
				t.Errorf("pipeline=%d/w%d: %v statements, want 2 groups, 2 uniques, 8 aggregates", pipeline, workers, counts)
			}
			if fused := counts["fused"] > 0; fused != (pipeline >= 0) {
				t.Errorf("pipeline=%d/w%d: %d aggregates ran fused", pipeline, workers, counts["fused"])
			}
		}
	}
}
