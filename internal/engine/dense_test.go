package engine

import (
	"context"
	"strings"
	"testing"

	"repro/internal/tpcd"
)

// TestQ01GroupsByDirectIndex: Q01 groups on the return flag and the line
// status — keys of a few values each — by direct index, and every statement
// after the grouping reads what the grouping published instead of grouping
// again: its 2 uniques gather the (group id, key) pairs at the extents, the
// key semijoin aliases its left operand (the key covers every group id), and
// its 8 aggregates fold by group id — sequential and parallel. A silent
// fallback to re-grouping fails here.
func TestQ01GroupsByDirectIndex(t *testing.T) {
	gen := tpcd.Generate(0.005, 7)
	env, _ := tpcd.Load(gen)
	db := New(tpcd.Schema(), env)
	q01 := tpcd.Queries(gen)[0]
	for _, workers := range []int{1, 4} {
		db.Workers = workers
		res, err := db.NewSession().Query(context.Background(), q01.MOA)
		if err != nil {
			t.Fatalf("w%d: %v", workers, err)
		}
		counts := map[string]int{}
		for _, tr := range res.Traces {
			_, rhs, _ := strings.Cut(tr.Text, ":= ")
			var class, want string
			switch {
			case strings.HasPrefix(rhs, "group("):
				class, want = "group", "dense-group"
			case strings.HasSuffix(rhs, ".unique"):
				class, want = "unique", "extent-unique"
			case strings.HasPrefix(rhs, "semijoin(index_"):
				class, want = "key-semijoin", "alias-semijoin"
			case strings.HasPrefix(rhs, "{"):
				class, want = "aggr", "id-aggr"
			default:
				continue
			}
			counts[class]++
			if tr.Algo != want {
				t.Errorf("w%d: %s ran %q, want %s", workers, tr.Text, tr.Algo, want)
			}
		}
		if counts["group"] != 2 || counts["unique"] != 2 || counts["key-semijoin"] != 1 || counts["aggr"] != 8 {
			t.Errorf("w%d: %v statements, want 2 groups, 2 uniques, 1 key semijoin, 8 aggregates", workers, counts)
		}
	}
}
