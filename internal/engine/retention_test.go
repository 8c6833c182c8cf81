package engine

import (
	"runtime"
	"testing"

	"repro/internal/tpcd"
)

// TestRepeatedQueriesRetainNothing is a soak check in small: once one pass
// of the Figure-9 queries has warmed every cache that is meant to persist
// (the base BATs' hash indexes, the prepared plans), further passes must
// leave the live heap where they found it — whatever a query builds for its
// own use dies with it. A cache that pins per-query intermediates past their
// query, out of the memory gauge's view, fails here: a LOOKUP memo keyed by
// each datavector semijoin's right operand once grew the heap by 36.8 MB
// over 20 passes at this scale.
func TestRepeatedQueriesRetainNothing(t *testing.T) {
	const (
		passes = 20
		slack  = 2 << 20 // bytes: runtime and allocator noise
	)
	gen := tpcd.Generate(0.005, 7)
	env, _ := tpcd.Load(gen)
	db := New(tpcd.Schema(), env)
	queries := tpcd.Queries(gen)
	pass := func() {
		for _, q := range queries {
			if _, err := db.Query(q.MOA); err != nil {
				t.Fatalf("Q%d: %v", q.Num, err)
			}
		}
	}
	live := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	pass()
	before := live()
	for i := 0; i < passes; i++ {
		pass()
	}
	grown := live() - before
	t.Logf("%d passes of Q1–Q15 over a live heap of %.1f MB grew it by %+.2f MB", passes, float64(before)/(1<<20), float64(grown)/(1<<20))
	if grown > slack {
		t.Fatalf("the live heap grew by more than %.0f MB: a cache pins what its queries left behind", float64(slack)/(1<<20))
	}
	runtime.KeepAlive(db)
}
