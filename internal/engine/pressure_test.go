package engine

import (
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/tpcd"
)

// TestBoundedPoolIncreasesFaults reproduces the Section 6.2 memory-pressure
// effect qualitatively: the same query against a capacity-bounded buffer
// pool faults at least as much as against an unbounded one, and a severely
// bounded pool (hot-set ≫ memory, the Q1 situation) faults strictly more.
func TestBoundedPoolIncreasesFaults(t *testing.T) {
	gen, _ := testDB(t)
	env, _ := tpcd.Load(gen)
	q := tpcd.Queries(gen)[0] // Q1: touches most of the Item table

	faultsWith := func(pool int) uint64 {
		db := New(tpcd.Schema(), env)
		db.Pager = storage.NewPager(4096, pool)
		res, err := db.Query(q.MOA)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Faults
	}
	unbounded := faultsWith(0)
	tight := faultsWith(8) // eight pages: everything thrashes
	if tight < unbounded {
		t.Fatalf("bounded pool faulted less: %d < %d", tight, unbounded)
	}
	if tight == unbounded {
		t.Fatalf("8-page pool shows no pressure (both %d faults)", tight)
	}
}

// TestTraceExposesDynamicOptimization checks that execution traces name the
// variants the dynamic optimizer chose — the observable the paper's Fig. 10
// discussion is built on.
func TestTraceExposesDynamicOptimization(t *testing.T) {
	gen, db := testDB(t)
	res, err := db.Query(tpcd.Queries(gen)[12].MOA) // Q13
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, tr := range res.Traces {
		if tr.Algo != "" {
			seen[tr.Algo] = true
		}
		if tr.Text == "" {
			t.Fatal("trace entry without statement text")
		}
	}
	for _, want := range []string{"binsearch-select", "datavector-semijoin"} {
		if !seen[want] {
			t.Errorf("variant %q never chosen; saw %v", want, keys(seen))
		}
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestWarmDatavectorLookupReuse: rerunning Q13 on a warm pool faults
// nothing — its datavector semijoins compute their LOOKUPs over a dense
// extent, which occupies no pages, and their right operands and value
// vectors are resident — and the rerun still takes the datavector variant.
func TestWarmDatavectorLookupReuse(t *testing.T) {
	gen, _ := testDB(t)
	env, _ := tpcd.Load(gen)
	db := New(tpcd.Schema(), env)
	db.Pager = storage.NewPager(4096, 0)

	q := tpcd.Queries(gen)[12].MOA
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	db.Pager.ResetStats() // keep pool warm
	res, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Faults != 0 {
		t.Fatalf("warm rerun faulted %d times", res.Stats.Faults)
	}
	// the trace still reports datavector semijoins (not degraded variants)
	found := false
	for _, tr := range res.Traces {
		if strings.Contains(tr.Algo, "datavector") {
			found = true
		}
	}
	if !found {
		t.Fatal("datavector variant not used on rerun")
	}
}
