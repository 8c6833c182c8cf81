package relational

import (
	"sync"
	"testing"

	"repro/internal/bat"
	"repro/internal/storage"
	"repro/internal/tpcd"
)

var (
	once  sync.Once
	genDB *tpcd.DB
	store *Store
)

func testStore(t *testing.T) (*tpcd.DB, *Store) {
	t.Helper()
	once.Do(func() {
		genDB = tpcd.Generate(0.002, 7)
		store = Load(genDB)
	})
	return genDB, store
}

// TestBaselineMatchesReference validates the row-store executor against the
// same independent reference evaluator that validates the MOA engine — so
// both systems provably answer the same questions.
func TestBaselineMatchesReference(t *testing.T) {
	db, s := testStore(t)
	for _, q := range tpcd.Queries(db) {
		q := q
		t.Run(q.Name, func(t *testing.T) {
			res, err := s.Run(db, q.Num)
			if err != nil {
				t.Fatalf("Q%d: %v", q.Num, err)
			}
			want, err := tpcd.Reference(db, q.Num)
			if err != nil {
				t.Fatal(err)
			}
			if err := tpcd.CompareResults(res.Set, want, q.Ordered); err != nil {
				t.Fatalf("Q%d mismatch: %v", q.Num, err)
			}
		})
	}
}

func TestRunUnknownQuery(t *testing.T) {
	db, s := testStore(t)
	if _, err := s.Run(db, 99); err == nil {
		t.Fatal("expected error for unknown query")
	}
}

func TestTableBasics(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.Append(bat.I(1), bat.S("x"))
	tb.Append(bat.I(2), bat.S("y"))
	if tb.Col("b") != 1 || tb.Col("zz") != -1 {
		t.Fatal("Col lookup wrong")
	}
	if got := tb.Fetch(nil, 1)[1].S; got != "y" {
		t.Fatalf("fetch = %q", got)
	}
	n := 0
	tb.Scan(nil, func(int, []bat.Value) { n++ })
	if n != 2 {
		t.Fatalf("scan visited %d", n)
	}
	if tb.ByteSize() != 2*3*4 {
		t.Fatalf("bytesize = %d", tb.ByteSize())
	}
}

func TestIndexLookupAndRange(t *testing.T) {
	tb := NewTable("t", "v")
	for _, v := range []int64{5, 3, 5, 9, 1} {
		tb.Append(bat.I(v))
	}
	ix := tb.IndexOn(0)
	if got := ix.Lookup(nil, bat.I(5)); len(got) != 2 {
		t.Fatalf("lookup(5) = %v", got)
	}
	lo, hi := bat.I(3), bat.I(5)
	if got := ix.LookupRange(nil, &lo, &hi, true, true); len(got) != 3 {
		t.Fatalf("range [3,5] = %v", got)
	}
	if got := ix.LookupRange(nil, &lo, &hi, false, false); len(got) != 0 {
		t.Fatalf("range (3,5) = %v", got)
	}
	if got := ix.LookupRange(nil, nil, nil, true, true); len(got) != 5 {
		t.Fatalf("full range = %v", got)
	}
	// cached
	if tb.IndexOn(0) != ix {
		t.Fatal("index must be cached")
	}
}

func TestScanTouchesEveryPageOnce(t *testing.T) {
	db, _ := testStore(t)
	s := Load(db)
	s.Pager = storage.NewPager(4096, 0)
	n := 0
	s.Lineitem.Scan(s.Pager.NewTracker(), func(int, []bat.Value) { n++ })
	wantPages := (s.Lineitem.ByteSize() + 4095) / 4096
	if got := int64(s.Pager.Faults()); got != wantPages {
		t.Fatalf("faults = %d, want %d", got, wantPages)
	}
	if n != len(s.Lineitem.Rows) {
		t.Fatalf("visited %d of %d", n, len(s.Lineitem.Rows))
	}
}

func TestUnclusteredFetchFaultsPerPage(t *testing.T) {
	db, _ := testStore(t)
	s := Load(db)
	s.Pager = storage.NewPager(4096, 0)
	// two fetches far apart: two distinct pages
	tr := s.Pager.NewTracker()
	s.Lineitem.Fetch(tr, 0)
	s.Lineitem.Fetch(tr, len(s.Lineitem.Rows)-1)
	if got := s.Pager.Faults(); got != 2 {
		t.Fatalf("faults = %d, want 2", got)
	}
}
