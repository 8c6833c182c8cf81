package bat

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/storage"
)

// The radix-partitioned build layout must be observationally identical to
// the unpartitioned one: same Lookup results in the same (ascending) order,
// same cardinality, and the same entries in the same slots — the counting
// sort by (bucket, position) has exactly one result. Builds partition from
// radixSoloMinBuckets buckets on, so these tests vary the rows across it.

// partitionedRows is the smallest build that partitions.
const partitionedRows = radixSoloMinBuckets/2 + 1

// checkClustered asserts the one layout of a clustered index: every bucket
// holds the entries whose rep hashes to it, positions ascending, and every
// position appears once.
func checkClustered(t *testing.T, label string, idx *HashIndex) {
	t.Helper()
	seen := make([]bool, idx.n)
	for b := 0; b <= int(idx.mask); b++ {
		for k := idx.bucketOff[b]; k < idx.bucketOff[b+1]; k++ {
			e := idx.ents[k]
			if int(fibHash(e.rep)&idx.mask) != b || k > idx.bucketOff[b] && idx.ents[k-1].pos >= e.pos || seen[e.pos] {
				t.Fatalf("%s: entry %d (%+v) breaks the (bucket, position) order", label, k, e)
			}
			seen[e.pos] = true
		}
	}
	if int(idx.bucketOff[idx.mask+1]) != idx.n {
		t.Fatalf("%s: %d entries, want %d", label, idx.bucketOff[idx.mask+1], idx.n)
	}
}

func TestBuildHashIndexPartitionedParity(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{0, 1, 37, 1024, partitionedRows} {
		for _, allDup := range []bool{false, true} {
			cols := kernelTestColumns(rng, min(n, 1024), allDup)
			if n == partitionedRows {
				// The layouts share everything past the key reps: an exact
				// and an inexact kind suffice.
				ints, flts := make([]int64, n), make([]float64, n)
				for i := range ints {
					if !allDup {
						ints[i] = int64(rng.Intn(16))
					}
					flts[i] = float64(ints[i]) / 4
				}
				cols = map[Kind]Column{KInt: NewIntCol(ints), KFlt: NewFltCol(flts)}
			}
			for kind, col := range cols {
				label := fmt.Sprintf("%s/n=%d/alldup=%v", kind, n, allDup)
				ref := buildRefIndex(col)
				idx := BuildHashIndex(col)
				if idx.dense {
					continue
				}
				if parts := buildPartitions(len(idx.bucketOff) - 1); (parts > 1) != (n == partitionedRows) {
					t.Fatalf("%s: %d partitions", label, parts)
				}
				checkClustered(t, label, idx)
				if idx.Card() != len(ref.pos) {
					t.Fatalf("%s: card %d != %d", label, idx.Card(), len(ref.pos))
				}
				for v, want := range ref.pos {
					if got := idx.Lookup(v); !slices.Equal(got, want) {
						t.Fatalf("%s: lookup(%s) %d hits, want %d (or order differs)", label, v, len(got), len(want))
					}
				}
			}
		}
	}
}

// TestBuildHashIndexPartitionedFloatEdges pins NaN/-0 key semantics across
// both layouts: -0 and +0 share a bucket entry set, NaN never matches.
func TestBuildHashIndexPartitionedFloatEdges(t *testing.T) {
	nan := math.NaN()
	for _, n := range []int{64, partitionedRows} {
		vals := make([]float64, n)
		for i := range vals {
			switch {
			case i >= 64:
				vals[i] = float64(i)
			case i%4 == 0:
				vals[i] = 0
			case i%4 == 1:
				vals[i] = math.Copysign(0, -1)
			case i%4 == 2:
				vals[i] = nan
			default:
				vals[i] = float64(i)
			}
		}
		idx := BuildHashIndex(NewFltCol(vals))
		zero := idx.Lookup(F(0))
		if len(zero) != 32 {
			t.Fatalf("n=%d: zero matches %d, want 32 (-0 and +0 are one key)", n, len(zero))
		}
		if got := idx.Lookup(F(nan)); got != nil {
			t.Fatalf("n=%d: NaN probe matched %v", n, got)
		}
	}
}

// TestHashIndexDenseDetection: an oid column storing a dense ascending
// sequence gets the arithmetic accelerator even without density properties.
func TestHashIndexDenseDetection(t *testing.T) {
	v := make([]OID, 100)
	for i := range v {
		v[i] = OID(i + 42)
	}
	idx := BuildHashIndex(NewOIDCol(v))
	if !idx.dense {
		t.Fatal("dense oid sequence not detected")
	}
	if idx.Card() != 100 {
		t.Fatalf("card = %d", idx.Card())
	}
	if got := idx.Lookup(O(42)); len(got) != 1 || got[0] != 0 {
		t.Fatalf("lookup(42) = %v", got)
	}
	if got := idx.Lookup(O(141)); len(got) != 1 || got[0] != 99 {
		t.Fatalf("lookup(141) = %v", got)
	}
	if got := idx.Lookup(O(142)); got != nil {
		t.Fatalf("lookup(142) = %v", got)
	}
	// one swapped pair defeats detection and takes the clustered build
	v[10], v[11] = v[11], v[10]
	idx = BuildHashIndex(NewOIDCol(v))
	if idx.dense {
		t.Fatal("non-dense sequence mis-detected as dense")
	}
	if got := idx.Lookup(O(52)); len(got) != 1 || got[0] != 11 {
		t.Fatalf("lookup(52) = %v", got)
	}
}

// TestSliceViewAllKinds: views are value-identical to materialized gathers
// and share backing storage where one exists.
func TestSliceViewAllKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	n := 64
	for kind, col := range kernelTestColumns(rng, n, false) {
		v := SliceView(col, 10, 20)
		if v.Len() != 20 {
			t.Fatalf("%s: view len %d", kind, v.Len())
		}
		for i := 0; i < 20; i++ {
			if v.Get(i) != col.Get(10+i) {
				t.Fatalf("%s: view[%d] = %s, want %s", kind, i, v.Get(i), col.Get(10+i))
			}
		}
	}
	// aliasing: a view of a typed column shares its backing array
	ic := NewIntCol([]int64{1, 2, 3, 4, 5})
	v := SliceView(ic, 1, 3).(*IntCol)
	if &v.V[0] != &ic.V[1] {
		t.Fatal("int view does not alias the original backing slice")
	}
	// a void view stays void (and therefore dense)
	if vv, ok := SliceView(NewVoid(7, 10), 2, 5).(*VoidCol); !ok || vv.Seq != 9 || vv.N != 5 {
		t.Fatalf("void view = %#v", SliceView(NewVoid(7, 10), 2, 5))
	}
}

func TestPositionRun(t *testing.T) {
	cases := []struct {
		pos  []int32
		lo   int
		want bool
	}{
		{nil, 0, false},
		{[]int32{5}, 5, true},
		{[]int32{3, 4, 5, 6}, 3, true},
		{[]int32{3, 5, 6}, 0, false},
		{[]int32{3, 1, 2, 6}, 0, false}, // endpoint check alone would pass
		{[]int32{0, 0, 1}, 0, false},
	}
	for i, c := range cases {
		lo, ok := PositionRun(c.pos)
		if ok != c.want || (ok && lo != c.lo) {
			t.Fatalf("case %d: got (%d,%v), want (%d,%v)", i, lo, ok, c.lo, c.want)
		}
	}
}

// TestGatherRunReturnsView: a contiguous permutation gathers as a zero-copy
// view with identical values.
func TestGatherRunReturnsView(t *testing.T) {
	col := NewIntCol([]int64{10, 20, 30, 40, 50})
	run := Gather(col, []int32{1, 2, 3})
	iv, ok := run.(*IntCol)
	if !ok {
		t.Fatalf("run gather returned %T", run)
	}
	if &iv.V[0] != &col.V[1] {
		t.Fatal("run gather did not return a view")
	}
	scattered := Gather(col, []int32{3, 1, 2})
	sv := scattered.(*IntCol)
	if len(sv.V) != 3 || sv.V[0] != 40 || &sv.V[0] == &col.V[3] {
		t.Fatal("non-run gather must materialize a copy")
	}
}

// TestColumnTouchRangeSpan: a dense run accounted through TouchRange faults
// one page span, not one touch per entry (the satellite fix for
// gatherPositions' per-position accounting).
func TestColumnTouchRangeSpan(t *testing.T) {
	const n = 4096 // 32 KB of int64s = 8 pages of 4 KB
	c := NewIntCol(make([]int64, n))
	c.Persist()
	p := storage.NewPager(4096, 0).NewTracker()
	c.TouchRange(p, 0, n)
	if got := p.Faults(); got != 8 {
		t.Fatalf("span faults = %d, want 8", got)
	}
	if got := p.Hits(); got != 0 {
		t.Fatalf("span hits = %d, want 0 (each page touched once)", got)
	}
	// per-position touching of the same run costs one access per entry
	p2 := storage.NewPager(4096, 0).NewTracker()
	run := make([]int32, n)
	for i := range run {
		run[i] = int32(i)
	}
	c.TouchPositions(p2, run)
	if got := p2.Faults() + p2.Hits(); got != n {
		t.Fatalf("per-position accesses = %d, want %d", got, n)
	}
	// a view's touches stay anchored at the original heap offsets
	v := SliceView(c, 2048, 1024)
	p3 := storage.NewPager(4096, 0).NewTracker()
	v.TouchRange(p3, 0, 1024)
	if got := p3.Faults(); got != 2 {
		t.Fatalf("view span faults = %d, want 2 (entries 2048-3071 = pages 4-5)", got)
	}
}
