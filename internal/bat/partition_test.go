package bat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/storage"
)

// The radix-partitioned build backend must be observationally identical to
// the sequential build for every partition fan-out and worker count: same
// Lookup results in the same (ascending) order, same cardinality, same
// group slots in first-occurrence order. These tests force partitioning on
// small inputs through the internal fan-out knob.

func TestBuildHashIndexPartitionedParity(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{0, 1, 37, 128, 1024} {
		for _, allDup := range []bool{false, true} {
			for kind, col := range kernelTestColumns(rng, n, allDup) {
				ref := buildRefIndex(col)
				seq := BuildHashIndexSched(col, 1, Sched{Workers: 1})
				for _, parts := range []int{2, 4, 8} {
					for _, sched := range []Sched{{Workers: 1}, {Workers: 4}} {
						idx := BuildHashIndexSched(col, parts, sched)
						label := fmt.Sprintf("%s/n=%d/alldup=%v/p=%d/w=%d", kind, n, allDup, parts, sched.Workers)
						if idx.Card() != len(ref.pos) {
							t.Fatalf("%s: card %d != %d", label, idx.Card(), len(ref.pos))
						}
						if idx.Card() != seq.Card() {
							t.Fatalf("%s: card %d != sequential %d", label, idx.Card(), seq.Card())
						}
						for i := 0; i < col.Len(); i++ {
							v := col.Get(i)
							got := idx.Lookup(v)
							want := ref.pos[v]
							if len(got) != len(want) {
								t.Fatalf("%s: lookup(%s) %v != %v", label, v, got, want)
							}
							for j := range got {
								if got[j] != want[j] {
									t.Fatalf("%s: lookup(%s) %v != %v (order)", label, v, got, want)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestBuildHashIndexPartitionedFloatEdges pins NaN/-0 key semantics across
// partitioned builds: -0 and +0 share a bucket entry set, NaN never matches.
func TestBuildHashIndexPartitionedFloatEdges(t *testing.T) {
	nan := math.NaN()
	vals := make([]float64, 64)
	for i := range vals {
		switch i % 4 {
		case 0:
			vals[i] = 0
		case 1:
			vals[i] = math.Copysign(0, -1)
		case 2:
			vals[i] = nan
		default:
			vals[i] = float64(i)
		}
	}
	col := NewFltCol(vals)
	for _, parts := range []int{1, 4} {
		idx := BuildHashIndexSched(col, parts, Sched{Workers: 2})
		zero := idx.Lookup(F(0))
		if len(zero) != 32 {
			t.Fatalf("p=%d: zero matches %d, want 32 (-0 and +0 are one key)", parts, len(zero))
		}
		if got := idx.Lookup(F(nan)); got != nil {
			t.Fatalf("p=%d: NaN probe matched %v", parts, got)
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

// TestBuildPartitionSplitBitIdentical: adversarially skewed keys route most
// rows into one radix partition, which the build counting-sorts with every
// worker cooperating (buildPartitionSplit). That cooperative path must
// reproduce the sequential build bit for bit — identical bucketOff
// boundaries and identical (rep, pos) entries in the same slots — not
// merely equivalent Lookup answers. all-one-key concentrates every row in
// one partition, so the sub-split is guaranteed to engage for workers >= 3;
// half-hot and zipf mix hot and ordinary partitions so both build paths run
// against the same index.
func TestBuildPartitionSplitBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	const n = 4096
	one := make([]int64, n)
	half := make([]int64, n)
	zipf := make([]int64, n)
	zg := rand.NewZipf(rng, 1.3, 1, 64)
	for i := 0; i < n; i++ {
		one[i] = 42
		if i%2 == 0 {
			half[i] = 42
		} else {
			half[i] = rng.Int63()
		}
		zipf[i] = int64(zg.Uint64())
	}
	shapes := []struct {
		name string
		keys []int64
	}{{"all-one-key", one}, {"half-hot", half}, {"zipf", zipf}}

	for _, sh := range shapes {
		col := NewIntCol(sh.keys)
		seq := BuildHashIndexSched(col, 1, Sched{Workers: 1})
		for _, parts := range []int{4, 8} {
			for _, sched := range []Sched{{Workers: 3}, {Workers: 8}} {
				idx := BuildHashIndexSched(col, parts, sched)
				label := fmt.Sprintf("%s/p=%d/w=%d", sh.name, parts, sched.Workers)
				if len(idx.bucketOff) != len(seq.bucketOff) || len(idx.ents) != len(seq.ents) {
					t.Fatalf("%s: layout sizes (%d,%d) != sequential (%d,%d)", label,
						len(idx.bucketOff), len(idx.ents), len(seq.bucketOff), len(seq.ents))
				}
				for j := range seq.bucketOff {
					if idx.bucketOff[j] != seq.bucketOff[j] {
						t.Fatalf("%s: bucketOff[%d] = %d, want %d", label, j, idx.bucketOff[j], seq.bucketOff[j])
					}
				}
				for j := range seq.ents {
					if idx.ents[j] != seq.ents[j] {
						t.Fatalf("%s: ents[%d] = %+v, want %+v", label, j, idx.ents[j], seq.ents[j])
					}
				}
			}
		}
	}
}

// refGroupSlots is the sequential Grouper reference.
func refGroupSlots(rep []uint64, eq KeyEq) (slots, first []int32) {
	g := NewGrouper(eq)
	slots = make([]int32, len(rep))
	for i := range rep {
		s, _ := g.Slot(rep[i], int32(i))
		slots[i] = s
	}
	return slots, g.Rows()
}

func TestBuildGroupSlotsPartitionedParity(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, n := range []int{0, 1, 37, 128, 2048} {
		for _, allDup := range []bool{false, true} {
			for kind, col := range kernelTestColumns(rng, n, allDup) {
				kr := NewKeyRep(col)
				wantSlots, wantFirst := refGroupSlots(kr.Rep, kr.Verifier())
				for _, sched := range []Sched{{Workers: 1}, {Workers: 3}, {Workers: 8}} {
					gs := BuildGroupSlotsPartitionedSched(kr.Rep, kr.Verifier(), sched)
					label := fmt.Sprintf("%s/n=%d/alldup=%v/w=%d", kind, n, allDup, sched.Workers)
					if len(gs.First) != len(wantFirst) {
						t.Fatalf("%s: %d groups, want %d", label, len(gs.First), len(wantFirst))
					}
					for s := range wantFirst {
						if gs.First[s] != wantFirst[s] {
							t.Fatalf("%s: first[%d] = %d, want %d", label, s, gs.First[s], wantFirst[s])
						}
					}
					for i := range wantSlots {
						if gs.Slots[i] != wantSlots[i] {
							t.Fatalf("%s: slot[%d] = %d, want %d", label, i, gs.Slots[i], wantSlots[i])
						}
					}
					// PartRows must cover every row exactly once, ascending
					// within each partition.
					seen := 0
					for _, rows := range gs.PartRows {
						for j, r := range rows {
							if j > 0 && rows[j-1] >= r {
								t.Fatalf("%s: partition rows not ascending", label)
							}
							_ = r
							seen++
						}
					}
					if seen != n {
						t.Fatalf("%s: partitions cover %d rows, want %d", label, seen, n)
					}
				}
			}
		}
	}
}

// TestBuildGroupSlotsNaN: every NaN row is its own group, in row order,
// under any worker count (NaN reps collide but never verify equal).
func TestBuildGroupSlotsNaN(t *testing.T) {
	nan := math.NaN()
	col := NewFltCol([]float64{nan, 1, nan, 1, nan})
	kr := NewKeyRep(col)
	for _, workers := range []int{1, 4} {
		gs := BuildGroupSlotsPartitioned(kr.Rep, kr.Verifier(), workers)
		want := []int32{0, 1, 2, 1, 3}
		for i := range want {
			if gs.Slots[i] != want[i] {
				t.Fatalf("w=%d: slots = %v, want %v", workers, gs.Slots, want)
			}
		}
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
