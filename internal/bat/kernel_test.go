package bat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/storage"
)

// refIndex is the boxed map accelerator the bucket+link HashIndex replaced;
// it is the parity reference for lookup semantics and cardinality.
type refIndex struct {
	pos map[Value][]int32
}

func buildRefIndex(col Column) *refIndex {
	m := make(map[Value][]int32, col.Len())
	for i := 0; i < col.Len(); i++ {
		m[col.Get(i)] = append(m[col.Get(i)], int32(i))
	}
	return &refIndex{pos: m}
}

func kernelTestColumns(rng *rand.Rand, n int, allDup bool) map[Kind]Column {
	pick := func() int64 {
		if allDup {
			return 7
		}
		return int64(rng.Intn(16))
	}
	oids := make([]OID, n)
	ints := make([]int64, n)
	flts := make([]float64, n)
	strs := make([]string, n)
	chrs := make([]byte, n)
	dates := make([]int32, n)
	bits := make([]bool, n)
	for i := 0; i < n; i++ {
		d := pick()
		oids[i] = OID(d)
		ints[i] = d - 8
		flts[i] = float64(d) / 4
		strs[i] = fmt.Sprintf("k%02d", d)
		chrs[i] = byte('a' + d)
		dates[i] = int32(9000 + d)
		bits[i] = d%2 == 0
	}
	return map[Kind]Column{
		KOID:  NewOIDCol(oids),
		KInt:  NewIntCol(ints),
		KFlt:  NewFltCol(flts),
		KStr:  NewStrColFromStrings(strs),
		KChr:  NewChrCol(chrs),
		KDate: NewDateCol(dates),
		KBit:  NewBitCol(bits),
	}
}

// TestHashIndexParityWithBoxedMap: Lookup results and Card must be
// identical to the boxed map accelerator for every kind, including empty
// and all-duplicate columns.
func TestHashIndexParityWithBoxedMap(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{0, 1, 37, 128} {
		for _, allDup := range []bool{false, true} {
			for kind, col := range kernelTestColumns(rng, n, allDup) {
				idx := BuildHashIndex(col)
				ref := buildRefIndex(col)
				if idx.Card() != len(ref.pos) {
					t.Fatalf("%s/n=%d: card %d != %d", kind, n, idx.Card(), len(ref.pos))
				}
				// probe every present value plus misses of the same kind
				probes := make([]Value, 0, col.Len()+3)
				for i := 0; i < col.Len(); i++ {
					probes = append(probes, col.Get(i))
				}
				miss := kernelTestColumns(rng, 3, false)[kind]
				for i := 0; i < 3; i++ {
					v := miss.Get(i)
					v.I += 1000 // push fixed kinds out of domain
					v.F += 1000
					v.S += "zzz"
					probes = append(probes, v)
				}
				probes = append(probes, I(42), F(42), S("absent"))
				for _, v := range probes {
					got := idx.Lookup(v)
					want := ref.pos[v]
					if len(got) != len(want) {
						t.Fatalf("%s/n=%d/alldup=%v: lookup(%s) %v != %v", kind, n, allDup, v, got, want)
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s: lookup(%s) %v != %v (order)", kind, v, got, want)
						}
					}
				}
			}
		}
	}
}

// TestHashIndexDenseVoid: dense accelerators answer by arithmetic.
func TestHashIndexDenseVoid(t *testing.T) {
	idx := BuildHashIndex(NewVoid(100, 5))
	if idx.Card() != 5 {
		t.Fatalf("card = %d", idx.Card())
	}
	if got := idx.Lookup(O(102)); len(got) != 1 || got[0] != 2 {
		t.Fatalf("lookup(102) = %v", got)
	}
	if got := idx.Lookup(O(99)); got != nil {
		t.Fatalf("lookup(99) = %v", got)
	}
	if got := idx.Lookup(I(102)); got != nil {
		t.Fatalf("int probe into oid extent matched: %v", got)
	}
}

// TestHashIndexProbeKindMismatch: typed probes across kinds are rejected so
// callers fall back to boxed lookups (which then miss, as the map did).
func TestHashIndexProbeKindMismatch(t *testing.T) {
	idx := BuildHashIndex(NewIntCol([]int64{1, 2, 3}))
	if _, ok := idx.NewProbe(NewFltCol([]float64{1, 2})); ok {
		t.Fatal("float probe into int index must not get a typed path")
	}
	if _, ok := idx.NewProbe(NewIntCol([]int64{9})); !ok {
		t.Fatal("int probe into int index must get a typed path")
	}
	// oid and void share one key space
	vidx := BuildHashIndex(NewOIDCol([]OID{5, 6}))
	if _, ok := vidx.NewProbe(NewVoid(5, 3)); !ok {
		t.Fatal("void probe into oid index must get a typed path")
	}
}

// TestHashIndexJoinRangeParity: JoinRange must produce exactly the pairs of
// a per-row boxed Lookup, in the same order.
func TestHashIndexJoinRangeParity(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range []int{0, 1, 64} {
		builds := kernelTestColumns(rng, n, false)
		probes := kernelTestColumns(rng, n+7, false)
		for kind, col := range builds {
			idx := BuildHashIndex(col)
			probe := probes[kind]
			pr, ok := idx.NewProbe(probe)
			if !ok {
				t.Fatalf("%s: no typed probe", kind)
			}
			lpos, rpos := idx.JoinRange(pr, 0, probe.Len(), nil, nil)
			var wantL, wantR []int32
			for i := 0; i < probe.Len(); i++ {
				for _, j := range idx.Lookup(probe.Get(i)) {
					wantL = append(wantL, int32(i))
					wantR = append(wantR, j)
				}
			}
			if len(lpos) != len(wantL) {
				t.Fatalf("%s: %d pairs, want %d", kind, len(lpos), len(wantL))
			}
			for i := range lpos {
				if lpos[i] != wantL[i] || rpos[i] != wantR[i] {
					t.Fatalf("%s: pair %d = (%d,%d), want (%d,%d)", kind, i, lpos[i], rpos[i], wantL[i], wantR[i])
				}
			}
			// FilterRange = rows with ≥1 match; inverse = the complement
			hits := idx.FilterRange(pr, 0, probe.Len(), true, nil)
			miss := idx.FilterRange(pr, 0, probe.Len(), false, nil)
			if len(hits)+len(miss) != probe.Len() {
				t.Fatalf("%s: filter split %d+%d != %d", kind, len(hits), len(miss), probe.Len())
			}
		}
	}
}

// TestHashIndexVectorKernelParity drives the selection-vector entry points
// directly: over any ascending position list, FilterPositions and
// JoinPositions must emit exactly what FilterRange and JoinRange emit for
// the same rows probed one at a time — for the inline-rep kinds (oid, int,
// date, chr, void probes), the rep-vector kinds (flt, str, bit), bucket and
// dense indexes, semijoin and anti-semijoin polarity.
func TestHashIndexVectorKernelParity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	type pair struct {
		name         string
		build, probe Column
	}
	var pairs []pair
	for _, n := range []int{0, 1, 300} { // 300 rows span more than one probeBlock
		builds := kernelTestColumns(rng, n, false)
		probes := kernelTestColumns(rng, n+7, false)
		for kind, col := range builds {
			pairs = append(pairs, pair{fmt.Sprintf("%s/n=%d", kind, n), col, probes[kind]})
		}
		// dense accelerators (void build side), probed by oid and void columns
		pairs = append(pairs,
			pair{fmt.Sprintf("dense-oid/n=%d", n), NewVoid(3, n), probes[KOID]},
			pair{fmt.Sprintf("dense-void/n=%d", n), NewVoid(3, n), NewVoid(0, n+7)},
			pair{fmt.Sprintf("void-probe/n=%d", n), builds[KOID], NewVoid(0, n+7)})
	}
	for _, pc := range pairs {
		idx := BuildHashIndex(pc.build)
		pr, ok := idx.NewProbe(pc.probe)
		if !ok {
			t.Fatalf("%s: no typed probe", pc.name)
		}
		m := pc.probe.Len()
		all := make([]int32, m)
		var some []int32
		for i := range all {
			all[i] = int32(i)
			if rng.Intn(3) > 0 {
				some = append(some, int32(i))
			}
		}
		for _, sel := range [][]int32{nil, all, some} {
			for _, want := range []bool{true, false} {
				var ref []int32
				for _, i := range sel {
					ref = idx.FilterRange(pr, int(i), int(i)+1, want, ref)
				}
				got := idx.FilterPositions(pr, sel, want, nil)
				if fmt.Sprint(got) != fmt.Sprint(ref) {
					t.Fatalf("%s: FilterPositions(want=%v) = %v, FilterRange gives %v", pc.name, want, got, ref)
				}
				if vec := idx.FilterVec(pr, Vector{Lo: 0, Hi: m, Sel: sel}, want, nil); sel != nil && fmt.Sprint(vec) != fmt.Sprint(ref) {
					t.Fatalf("%s: FilterVec(want=%v) = %v, want %v", pc.name, want, vec, ref)
				}
			}
			var refL, refR []int32
			for _, i := range sel {
				refL, refR = idx.JoinRange(pr, int(i), int(i)+1, refL, refR)
			}
			gotL, gotR := idx.JoinPositions(pr, sel, nil, nil)
			if fmt.Sprint(gotL, gotR) != fmt.Sprint(refL, refR) {
				t.Fatalf("%s: JoinPositions = %v/%v, JoinRange gives %v/%v", pc.name, gotL, gotR, refL, refR)
			}
		}
		// a full selection is the range probe
		hits := idx.FilterRange(pr, 0, m, true, nil)
		if got := idx.FilterPositions(pr, all, true, nil); fmt.Sprint(got) != fmt.Sprint(hits) {
			t.Fatalf("%s: full selection %v != range %v", pc.name, got, hits)
		}
	}
}

// TestKeyRepSemantics pins the map-key equality semantics of the reps.
func TestKeyRepSemantics(t *testing.T) {
	nan := math.NaN()
	col := NewFltCol([]float64{0, math.Copysign(0, -1), nan, nan, 1})
	kr := NewKeyRep(col)
	if kr.Exact {
		t.Fatal("float reps must be inexact")
	}
	if kr.Rep[0] != kr.Rep[1] {
		t.Fatal("-0 and +0 must share a rep")
	}
	if !kr.KeyEqual(0, 1) {
		t.Fatal("-0 must equal +0")
	}
	if kr.KeyEqual(2, 3) {
		t.Fatal("NaN must not equal NaN")
	}
}

// TestGrouperFirstOccurrenceOrder: slots are dense and handed out in first
// occurrence order, with collision verification on composite keys.
func TestGrouperFirstOccurrenceOrder(t *testing.T) {
	a := NewKeyRep(NewIntCol([]int64{5, 3, 5, 9, 3}))
	g := NewGrouper(5)
	var slots []int32
	for i := 0; i < 5; i++ {
		s, _ := g.Slot(a.Rep[i], int32(i), a.Verifier())
		slots = append(slots, s)
	}
	want := []int32{0, 1, 0, 2, 1}
	for i := range want {
		if slots[i] != want[i] {
			t.Fatalf("slots = %v, want %v", slots, want)
		}
	}
	if g.Len() != 3 {
		t.Fatalf("distinct = %d", g.Len())
	}
	rows := g.Rows()
	if rows[0] != 0 || rows[1] != 1 || rows[2] != 3 {
		t.Fatalf("first rows = %v", rows)
	}
}

// TestMergeJoinPositionsParity: the typed merge kernel equals a boxed
// nested-loop reference on sorted inputs for every orderable kind.
func TestMergeJoinPositionsParity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{0, 1, 50} {
		cols := kernelTestColumns(rng, n, false)
		for kind, col := range cols {
			if kind == KBit {
				continue
			}
			sorted := SortOnTail(New("x", NewVoid(0, n), col, 0)).T
			other := SortOnTail(New("y", NewVoid(0, n), kernelTestColumns(rng, n, false)[kind], 0)).T
			lpos, rpos, ok := MergeJoinPositions(sorted, other, nil, nil)
			if !ok {
				t.Fatalf("%s: no typed merge path", kind)
			}
			var wantL, wantR []int32
			for i := 0; i < sorted.Len(); i++ {
				for j := 0; j < other.Len(); j++ {
					if sorted.Get(i) == other.Get(j) {
						wantL = append(wantL, int32(i))
						wantR = append(wantR, int32(j))
					}
				}
			}
			if len(lpos) != len(wantL) {
				t.Fatalf("%s/n=%d: %d pairs, want %d", kind, n, len(lpos), len(wantL))
			}
			for i := range lpos {
				if lpos[i] != wantL[i] || rpos[i] != wantR[i] {
					t.Fatalf("%s: pair %d = (%d,%d), want (%d,%d)", kind, i, lpos[i], rpos[i], wantL[i], wantR[i])
				}
			}
		}
	}
}

// TestIntColTouchStride: integer entries are 8 bytes, so a column of P
// pages' worth of int64s must fault P pages on a full scan — not P/2 as the
// old 4-byte stride implied.
func TestIntColTouchStride(t *testing.T) {
	const n = 4096 // 32 KB of int64s = 8 pages of 4 KB
	c := NewIntCol(make([]int64, n))
	c.Persist()
	p := storage.NewPager(4096, 0).NewTracker()
	c.TouchAll(p)
	if got := p.Faults(); got != 8 {
		t.Fatalf("full scan faults = %d, want 8 (8-byte entries)", got)
	}
	p2 := storage.NewPager(4096, 0).NewTracker()
	c.TouchPositions(p2, []int32{n - 1}) // last entry lives in the 8th page
	if got := p2.Faults(); got != 1 {
		t.Fatalf("TouchPositions faults = %d, want 1", got)
	}
	if c.ByteSize() != n*8 {
		t.Fatalf("bytesize = %d", c.ByteSize())
	}
}
