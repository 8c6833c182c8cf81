package bat

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/storage"
)

// Lookup returns the positions at which v occurs, in ascending order, or
// nil: one value at a time, through the bucket walk and the boxed equality,
// with its own conversion of the boxed value into a key rep. It is the
// oracle the typed probe kernels are checked against.
func (h *HashIndex) Lookup(v Value) []int32 {
	if v.K != normKind(h.col.Kind()) {
		return nil // map-key semantics: another kind never matches
	}
	if h.dense {
		if i, ok := h.Lookup1(v.OID()); ok {
			return []int32{i}
		}
		return nil
	}
	x := uint64(v.I)
	switch v.K {
	case KFlt:
		x = fltKeyRep(v.F)
	case KStr:
		x = hashString(v.S)
	}
	var out []int32
	s, e := h.bucketRange(x)
	for k := s; k < e; k++ {
		if h.ents[k].rep == x && (h.exact || h.col.Get(int(h.ents[k].pos)) == v) {
			out = append(out, h.ents[k].pos)
		}
	}
	return out
}

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
				idx := BuildHashIndex(col, nil)
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

// blockSizes are build sizes around the block the build and the probe
// kernels read their rows in: empty, one row, a block less one, one block,
// one block and one row, and many blocks.
var blockSizes = []int{0, 1, probeBlock - 1, probeBlock, probeBlock + 1, 5000}

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

// TestBuildHashIndexClustered: for every kind, distinct and all-duplicate,
// the counting sort yields the (bucket, position) layout, and its lookups
// and cardinality equal the boxed map accelerator's.
func TestBuildHashIndexClustered(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range blockSizes {
		for _, allDup := range []bool{false, true} {
			for kind, col := range kernelTestColumns(rng, n, allDup) {
				label := fmt.Sprintf("%s/n=%d/alldup=%v", kind, n, allDup)
				ref := buildRefIndex(col)
				idx := BuildHashIndex(col, nil)
				if idx.dense {
					continue
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

// TestBuildHashIndexFloatEdges pins NaN/-0 key semantics: -0 and +0 are one
// key, NaN matches nothing, in the index and through the probe kernels.
func TestBuildHashIndexFloatEdges(t *testing.T) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	for _, n := range blockSizes {
		vals := make([]float64, n)
		var zeros []int32
		for i := range vals {
			vals[i] = []float64{0, negZero, nan, float64(i)}[i%4]
			if i%4 < 2 {
				zeros = append(zeros, int32(i))
			}
		}
		idx := BuildHashIndex(NewFltCol(vals), nil)
		checkClustered(t, fmt.Sprintf("n=%d", n), idx)
		for _, z := range []float64{0, negZero} {
			if got := idx.Lookup(F(z)); !slices.Equal(got, zeros) {
				t.Fatalf("n=%d: lookup(%v) matches %d, want %d (-0 and +0 are one key)", n, z, len(got), len(zeros))
			}
		}
		if got := idx.Lookup(F(nan)); got != nil {
			t.Fatalf("n=%d: NaN probe matched %v", n, got)
		}
		pr, _ := idx.NewProbe(NewFltCol([]float64{0, negZero, nan}))
		want := []int32{0, 1}
		if n == 0 {
			want = nil
		}
		if got := idx.FilterVec(pr, 0, 3, true, nil); !slices.Equal(got, want) {
			t.Fatalf("n=%d: semijoin of {0, -0, NaN} kept %v, want %v", n, got, want)
		}
	}
}

// TestHashIndexDenseDetection: an oid column storing a dense ascending
// sequence gets the arithmetic accelerator even without density properties.
func TestHashIndexDenseDetection(t *testing.T) {
	for _, n := range blockSizes {
		v := make([]OID, n)
		for i := range v {
			v[i] = OID(i + 42)
		}
		idx := BuildHashIndex(NewOIDCol(v), nil)
		if idx.dense != (n > 0) {
			t.Fatalf("n=%d: dense = %v", n, idx.dense)
		}
		if idx.Card() != n {
			t.Fatalf("n=%d: card = %d", n, idx.Card())
		}
		if n > 0 {
			if got := idx.Lookup(O(42)); len(got) != 1 || got[0] != 0 {
				t.Fatalf("n=%d: lookup(42) = %v", n, got)
			}
			if got := idx.Lookup(O(OID(41 + n))); len(got) != 1 || got[0] != int32(n-1) {
				t.Fatalf("n=%d: lookup(%d) = %v", n, 41+n, got)
			}
		}
		if got := idx.Lookup(O(OID(42 + n))); got != nil {
			t.Fatalf("n=%d: lookup(%d) = %v", n, 42+n, got)
		}
		if n < 2 {
			continue
		}
		// one swapped pair defeats detection and takes the clustered build
		k := n / 2
		v[k-1], v[k] = v[k], v[k-1]
		idx = BuildHashIndex(NewOIDCol(v), nil)
		if idx.dense {
			t.Fatalf("n=%d: non-dense sequence mis-detected as dense", n)
		}
		if got := idx.Lookup(O(OID(42 + k))); len(got) != 1 || got[0] != int32(k-1) {
			t.Fatalf("n=%d: lookup(%d) = %v", n, 42+k, got)
		}
	}
}

// TestHashIndexDenseVoid: dense accelerators answer by arithmetic.
func TestHashIndexDenseVoid(t *testing.T) {
	idx := BuildHashIndex(NewVoid(100, 5), nil)
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

// TestHashIndexProbeKindMismatch: a probe whose kind cannot occur in the
// indexed column is refused — no row of it would match (Lookup misses every
// value of another kind), so callers answer without probing.
func TestHashIndexProbeKindMismatch(t *testing.T) {
	idx := BuildHashIndex(NewIntCol([]int64{1, 2, 3}), nil)
	if _, ok := idx.NewProbe(NewFltCol([]float64{1, 2})); ok {
		t.Fatal("float probe into int index must be refused")
	}
	if got := idx.Lookup(F(1)); got != nil {
		t.Fatalf("float lookup into int index matched: %v", got)
	}
	if _, ok := idx.NewProbe(NewIntCol([]int64{9})); !ok {
		t.Fatal("int probe into int index must be accepted")
	}
	// oid and void share one key space
	vidx := BuildHashIndex(NewOIDCol([]OID{5, 6}), nil)
	if _, ok := vidx.NewProbe(NewVoid(5, 3)); !ok {
		t.Fatal("void probe into oid index must be accepted")
	}
}

// TestProbeKernelsEqualLookup: over every window shape, FilterVec (both
// polarities) and JoinVec emit exactly what a per-row boxed Lookup loop
// emits, in the same order — for every probe kind against every index it can
// probe (the six fixed kinds, strings, void; bucketed and dense indexes;
// exact and verified inexact reps; NaN, -0.0 and duplicate keys), and for
// probes that are views at a non-zero offset, over windows starting mid-block.
func TestProbeKernelsEqualLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const m = 700 // probe rows: more than two probe blocks
	const viewOff = 77
	type pair struct {
		name         string
		build, probe Column
	}
	var pairs []pair
	for _, n := range []int{0, 1, 64} {
		builds := kernelTestColumns(rng, n, false)
		probes := kernelTestColumns(rng, m, false)
		for kind, col := range builds {
			pairs = append(pairs, pair{fmt.Sprintf("%s/n=%d", kind, n), col, probes[kind]})
		}
		denseOIDs := make([]OID, n) // an oid column the build detects as dense
		for i := range denseOIDs {
			denseOIDs[i] = OID(5 + i)
		}
		pairs = append(pairs,
			pair{fmt.Sprintf("oid-into-void/n=%d", n), NewVoid(3, n), probes[KOID]},
			pair{fmt.Sprintf("void-into-void/n=%d", n), NewVoid(3, n), NewVoid(0, m)},
			pair{fmt.Sprintf("void-into-dense-oid/n=%d", n), NewOIDCol(denseOIDs), NewVoid(0, m)},
			pair{fmt.Sprintf("void-into-oid/n=%d", n), builds[KOID], NewVoid(0, m)})
		// Probes that are views at a non-zero offset: the kernels address a
		// window's rows relative to the view, never its backing.
		long := kernelTestColumns(rng, m+viewOff, false)
		for kind, col := range builds {
			pairs = append(pairs, pair{fmt.Sprintf("%s-view/n=%d", kind, n), col, SliceView(long[kind], viewOff, m)})
		}
		voidView := SliceView(NewVoid(0, m+4), 4, m)
		pairs = append(pairs,
			pair{fmt.Sprintf("void-view-into-void/n=%d", n), NewVoid(3, n), voidView},
			pair{fmt.Sprintf("void-view-into-dense-oid/n=%d", n), NewOIDCol(denseOIDs), voidView},
			pair{fmt.Sprintf("void-view-into-oid/n=%d", n), builds[KOID], voidView})
	}
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	special := make([]float64, m)
	for i := range special {
		special[i] = []float64{0, negZero, nan, 1.5, 2.5, 7}[rng.Intn(6)]
	}
	pairs = append(pairs, pair{"flt-special", NewFltCol([]float64{nan, 0, 1.5, negZero, 1.5, nan, 9}), NewFltCol(special)})

	shapes := []struct {
		name   string
		lo, hi int
	}{
		{"empty", 9, 9},
		{"full", 0, m},
		{"window", 130, 130 + 300},
		{"single", 41, 42},
		{"last", m - 1, m},
		{"window-257", 101, 358},
		{"window-513", m - 513, m},
		{"mid-block-across", probeBlock - 3, 2*probeBlock + 5},
	}
	for _, pc := range pairs {
		idx := BuildHashIndex(pc.build, nil)
		pr, ok := idx.NewProbe(pc.probe)
		if !ok {
			t.Fatalf("%s: probe refused", pc.name)
		}
		for _, sh := range shapes {
			var hits, misses, wantL, wantR []int32
			for i := int32(sh.lo); i < int32(sh.hi); i++ {
				js := idx.Lookup(pc.probe.Get(int(i)))
				if len(js) > 0 {
					hits = append(hits, i)
				} else {
					misses = append(misses, i)
				}
				for _, j := range js {
					wantL = append(wantL, i)
					wantR = append(wantR, j)
				}
			}
			label := pc.name + "/" + sh.name
			if got := idx.FilterVec(pr, sh.lo, sh.hi, true, nil); fmt.Sprint(got) != fmt.Sprint(hits) {
				t.Fatalf("%s: FilterVec(true) = %v, want %v", label, got, hits)
			}
			if got := idx.FilterVec(pr, sh.lo, sh.hi, false, nil); fmt.Sprint(got) != fmt.Sprint(misses) {
				t.Fatalf("%s: FilterVec(false) = %v, want %v", label, got, misses)
			}
			if gotL, gotR := idx.JoinVec(pr, sh.lo, sh.hi, nil, nil); fmt.Sprint(gotL, gotR) != fmt.Sprint(wantL, wantR) {
				t.Fatalf("%s: JoinVec = %v/%v, want %v/%v", label, gotL, gotR, wantL, wantR)
			}
		}
	}
	// the table covers both accelerator layouts
	if !BuildHashIndex(NewVoid(3, 64), nil).dense || !BuildHashIndex(NewOIDCol([]OID{5, 6, 7}), nil).dense ||
		BuildHashIndex(NewOIDCol([]OID{5, 7, 6}), nil).dense {
		t.Fatal("dense detection changed: the dense/bucketed rows above no longer cover both layouts")
	}
}

// TestKeyRepSemantics pins the map-key equality semantics of the reps.
// TestFilterVecSettlesOnFirstMatch: over heavily duplicated string and float
// keys (inexact reps, so every match is verified) FilterVec costs one
// verification per probe row — not one per (row, duplicate) — and allocates
// nothing beyond its output.
func TestFilterVecSettlesOnFirstMatch(t *testing.T) {
	const n, distinct = 20000, 10
	strs, flts := make([]string, n), make([]float64, n)
	for i := range strs {
		strs[i] = fmt.Sprintf("key-%d", i%distinct)
		flts[i] = float64(i%distinct) + 0.5
	}
	for name, col := range map[string]Column{"str": NewStrColFromStrings(strs), "flt": NewFltCol(flts)} {
		idx := BuildHashIndex(col, nil)
		pr, ok := idx.NewProbe(col)
		if !ok || pr.eq == nil {
			t.Fatalf("%s: want a verified probe (ok=%v)", name, ok)
		}
		calls, eq := 0, pr.eq
		pr.eq = func(pi, bi int32) bool { calls++; return eq(pi, bi) }
		out := make([]int32, 0, n)
		if got := idx.FilterVec(pr, 0, n, true, out); len(got) != n {
			t.Fatalf("%s: semijoin kept %d of %d rows", name, len(got), n)
		}
		if calls > n {
			t.Fatalf("%s: %d verifications for %d rows: a settled row was walked on", name, calls, n)
		}
		if got := idx.FilterVec(pr, 0, n, false, out); len(got) != 0 {
			t.Fatalf("%s: difference kept %d rows, want 0", name, len(got))
		}
		if a := testing.AllocsPerRun(3, func() { idx.FilterVec(pr, 0, n, true, out) }); a != 0 {
			t.Fatalf("%s: FilterVec allocates %.0f times per call, want 0", name, a)
		}
	}
}

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
	g := NewGrouper(a.Verifier())
	var slots []int32
	for i := 0; i < 5; i++ {
		s, _ := g.Slot(a.Rep[i], int32(i))
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

// TestMergeJoinPairsParity: the typed merge kernel equals a boxed
// nested-loop reference on sorted inputs for every orderable kind, in join
// mode and in semi mode (each matching left position once).
// TestKeysEqSettlesMixCollisions: two different exact composite keys whose
// Mix reps collide must still get two slots — KeysEq compares exact keys on
// their reps, since Mix is not injective.
func TestKeysEqSettlesMixCollisions(t *testing.T) {
	// Solve Mix(a1, b1) == Mix(a2, b2) for b2: the multiplier of b is odd, so
	// it has an inverse mod 2^64 (Newton's iteration doubles the correct bits).
	const cb = 0x94D049BB133111EB
	inv := uint64(cb)
	for range 6 {
		inv *= 2 - cb*inv
	}
	a1, b1, a2 := uint64(3), uint64(5), uint64(4)
	b2 := (Mix(a1, b1) ^ Mix(a2, 0)) * inv
	if Mix(a1, b1) != Mix(a2, b2) {
		t.Fatal("no collision constructed")
	}
	ka := NewKeyRep(NewIntCol([]int64{int64(a1), int64(a2)}))
	kb := NewKeyRep(NewIntCol([]int64{int64(b1), int64(b2)}))
	g := NewGrouper(&KeysEq{ka, kb})
	for i := range int32(2) {
		g.Slot(Mix(ka.Rep[i], kb.Rep[i]), i)
	}
	if g.Len() != 2 {
		t.Fatalf("(%d,%d) and (%d,%d) share a slot", a1, b1, a2, b2)
	}
}

func TestMergeJoinPairsParity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	check := func(name string, lt, rh Column) {
		t.Helper()
		lpos, rpos, ok := MergeJoinPairs(lt, rh, false, nil, nil)
		if !ok {
			t.Fatalf("%s: no typed merge path", name)
		}
		var wantL, wantR []int32
		for i := 0; i < lt.Len(); i++ {
			for j := 0; j < rh.Len(); j++ {
				if lt.Get(i) == rh.Get(j) {
					wantL = append(wantL, int32(i))
					wantR = append(wantR, int32(j))
				}
			}
		}
		if len(lpos) != len(wantL) {
			t.Fatalf("%s: %d pairs, want %d", name, len(lpos), len(wantL))
		}
		for i := range lpos {
			if lpos[i] != wantL[i] || rpos[i] != wantR[i] {
				t.Fatalf("%s: pair %d = (%d,%d), want (%d,%d)", name, i, lpos[i], rpos[i], wantL[i], wantR[i])
			}
		}
		semi, _, _ := MergeJoinPairs(lt, rh, true, nil, nil)
		wantSemi := slices.Compact(wantL)
		if !slices.Equal(semi, wantSemi) {
			t.Fatalf("%s: semi rows %v, want %v", name, semi, wantSemi)
		}
	}
	for _, n := range []int{0, 1, 50} {
		cols := kernelTestColumns(rng, n, false)
		for kind, col := range cols {
			if kind == KBit {
				continue
			}
			sorted := SortOnTail(New("x", NewVoid(0, n), col, 0)).T
			other := SortOnTail(New("y", NewVoid(0, n), kernelTestColumns(rng, n, false)[kind], 0)).T
			check(fmt.Sprintf("%s/n=%d", kind, n), sorted, other)
		}
		// A void column merges as its oid sequence, against oids (values
		// 0..15, duplicated) below, inside and past its range, and against
		// another void column.
		oids := SortOnTail(New("o", NewVoid(0, n), cols[KOID], 0)).T
		for _, seq := range []OID{0, 5, 12, 20} {
			for _, m := range []int{0, 1, 8} {
				v := NewVoid(seq, m)
				check(fmt.Sprintf("void(%d,%d)×oid/n=%d", seq, m, n), v, oids)
				check(fmt.Sprintf("oid×void(%d,%d)/n=%d", seq, m, n), oids, v)
				check(fmt.Sprintf("void(%d,%d)×void(3,%d)", seq, m, n), v, NewVoid(3, n))
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
