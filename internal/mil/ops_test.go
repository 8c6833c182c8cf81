package mil

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bat"
	"repro/internal/storage"
)

func oidIntBAT(name string, heads []bat.OID, tails []int64, props bat.Props) *bat.BAT {
	return bat.New(name, bat.NewOIDCol(heads), bat.NewIntCol(tails), props)
}

func tailsInt(b *bat.BAT) []int64 {
	out := make([]int64, b.Len())
	for i := range out {
		out[i] = b.TailValue(i).I
	}
	return out
}

func headsOID(b *bat.BAT) []bat.OID {
	out := make([]bat.OID, b.Len())
	for i := range out {
		out[i] = b.HeadValue(i).OID()
	}
	return out
}

// --- select ---------------------------------------------------------------

func TestSelectEqScanAndBinsearchAgree(t *testing.T) {
	heads := []bat.OID{10, 11, 12, 13, 14, 15}
	tails := []int64{5, 3, 5, 9, 1, 5}
	unsorted := oidIntBAT("u", heads, tails, 0)
	ctx := &Ctx{}
	scan := SelectEq(ctx, unsorted, bat.I(5))
	if ctx.LastAlgo() != "scan-select" {
		t.Fatalf("algo = %s", ctx.LastAlgo())
	}
	if got := headsOID(scan); len(got) != 3 || got[0] != 10 || got[1] != 12 || got[2] != 15 {
		t.Fatalf("scan heads = %v", got)
	}

	sorted := bat.SortOnTail(unsorted)
	bs := SelectEq(ctx, sorted, bat.I(5))
	if ctx.LastAlgo() != "binsearch-select" {
		t.Fatalf("algo = %s", ctx.LastAlgo())
	}
	a, b := headsOID(scan), headsOID(bs)
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("scan %v != binsearch %v", a, b)
		}
	}
}

func TestSelectRangeBounds(t *testing.T) {
	b := oidIntBAT("x", []bat.OID{0, 1, 2, 3, 4}, []int64{10, 20, 30, 40, 50}, 0)
	cases := []struct {
		lo, hi         *bat.Value
		loIncl, hiIncl bool
		want           []int64
	}{
		{ptr(bat.I(20)), ptr(bat.I(40)), true, true, []int64{20, 30, 40}},
		{ptr(bat.I(20)), ptr(bat.I(40)), false, true, []int64{30, 40}},
		{ptr(bat.I(20)), ptr(bat.I(40)), true, false, []int64{20, 30}},
		{ptr(bat.I(20)), ptr(bat.I(40)), false, false, []int64{30}},
		{nil, ptr(bat.I(25)), true, true, []int64{10, 20}},
		{ptr(bat.I(35)), nil, true, true, []int64{40, 50}},
		{nil, nil, true, true, []int64{10, 20, 30, 40, 50}},
		{ptr(bat.I(60)), nil, true, true, nil},
	}
	for ci, c := range cases {
		for _, sorted := range []bool{false, true} {
			in := b
			if sorted {
				in = bat.SortOnTail(b)
			}
			got := tailsInt(SelectRange(nil, in, c.lo, c.hi, c.loIncl, c.hiIncl))
			if len(got) != len(c.want) {
				t.Fatalf("case %d sorted=%v: got %v want %v", ci, sorted, got, c.want)
			}
			for i := range got {
				if got[i] != c.want[i] {
					t.Fatalf("case %d sorted=%v: got %v want %v", ci, sorted, got, c.want)
				}
			}
		}
	}
}

func ptr(v bat.Value) *bat.Value { return &v }

func TestSelectPreservesProps(t *testing.T) {
	b := oidIntBAT("x", []bat.OID{1, 2, 3, 4}, []int64{10, 20, 30, 40}, bat.HOrdered|bat.HKey|bat.TOrdered|bat.TKey)
	out := SelectRange(nil, b, ptr(bat.I(15)), ptr(bat.I(35)), true, true)
	if !out.Props.Has(bat.HOrdered | bat.HKey | bat.TOrdered | bat.TKey) {
		t.Fatalf("props = %s", out.Props)
	}
	if err := out.CheckProps(); err != nil {
		t.Fatal(err)
	}
}

func TestSelectBit(t *testing.T) {
	b := bat.New("p", bat.NewOIDCol([]bat.OID{1, 2, 3}), bat.NewBitCol([]bool{true, false, true}), 0)
	out := SelectBit(nil, b)
	if got := headsOID(out); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("heads = %v", got)
	}
}

func TestSelectOnStrings(t *testing.T) {
	b := bat.New("s", bat.NewOIDCol([]bat.OID{1, 2, 3}),
		bat.NewStrColFromStrings([]string{"BUILDING", "MACHINERY", "BUILDING"}), 0)
	out := SelectEq(nil, b, bat.S("BUILDING"))
	if out.Len() != 2 {
		t.Fatalf("len = %d", out.Len())
	}
}

func TestSelectOnFloatsCharsDates(t *testing.T) {
	fb := bat.New("f", bat.NewOIDCol([]bat.OID{1, 2, 3}), bat.NewFltCol([]float64{0.05, 0.06, 0.07}), 0)
	if got := SelectRange(nil, fb, ptr(bat.F(0.05)), ptr(bat.F(0.06)), true, true); got.Len() != 2 {
		t.Fatalf("flt len = %d", got.Len())
	}
	cb := bat.New("c", bat.NewOIDCol([]bat.OID{1, 2}), bat.NewChrCol([]byte{'R', 'N'}), 0)
	if got := SelectEq(nil, cb, bat.C('R')); got.Len() != 1 {
		t.Fatalf("chr len = %d", got.Len())
	}
	db := bat.New("d", bat.NewOIDCol([]bat.OID{1, 2, 3}),
		bat.NewDateCol([]int32{8000, 9000, 10000}), 0)
	if got := SelectRange(nil, db, ptr(bat.D(8500)), nil, true, true); got.Len() != 2 {
		t.Fatalf("date len = %d", got.Len())
	}
}

// Property: select(eq) on sorted and unsorted layouts returns the same BUN
// multiset.
func TestSelectEqSortedUnsortedEquivalent(t *testing.T) {
	f := func(tails []int64, pick int64) bool {
		if len(tails) == 0 {
			return true
		}
		needle := tails[abs(int(pick))%len(tails)] % 10
		for i := range tails {
			tails[i] %= 10
		}
		heads := make([]bat.OID, len(tails))
		for i := range heads {
			heads[i] = bat.OID(i)
		}
		u := oidIntBAT("u", heads, tails, 0)
		s := bat.SortOnTail(u)
		a := headsOID(SelectEq(nil, u, bat.I(needle)))
		b := headsOID(SelectEq(nil, s, bat.I(needle)))
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// --- semijoin ---------------------------------------------------------------

func semijoinBrute(l, r *bat.BAT) map[bat.OID]int {
	set := map[bat.Value]bool{}
	for i := 0; i < r.Len(); i++ {
		set[r.HeadValue(i)] = true
	}
	out := map[bat.OID]int{}
	for i := 0; i < l.Len(); i++ {
		if set[l.HeadValue(i)] {
			out[l.HeadValue(i).OID()]++
		}
	}
	return out
}

func TestSemijoinVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lh := make([]bat.OID, 200)
	lt := make([]int64, 200)
	for i := range lh {
		lh[i] = bat.OID(i)
		lt[i] = rng.Int63n(50)
	}
	rh := make([]bat.OID, 60)
	for i := range rh {
		rh[i] = bat.OID(rng.Intn(250)) // some misses
	}
	rh = dedupeOIDs(rh)
	r := bat.New("r", bat.NewOIDCol(rh), bat.NewVoid(0, len(rh)), bat.HKey)

	// hash variant: unsorted left
	lUnsorted := oidIntBAT("l", shuffleOIDs(rng, lh), lt, 0)
	ctx := &Ctx{}
	hres := Semijoin(ctx, lUnsorted, r)
	if ctx.LastAlgo() != "hash-semijoin" {
		t.Fatalf("algo = %s", ctx.LastAlgo())
	}
	want := semijoinBrute(lUnsorted, r)
	checkSemijoin(t, "hash", hres, want)

	// merge variant: both ordered
	lSorted := oidIntBAT("l", lh, lt, bat.HOrdered|bat.HKey)
	rSorted := SortTail(nil, bat.New("rs", bat.NewVoid(0, len(rh)), bat.NewOIDCol(rh), 0), false).Mirror()
	ctx = &Ctx{}
	mres := Semijoin(ctx, lSorted, rSorted)
	if ctx.LastAlgo() != "merge-semijoin" {
		t.Fatalf("algo = %s", ctx.LastAlgo())
	}
	checkSemijoin(t, "merge", mres, semijoinBrute(lSorted, rSorted))

	// datavector variant
	attr := bat.New("attr", bat.NewVoid(0, 200), bat.NewIntCol(lt), 0)
	dvBAT := bat.AttachDatavector(attr)
	ctx = &Ctx{}
	dres := Semijoin(ctx, dvBAT, r)
	if ctx.LastAlgo() != "datavector-semijoin" {
		t.Fatalf("algo = %s", ctx.LastAlgo())
	}
	checkSemijoin(t, "datavector", dres, semijoinBrute(dvBAT, r))

	// values must match the original attribute
	for i := 0; i < dres.Len(); i++ {
		oid := dres.HeadValue(i).OID()
		if got, want := dres.TailValue(i).I, lt[int(oid)]; got != want {
			t.Fatalf("datavector value for oid %d = %d, want %d", oid, got, want)
		}
	}
}

func checkSemijoin(t *testing.T, label string, got *bat.BAT, want map[bat.OID]int) {
	t.Helper()
	have := map[bat.OID]int{}
	for i := 0; i < got.Len(); i++ {
		have[got.HeadValue(i).OID()]++
	}
	if len(have) != len(want) {
		t.Fatalf("%s: %d distinct heads, want %d", label, len(have), len(want))
	}
	for k, c := range want {
		if have[k] != c {
			t.Fatalf("%s: head %d count %d, want %d", label, k, have[k], c)
		}
	}
}

func dedupeOIDs(in []bat.OID) []bat.OID {
	seen := map[bat.OID]bool{}
	var out []bat.OID
	for _, v := range in {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

func shuffleOIDs(rng *rand.Rand, in []bat.OID) []bat.OID {
	out := append([]bat.OID(nil), in...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func TestSyncSemijoinReturnsLeft(t *testing.T) {
	l := oidIntBAT("l", []bat.OID{5, 6, 7}, []int64{1, 2, 3}, 0)
	r := bat.New("r", l.H, bat.NewFltCol([]float64{9, 9, 9}), 0)
	ctx := &Ctx{}
	out := Semijoin(ctx, l, r)
	if ctx.LastAlgo() != "sync-semijoin" {
		t.Fatalf("algo = %s", ctx.LastAlgo())
	}
	if out.Len() != 3 {
		t.Fatalf("len = %d", out.Len())
	}
	if !bat.Synced(out, l) {
		t.Fatal("result must stay synced with left operand")
	}
}

// TestSameOIDs: the sync prechecks' positional oid comparison — shared
// backing at one offset, equal copies, a void sequence against oids and
// against a void — and its refusals: a view one row further on the same
// backing, a single differing oid, different lengths, no rows, non-oid
// kinds. Only one column by identity (bat.SameColumn, what bat.Synced
// reads) is proven without a scan: equal copies are not synced, and two
// empty columns of one kind (void or oid) are one column.
func TestSameOIDs(t *testing.T) {
	oids := bat.NewOIDCol([]bat.OID{5, 6, 7, 8})
	cases := []struct {
		name           string
		a, b           bat.Column
		want, identity bool
	}{
		{"same backing", oids, bat.SliceView(oids, 0, 4), true, true},
		{"shifted view", bat.SliceView(oids, 0, 3), bat.SliceView(oids, 1, 3), false, false},
		{"equal copy", oids, bat.NewOIDCol([]bat.OID{5, 6, 7, 8}), true, false},
		{"one differs", oids, bat.NewOIDCol([]bat.OID{5, 6, 9, 8}), false, false},
		{"oid vs void", oids, bat.NewVoid(5, 4), true, false},
		{"void vs oid", bat.NewVoid(5, 4), oids, true, false},
		{"oid vs shifted void", oids, bat.NewVoid(4, 4), false, false},
		{"void vs void", bat.NewVoid(3, 4), bat.NewVoid(3, 4), true, true},
		{"void vs other void", bat.NewVoid(3, 4), bat.NewVoid(2, 4), false, false},
		{"lengths", oids, bat.NewVoid(5, 3), false, false},
		{"empty", bat.NewOIDCol(nil), bat.NewVoid(0, 0), false, true},
		{"empty oids", bat.NewOIDCol(nil), bat.NewOIDCol(nil), false, true},
		{"empty int", bat.NewIntCol(nil), bat.NewOIDCol(nil), false, false},
		{"int", bat.NewIntCol([]int64{5, 6, 7, 8}), oids, false, false},
	}
	for _, c := range cases {
		if got := sameOIDs(nil, c.a, c.b); got != c.want {
			t.Errorf("%s: sameOIDs = %v, want %v", c.name, got, c.want)
		}
		if got := bat.SameColumn(c.a, c.b); got != c.identity {
			t.Errorf("%s: SameColumn = %v, want %v", c.name, got, c.identity)
		}
	}
}

// TestDenseProbe: denseProbe finds exactly the oids that lie in the dense
// sequence, wherever the others fall, and a void column's run of hits is
// the one a per-oid probe finds.
func TestDenseProbe(t *testing.T) {
	const base, n = 10, 5 // the sequence 10..14
	for _, c := range []bat.Column{
		bat.NewOIDCol([]bat.OID{0, 9, 10, 12, 14, 15, 1 << 31, 11}),
		bat.NewVoid(0, 3),   // below
		bat.NewVoid(8, 4),   // across the start
		bat.NewVoid(11, 2),  // inside
		bat.NewVoid(12, 10), // across the end
		bat.NewVoid(15, 3),  // above
		bat.NewVoid(0, 30),  // around
	} {
		var wantRows, wantPos []int32
		for i := 0; i < c.Len(); i++ {
			if o := c.Get(i).OID(); o >= base && o < base+n {
				wantRows, wantPos = append(wantRows, int32(i)), append(wantPos, int32(o-base))
			}
		}
		rows, pos, ok := denseProbe(c, base, n, true)
		if !ok || !slices.Equal(rows, wantRows) || !slices.Equal(pos, wantPos) {
			t.Errorf("%v: rows %v at %v (ok %v), want %v at %v", c, rows, pos, ok, wantRows, wantPos)
		}
		if rows, pos, _ := denseProbe(c, base, n, false); rows != nil || !slices.Equal(pos, wantPos) {
			t.Errorf("%v without rows: %v at %v, want none at %v", c, rows, pos, wantPos)
		}
	}
	if _, _, ok := denseProbe(bat.NewIntCol([]int64{10}), base, n, true); ok {
		t.Error("an int column probed as oids")
	}
}

// TestDatavectorSemijoinVoidHead: against a void right head the datavector
// semijoin's result is a view of the run the head meets, with and without a
// pager: both give the same BUNs, the same head kind and the same
// properties, so a traced plan and a served plan read the same claims
// downstream.
func TestDatavectorSemijoinVoidHead(t *testing.T) {
	l := bat.AttachDatavector(bat.New("a", bat.NewVoid(10, 5), bat.NewIntCol([]int64{5, 3, 9, 1, 7}), 0))
	for _, h := range []*bat.VoidCol{
		bat.NewVoid(0, 3), bat.NewVoid(8, 4), bat.NewVoid(10, 5), bat.NewVoid(12, 10), bat.NewVoid(0, 30),
	} {
		r := bat.New("r", h, bat.NewVoid(0, h.N), 0)
		label := fmt.Sprintf("void %d+%d", h.Seq, h.N)
		run := Semijoin(&Ctx{}, l, r)
		ctx := NewCtx(nil, Options{Pager: storage.NewPager(4096, 0)})
		looked := Semijoin(ctx, l, r)
		if ctx.LastAlgo() != "datavector-semijoin" {
			t.Fatalf("%s: took %s", label, ctx.LastAlgo())
		}
		assertSameBAT(t, label, run, looked)
		if run.H.Kind() != looked.H.Kind() {
			t.Errorf("%s: head %s, through the LOOKUP %s", label, run.H.Kind(), looked.H.Kind())
		}
		if run.Props != looked.Props {
			t.Errorf("%s: props %v, through the LOOKUP %v", label, run.Props, looked.Props)
		}
	}
}

// Property: semijoin result of every variant equals the brute-force filter.
func TestSemijoinMatchesBruteForce(t *testing.T) {
	f := func(lheads []uint16, rheads []uint16) bool {
		lh := make([]bat.OID, len(lheads))
		lt := make([]int64, len(lheads))
		for i, v := range lheads {
			lh[i] = bat.OID(v % 64)
			lt[i] = int64(i)
		}
		rh := make([]bat.OID, len(rheads))
		for i, v := range rheads {
			rh[i] = bat.OID(v % 64)
		}
		l := oidIntBAT("l", lh, lt, 0)
		r := bat.New("r", bat.NewOIDCol(rh), bat.NewVoid(0, len(rh)), 0)
		got := Semijoin(nil, l, r)
		want := semijoinBrute(l, r)
		total := 0
		for _, c := range want {
			total += c
		}
		if got.Len() != total {
			return false
		}
		have := map[bat.OID]int{}
		for i := 0; i < got.Len(); i++ {
			have[got.HeadValue(i).OID()]++
		}
		for k, c := range want {
			if have[k] != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// --- join -------------------------------------------------------------------

func joinBrute(l, r *bat.BAT) map[[2]int64]int {
	out := map[[2]int64]int{}
	for i := 0; i < l.Len(); i++ {
		for j := 0; j < r.Len(); j++ {
			if bat.Equal(l.TailValue(i), r.HeadValue(j)) {
				out[[2]int64{l.HeadValue(i).I, r.TailValue(j).I}]++
			}
		}
	}
	return out
}

func checkJoin(t *testing.T, label string, got *bat.BAT, want map[[2]int64]int) {
	t.Helper()
	have := map[[2]int64]int{}
	for i := 0; i < got.Len(); i++ {
		have[[2]int64{got.HeadValue(i).I, got.TailValue(i).I}]++
	}
	if len(have) != len(want) {
		t.Fatalf("%s: have %v want %v", label, have, want)
	}
	for k, c := range want {
		if have[k] != c {
			t.Fatalf("%s: pair %v count %d want %d", label, k, have[k], c)
		}
	}
}

func TestJoinVariantsAgree(t *testing.T) {
	// l[a(oid), b(oid)] joins r[c(oid), d(int)]
	lh := []bat.OID{100, 101, 102, 103, 104}
	lt := []bat.OID{2, 0, 2, 9, 1} // 9 misses
	l := bat.New("l", bat.NewOIDCol(lh), bat.NewOIDCol(lt), 0)

	// fetch-join: dense right head
	rDense := bat.New("r", bat.NewVoid(0, 4), bat.NewIntCol([]int64{10, 11, 12, 13}), 0)
	ctx := &Ctx{}
	fres := Join(ctx, l, rDense)
	if ctx.LastAlgo() != "fetch-join" {
		t.Fatalf("algo = %s", ctx.LastAlgo())
	}
	want := joinBrute(l, rDense)
	checkJoin(t, "fetch", fres, want)

	// hash-join: sparse unsorted right head
	rSparse := bat.New("r", bat.NewOIDCol([]bat.OID{2, 0, 3, 1}), bat.NewIntCol([]int64{12, 10, 13, 11}), 0)
	ctx = &Ctx{}
	hres := Join(ctx, l, rSparse)
	if ctx.LastAlgo() != "hash-join" {
		t.Fatalf("algo = %s", ctx.LastAlgo())
	}
	checkJoin(t, "hash", hres, joinBrute(l, rSparse))

	// merge-join: l tail-ordered, r head-ordered (but not dense)
	lSorted := bat.SortOnTail(l)
	rMerge := bat.New("r", bat.NewOIDCol([]bat.OID{0, 1, 2, 3}), bat.NewIntCol([]int64{10, 11, 12, 13}), bat.HOrdered|bat.HKey)
	// strip density so the dispatcher picks merge
	ctx = &Ctx{}
	mres := Join(ctx, lSorted, rMerge)
	if ctx.LastAlgo() != "merge-join" {
		t.Fatalf("algo = %s", ctx.LastAlgo())
	}
	checkJoin(t, "merge", mres, joinBrute(lSorted, rMerge))
}

func TestMergeJoinDuplicates(t *testing.T) {
	l := bat.New("l", bat.NewOIDCol([]bat.OID{1, 2, 3}), bat.NewOIDCol([]bat.OID{5, 5, 6}), bat.TOrdered)
	r := bat.New("r", bat.NewOIDCol([]bat.OID{5, 5, 6}), bat.NewIntCol([]int64{50, 51, 60}), bat.HOrdered)
	ctx := &Ctx{}
	out := Join(ctx, l, r)
	if ctx.LastAlgo() != "merge-join" {
		t.Fatalf("algo = %s", ctx.LastAlgo())
	}
	checkJoin(t, "merge-dup", out, joinBrute(l, r))
	if out.Len() != 5 { // 2*2 for key 5 + 1 for key 6
		t.Fatalf("len = %d, want 5", out.Len())
	}
}

// Property: hash join equals brute-force nested loop.
func TestJoinMatchesBruteForce(t *testing.T) {
	f := func(ltails, rheads []uint8) bool {
		lt := make([]bat.OID, len(ltails))
		lh := make([]bat.OID, len(ltails))
		for i, v := range ltails {
			lh[i] = bat.OID(i + 1000)
			lt[i] = bat.OID(v % 16)
		}
		rh := make([]bat.OID, len(rheads))
		rt := make([]int64, len(rheads))
		for i, v := range rheads {
			rh[i] = bat.OID(v % 16)
			rt[i] = int64(i)
		}
		l := bat.New("l", bat.NewOIDCol(lh), bat.NewOIDCol(lt), 0)
		r := bat.New("r", bat.NewOIDCol(rh), bat.NewIntCol(rt), 0)
		got := Join(nil, l, r)
		want := joinBrute(l, r)
		total := 0
		for _, c := range want {
			total += c
		}
		if got.Len() != total {
			return false
		}
		have := map[[2]int64]int{}
		for i := 0; i < got.Len(); i++ {
			have[[2]int64{got.HeadValue(i).I, got.TailValue(i).I}]++
		}
		for k, c := range want {
			if have[k] != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJoinMulti(t *testing.T) {
	// left: 3 elements keyed (supplier, part)
	lk1 := bat.New("lk1", bat.NewVoid(0, 3), bat.NewOIDCol([]bat.OID{1, 1, 2}), 0)
	lk2 := bat.New("lk2", bat.NewVoid(0, 3), bat.NewOIDCol([]bat.OID{10, 11, 10}), 0)
	// right: 2 elements keyed (supplier, part)
	rk1 := bat.New("rk1", bat.NewVoid(0, 2), bat.NewOIDCol([]bat.OID{1, 2}), 0)
	rk2 := bat.New("rk2", bat.NewVoid(0, 2), bat.NewOIDCol([]bat.OID{11, 10}), 0)
	out := JoinMulti(nil, []*bat.BAT{lk1, lk2}, []*bat.BAT{rk1, rk2})
	lids, rids := out.HeadValues(), out.TailValues()
	if len(lids) != 2 {
		t.Fatalf("matches = %d, want 2", len(lids))
	}
	// element ids: (1,11) at lid=1 matches rid=0; (2,10) at lid=2 matches rid=1
	found := map[[2]int64]bool{}
	for i := range lids {
		found[[2]int64{lids[i].I, rids[i].I}] = true
	}
	if !found[[2]int64{1, 0}] || !found[[2]int64{2, 1}] {
		t.Fatalf("pairs = %v/%v", lids, rids)
	}
}

func TestJoinMultiAlignsKeysOnHeads(t *testing.T) {
	// second key BAT stored in a different physical order than the first:
	// matching must go through head ids, not positions.
	lk1 := bat.New("lk1", bat.NewOIDCol([]bat.OID{7, 8}), bat.NewIntCol([]int64{1, 2}), 0)
	lk2 := bat.New("lk2", bat.NewOIDCol([]bat.OID{8, 7}), bat.NewIntCol([]int64{20, 10}), 0)
	rk1 := bat.New("rk1", bat.NewOIDCol([]bat.OID{100}), bat.NewIntCol([]int64{2}), 0)
	rk2 := bat.New("rk2", bat.NewOIDCol([]bat.OID{100}), bat.NewIntCol([]int64{20}), 0)
	out := JoinMulti(nil, []*bat.BAT{lk1, lk2}, []*bat.BAT{rk1, rk2})
	lids, rids := out.HeadValues(), out.TailValues()
	if len(lids) != 1 || lids[0].I != 8 || rids[0].I != 100 {
		t.Fatalf("pairs = %v/%v, want [8]/[100]", lids, rids)
	}
	// element 9 on the left has no second key: dropped, not misjoined
	lk3 := bat.New("lk3", bat.NewOIDCol([]bat.OID{9}), bat.NewIntCol([]int64{2}), 0)
	if out := JoinMulti(nil, []*bat.BAT{lk3, lk2}, []*bat.BAT{rk1, rk2}); out.Len() != 0 {
		t.Fatalf("missing-key element joined: %v", out.HeadValues())
	}
}

// --- unique / group ---------------------------------------------------------

func TestUnique(t *testing.T) {
	b := oidIntBAT("x", []bat.OID{1, 1, 2, 1}, []int64{5, 5, 5, 6}, 0)
	out := Unique(nil, b)
	if out.Len() != 3 {
		t.Fatalf("len = %d, want 3", out.Len())
	}
}

func TestGroupUnary(t *testing.T) {
	b := oidIntBAT("years", []bat.OID{1, 2, 3, 4, 5}, []int64{1994, 1995, 1994, 1996, 1995}, 0)
	g := GroupUnary(nil, b)
	if g.Len() != b.Len() {
		t.Fatalf("group result must keep operand length")
	}
	if !bat.Synced(g, b) {
		t.Fatal("group result must be synced with operand")
	}
	// same year -> same group oid; different year -> different
	ids := tailsGroup(g)
	if ids[0] != ids[2] || ids[1] != ids[4] {
		t.Fatalf("equal values must share group: %v", ids)
	}
	if ids[0] == ids[1] || ids[0] == ids[3] || ids[1] == ids[3] {
		t.Fatalf("distinct values must not share group: %v", ids)
	}
}

func tailsGroup(b *bat.BAT) []bat.OID {
	out := make([]bat.OID, b.Len())
	for i := range out {
		out[i] = b.TailValue(i).OID()
	}
	return out
}

func TestGroupBinaryRefines(t *testing.T) {
	// group on returnflag then refine by linestatus
	flags := bat.New("f", bat.NewVoid(0, 6), bat.NewChrCol([]byte{'A', 'A', 'N', 'N', 'R', 'R'}), 0)
	status := bat.New("s", bat.NewVoid(0, 6), bat.NewChrCol([]byte{'F', 'O', 'F', 'F', 'O', 'O'}), 0)
	g1 := GroupUnary(nil, flags)
	g2 := GroupBinary(nil, g1, status)
	ids := tailsGroup(g2)
	// (A,F),(A,O),(N,F),(N,F),(R,O),(R,O) -> 4 groups; rows 2,3 equal; 4,5 equal
	if ids[2] != ids[3] || ids[4] != ids[5] {
		t.Fatalf("refinement wrong: %v", ids)
	}
	distinct := map[bat.OID]bool{}
	for _, id := range ids {
		distinct[id] = true
	}
	if len(distinct) != 4 {
		t.Fatalf("distinct groups = %d, want 4", len(distinct))
	}
}

// Property: unary group assigns equal oids iff tail values are equal.
func TestGroupPartitionProperty(t *testing.T) {
	f := func(vals []int8) bool {
		tails := make([]int64, len(vals))
		for i, v := range vals {
			tails[i] = int64(v % 8)
		}
		heads := make([]bat.OID, len(vals))
		for i := range heads {
			heads[i] = bat.OID(i)
		}
		b := oidIntBAT("b", heads, tails, 0)
		g := GroupUnary(nil, b)
		ids := tailsGroup(g)
		for i := range ids {
			for j := range ids {
				if (tails[i] == tails[j]) != (ids[i] == ids[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// --- multiplex ----------------------------------------------------------------

func TestMultiplexAligned(t *testing.T) {
	price := bat.New("p", bat.NewVoid(0, 3), bat.NewFltCol([]float64{100, 200, 300}), 0)
	disc := bat.New("d", bat.NewVoid(0, 3), bat.NewFltCol([]float64{0.1, 0.2, 0.3}), 0)
	ctx := &Ctx{}
	factor := Multiplex(ctx, "-", []Operand{ConstArg(bat.F(1.0)), BATArg(disc)})
	if ctx.LastAlgo() != "aligned-multiplex" {
		t.Fatalf("algo = %s", ctx.LastAlgo())
	}
	rev := Multiplex(ctx, "*", []Operand{BATArg(price), BATArg(factor)})
	want := []float64{90, 160, 210}
	for i, w := range want {
		if got := rev.TailValue(i).F; got < w-1e-9 || got > w+1e-9 {
			t.Fatalf("rev[%d] = %v, want %v", i, got, w)
		}
	}
	if !bat.Synced(rev, price) {
		t.Fatal("aligned multiplex result must be synced with its first operand")
	}
}

func TestMultiplexHashAlignsOnHeads(t *testing.T) {
	a := bat.New("a", bat.NewOIDCol([]bat.OID{1, 2, 3}), bat.NewIntCol([]int64{10, 20, 30}), 0)
	b := bat.New("b", bat.NewOIDCol([]bat.OID{3, 1}), bat.NewIntCol([]int64{300, 100}), 0)
	ctx := &Ctx{}
	out := Multiplex(ctx, "+", []Operand{BATArg(a), BATArg(b)})
	if ctx.LastAlgo() != "hash-multiplex" {
		t.Fatalf("algo = %s", ctx.LastAlgo())
	}
	// head 2 has no partner: dropped (natural join)
	if out.Len() != 2 {
		t.Fatalf("len = %d, want 2", out.Len())
	}
	got := map[int64]int64{}
	for i := 0; i < out.Len(); i++ {
		got[out.HeadValue(i).I] = out.TailValue(i).I
	}
	if got[1] != 110 || got[3] != 330 {
		t.Fatalf("out = %v", got)
	}
}

func TestMultiplexYearAndComparisons(t *testing.T) {
	d := bat.New("d", bat.NewVoid(0, 2),
		bat.NewDateCol([]int32{int32(bat.MustDate("1994-03-15").I), int32(bat.MustDate("1995-07-01").I)}), 0)
	years := Multiplex(nil, "year", []Operand{BATArg(d)})
	if years.TailValue(0).I != 1994 || years.TailValue(1).I != 1995 {
		t.Fatalf("years = %v", years.TailValues())
	}
	lt := Multiplex(nil, "<", []Operand{BATArg(years), ConstArg(bat.I(1995))})
	if !lt.TailValue(0).Bool() || lt.TailValue(1).Bool() {
		t.Fatalf("compare wrong: %v", lt.TailValues())
	}
}

func TestMultiplexIfAndStringFuncs(t *testing.T) {
	ty := bat.New("t", bat.NewVoid(0, 3),
		bat.NewStrColFromStrings([]string{"PROMO BRUSHED", "STANDARD", "PROMO POLISHED"}), 0)
	isPromo := Multiplex(nil, "strstarts", []Operand{BATArg(ty), ConstArg(bat.S("PROMO"))})
	rev := bat.New("r", bat.NewVoid(0, 3), bat.NewFltCol([]float64{10, 20, 30}), 0)
	cond := Multiplex(nil, "if", []Operand{BATArg(isPromo), BATArg(rev), ConstArg(bat.F(0))})
	want := []float64{10, 0, 30}
	for i, w := range want {
		if got := cond.TailValue(i).AsFloat(); got != w {
			t.Fatalf("cond[%d] = %v, want %v", i, got, w)
		}
	}
}

// --- aggregates -----------------------------------------------------------------

func TestAggrAllFunctions(t *testing.T) {
	b := bat.New("g", bat.NewOIDCol([]bat.OID{1, 1, 2, 2, 2}),
		bat.NewFltCol([]float64{10, 20, 5, 15, 10}), 0)
	check := func(fn string, want map[bat.OID]float64) {
		t.Helper()
		out := Aggr(nil, fn, b)
		if out.Len() != 2 {
			t.Fatalf("%s len = %d", fn, out.Len())
		}
		for i := 0; i < out.Len(); i++ {
			h := out.HeadValue(i).OID()
			if got := out.TailValue(i).AsFloat(); got != want[h] {
				t.Fatalf("{%s}[%d] = %v, want %v", fn, h, got, want[h])
			}
		}
		if !out.Props.Has(bat.HKey) {
			t.Fatalf("{%s} result head must be key", fn)
		}
	}
	check("sum", map[bat.OID]float64{1: 30, 2: 30})
	check("count", map[bat.OID]float64{1: 2, 2: 3})
	check("avg", map[bat.OID]float64{1: 15, 2: 10})
	check("min", map[bat.OID]float64{1: 10, 2: 5})
	check("max", map[bat.OID]float64{1: 20, 2: 15})
}

// TestAggrOrderedFastPath: an ordered head has no variant of its own — a
// narrow one takes dense-aggr, a wide one hash-aggr — and still gives an
// ordered, key result head, equal to the boxed reference's.
func TestAggrOrderedFastPath(t *testing.T) {
	for _, c := range []struct {
		algo  string
		heads []bat.OID
	}{
		{"dense-aggr", []bat.OID{1, 1, 2, 3, 3}},
		{"hash-aggr", []bat.OID{1, 1, 1 << 20, 1 << 30, 1 << 30}},
	} {
		b := oidIntBAT("g", c.heads, []int64{1, 2, 3, 4, 5}, bat.HOrdered)
		for _, fn := range []string{"sum", "count", "avg", "min", "max"} {
			label := fmt.Sprintf("%s {%s}", c.algo, fn)
			ctx := &Ctx{}
			out := Aggr(ctx, fn, b)
			if ctx.LastAlgo() != c.algo {
				t.Fatalf("%s: algo = %s", label, ctx.LastAlgo())
			}
			if !out.Props.Has(bat.HOrdered | bat.HKey) {
				t.Fatalf("%s: ordered input gave result props %s, want an ordered, key head", label, out.Props)
			}
			sameBUNs(t, label, out, aggrBoxed(nil, fn, b))
		}
	}
}

// Property: ordered and hash aggregation agree.
func TestAggrOrderedHashAgree(t *testing.T) {
	f := func(raw []uint8) bool {
		n := len(raw)
		heads := make([]bat.OID, n)
		tails := make([]int64, n)
		for i, v := range raw {
			heads[i] = bat.OID(v % 5)
			tails[i] = int64(v)
		}
		sort.Slice(heads, func(i, j int) bool { return heads[i] < heads[j] })
		ordered := oidIntBAT("o", heads, tails, bat.HOrdered)
		hashed := oidIntBAT("h", heads, tails, 0)
		a := Aggr(nil, "sum", ordered)
		b := Aggr(nil, "sum", hashed)
		if a.Len() != b.Len() {
			return false
		}
		am := map[bat.OID]int64{}
		bm := map[bat.OID]int64{}
		for i := 0; i < a.Len(); i++ {
			am[a.HeadValue(i).OID()] = a.TailValue(i).I
			bm[b.HeadValue(i).OID()] = b.TailValue(i).I
		}
		for k, v := range am {
			if bm[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAggrScalar(t *testing.T) {
	b := bat.New("x", bat.NewOIDCol([]bat.OID{1, 2, 3}), bat.NewFltCol([]float64{1.5, 2.5, 6}), 0)
	out := AggrScalar(nil, "sum", b)
	if out.Len() != 1 {
		t.Fatalf("len = %d", out.Len())
	}
	if got := ScalarOf(out); got.F != 10 {
		t.Fatalf("sum = %v", got)
	}
	if got := ScalarOf(AggrScalar(nil, "count", b)); got.I != 3 {
		t.Fatalf("count = %v", got)
	}
	empty := bat.New("e", bat.NewOIDCol(nil), bat.NewFltCol(nil), 0)
	if got := ScalarOf(AggrScalar(nil, "sum", empty)); got.F != 0 {
		t.Fatalf("empty sum = %v", got)
	}
}

// --- set operations -----------------------------------------------------------

func TestUnionDiffIntersect(t *testing.T) {
	a := oidIntBAT("a", []bat.OID{1, 2, 3}, []int64{10, 20, 30}, 0)
	b := oidIntBAT("b", []bat.OID{3, 4}, []int64{30, 40}, 0)
	u := Union(nil, a, b)
	if u.Len() != 4 {
		t.Fatalf("union len = %d", u.Len())
	}
	d := Diff(nil, a, b)
	if d.Len() != 2 {
		t.Fatalf("diff len = %d", d.Len())
	}
	i := Intersect(nil, a, b)
	if i.Len() != 1 || i.HeadValue(0).OID() != 3 {
		t.Fatalf("intersect = %v", i.HeadValues())
	}
}

// Property: union/diff/intersect satisfy |A∪B| = |A| + |B∖A| and
// |A| = |A∩B| + |A∖B| on identifier sets.
func TestSetOpCardinalities(t *testing.T) {
	f := func(araw, braw []uint8) bool {
		a := idSet("a", araw)
		b := idSet("b", braw)
		u := Union(nil, a, b)
		d := Diff(nil, a, b)
		db := Diff(nil, b, a)
		i := Intersect(nil, a, b)
		return u.Len() == a.Len()+db.Len() && a.Len() == i.Len()+d.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// idSet builds an identified value set with unique heads from raw bytes.
func idSet(name string, raw []uint8) *bat.BAT {
	seen := map[bat.OID]bool{}
	var hs []bat.OID
	for _, v := range raw {
		o := bat.OID(v % 32)
		if !seen[o] {
			seen[o] = true
			hs = append(hs, o)
		}
	}
	ts := make([]int64, len(hs))
	for i := range ts {
		ts[i] = int64(hs[i]) * 10
	}
	return bat.New(name, bat.NewOIDCol(hs), bat.NewIntCol(ts), bat.HKey)
}

// --- sort / slice ----------------------------------------------------------------

func TestSortTailAndSlice(t *testing.T) {
	b := oidIntBAT("x", []bat.OID{1, 2, 3, 4}, []int64{30, 10, 40, 20}, 0)
	asc := SortTail(nil, b, false)
	if got := tailsInt(asc); got[0] != 10 || got[3] != 40 {
		t.Fatalf("asc = %v", got)
	}
	if !asc.Props.Has(bat.TOrdered) {
		t.Fatal("ascending sort must set TOrdered")
	}
	desc := SortTail(nil, b, true)
	if got := tailsInt(desc); got[0] != 40 || got[3] != 10 {
		t.Fatalf("desc = %v", got)
	}
	top2 := Slice(nil, desc, 2)
	if got := tailsInt(top2); len(got) != 2 || got[0] != 40 || got[1] != 30 {
		t.Fatalf("top2 = %v", got)
	}
	if Slice(nil, desc, 100).Len() != 4 {
		t.Fatal("overlong slice must clamp")
	}
}

func TestSortStability(t *testing.T) {
	// equal keys keep original head order (stable sort)
	b := oidIntBAT("x", []bat.OID{5, 6, 7}, []int64{1, 1, 1}, 0)
	s := SortTail(nil, b, false)
	if got := headsOID(s); got[0] != 5 || got[1] != 6 || got[2] != 7 {
		t.Fatalf("stability broken: %v", got)
	}
}
