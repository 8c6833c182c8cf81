package bat

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/storage"
)

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{I(1), I(2), -1},
		{I(2), I(2), 0},
		{I(3), I(2), 1},
		{F(1.5), F(2.5), -1},
		{I(2), F(2.0), 0}, // mixed numeric compares as float
		{F(2.5), I(2), 1}, // mixed numeric
		{S("a"), S("b"), -1},
		{S("b"), S("b"), 0},
		{C('A'), C('B'), -1},
		{B(false), B(true), -1},
		{D(100), D(200), -1},
		{O(5), O(7), -1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%s, %s) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestValueStringForms(t *testing.T) {
	if got := I(42).String(); got != "42" {
		t.Errorf("int: %s", got)
	}
	if got := S("hi").String(); got != `"hi"` {
		t.Errorf("str: %s", got)
	}
	if got := C('R').String(); got != "'R'" {
		t.Errorf("chr: %s", got)
	}
	if got := MustDate("1994-01-01").String(); got != "1994-01-01" {
		t.Errorf("date: %s", got)
	}
}

func TestDateRoundTrip(t *testing.T) {
	for _, s := range []string{"1970-01-01", "1992-06-15", "1998-12-01", "2026-06-12"} {
		v, err := DateFromString(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := DateString(v.I); got != s {
			t.Errorf("round trip %s -> %s", s, got)
		}
	}
	if _, err := DateFromString("not-a-date"); err == nil {
		t.Error("expected error for invalid date")
	}
}

// TestAppendDateMatchesTimeFormat checks the arithmetic date formatter
// against time.Format for every day from 1900-01-01 to 2100-12-31, for every
// negative day number back to year -221, and at both ends of the 4-digit
// year field.
func TestAppendDateMatchesTimeFormat(t *testing.T) {
	check := func(days int64) {
		want := time.Unix(days*86400, 0).UTC().Format("2006-01-02")
		if got := string(AppendDate(nil, days)); got != want {
			t.Fatalf("day %d: got %s, want %s", days, got, want)
		}
	}
	lo, hi := MustDate("1900-01-01").I, MustDate("2100-12-31").I
	for d := lo; d <= hi; d++ {
		check(d)
	}
	for d := int64(-1); d >= -800000; d-- {
		check(d)
	}
	for _, d := range []int64{-719528, -719529, 2932896, 2932897, -3000000, 3000000} {
		check(d)
	}
}

// TestAppendFltMatchesStrconv checks the four-decimal float formatter
// against strconv's 'f' format: random bit patterns over every exponent,
// exact ties (k/2^n) and their neighbours, decimals in the answers' ranges,
// and the edges of the 64-bit fast path.
func TestAppendFltMatchesStrconv(t *testing.T) {
	check := func(f float64) {
		if got, want := string(appendFlt(nil, f)), strconv.FormatFloat(f, 'f', 4, 64); got != want {
			t.Fatalf("%v (%#x): got %s, want %s", f, math.Float64bits(f), got, want)
		}
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200000; i++ {
		check(math.Float64frombits(rng.Uint64()))
		check(float64(rng.Int63n(1e12)) / 1e4 * float64(1-2*rng.Intn(2)))
		check(rng.Float64() * math.Pow(10, float64(rng.Intn(36)-18)))
	}
	for n := 0; n <= 70; n++ {
		for k := int64(0); k < 300; k++ {
			f := math.Ldexp(float64(k), -n)
			for _, g := range []float64{f, math.Nextafter(f, 0), math.Nextafter(f, 1e300), -f} {
				check(g)
			}
		}
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1.8e15, 1.8446744073709e15, 1.9e15, 1e300,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.Ldexp(1, 63), math.Ldexp(3, 64), math.Inf(1), math.NaN(), 0.00005, 0.00015} {
		check(f)
		check(-f)
	}
}

// TestAppendValueForms: the canonical rendering of every kind, from every
// column layout, is the form answers have always been compared in.
func TestAppendValueForms(t *testing.T) {
	cols := []Column{
		NewVoid(7, 3),
		NewOIDCol([]OID{0, 9, 1 << 31}),
		NewIntCol([]int64{-5, 0, 1 << 40}),
		NewFltCol([]float64{0.00005, -0.0, 2.5, 1e21, math.NaN(), math.Inf(-1)}),
		NewChrCol([]byte{'R', '\'', 0, 0xe9}),
		NewBitCol([]bool{true, false}),
		NewDateCol([]int32{0, -1, 10592}),
		NewStrColFromStrings([]string{"", "a\"b", "née", "\x00<&>", "\xff"}),
	}
	for _, c := range cols {
		for i := 0; i < c.Len(); i++ {
			v := c.Get(i)
			var want string
			switch v.K {
			case KOID:
				want = fmt.Sprintf("%d@0", v.I)
			case KFlt:
				want = fmt.Sprintf("%.4f", v.F)
			case KChr:
				want = "'" + string(rune(v.I)) + "'"
			case KStr:
				want = strconv.Quote(v.S)
			case KDate:
				want = time.Unix(v.I*86400, 0).UTC().Format("2006-01-02")
			default:
				want = v.String()
			}
			if got := string(AppendValue(nil, v)); got != want {
				t.Errorf("%s[%d]: %q, want %q", c.Kind(), i, got, want)
			}
		}
	}
}

func TestColumnsRoundTrip(t *testing.T) {
	cases := []struct {
		kind Kind
		vals []Value
	}{
		{KOID, []Value{O(3), O(1), O(2)}},
		{KInt, []Value{I(10), I(-5), I(0)}},
		{KFlt, []Value{F(1.5), F(-2.25)}},
		{KStr, []Value{S("alpha"), S(""), S("gamma")}},
		{KChr, []Value{C('x'), C('y')}},
		{KBit, []Value{B(true), B(false)}},
		{KDate, []Value{D(9000), D(10000)}},
	}
	for _, c := range cases {
		col := FromValues(c.kind, c.vals)
		if col.Kind() != c.kind {
			t.Errorf("%s: kind = %s", c.kind, col.Kind())
		}
		if col.Len() != len(c.vals) {
			t.Errorf("%s: len = %d", c.kind, col.Len())
		}
		for i, want := range c.vals {
			if got := col.Get(i); !Equal(got, want) {
				t.Errorf("%s[%d] = %s, want %s", c.kind, i, got, want)
			}
		}
	}
}

func TestVoidColumn(t *testing.T) {
	v := NewVoid(100, 5)
	if v.ByteSize() != 0 {
		t.Error("void column must occupy zero space")
	}
	for i := 0; i < 5; i++ {
		if got := v.Get(i); got.OID() != OID(100+i) {
			t.Errorf("void[%d] = %s", i, got)
		}
	}
	// Void columns never fault.
	p := storage.NewPager(4096, 0).NewTracker()
	v.TouchAll(p)
	v.TouchPositions(p, []int32{3})
	if p.Faults() != 0 {
		t.Errorf("void faulted %d times", p.Faults())
	}
}

func TestStrColAliasesHeap(t *testing.T) {
	c := NewStrColFromStrings([]string{"hello", "", "world"})
	if c.At(0) != "hello" || c.At(1) != "" || c.At(2) != "world" {
		t.Fatalf("contents wrong: %q %q %q", c.At(0), c.At(1), c.At(2))
	}
	if c.Len() != 3 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestNewBATPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New("bad", NewVoid(0, 3), NewIntCol([]int64{1}), 0)
}

func TestVoidHeadImpliesDenseProps(t *testing.T) {
	b := New("x", NewVoid(0, 4), NewIntCol([]int64{4, 3, 2, 1}), 0)
	if !b.Props.Has(HDense | HOrdered | HKey) {
		t.Fatalf("props = %s", b.Props)
	}
	if err := b.CheckProps(); err != nil {
		t.Fatal(err)
	}
}

func TestMirrorSwapsAndIsFree(t *testing.T) {
	b := New("customer_name", NewOIDCol([]OID{101, 102, 103}),
		NewStrColFromStrings([]string{"Annita", "Martin", "Peter"}), HOrdered|HKey)
	m := b.Mirror()
	if m.H != b.T || m.T != b.H {
		t.Fatal("mirror must share columns")
	}
	if !m.Props.Has(TOrdered | TKey) {
		t.Fatalf("mirror props = %s", m.Props)
	}
	if m.Mirror() != b {
		t.Fatal("mirror of mirror must be the original")
	}
	if got := m.HeadValue(0); got.S != "Annita" {
		t.Fatalf("mirror head = %s", got)
	}
}

func TestMirrorSharesHashAccelerators(t *testing.T) {
	b := New("x", NewOIDCol([]OID{1, 2, 3}), NewIntCol([]int64{10, 20, 30}), 0)
	h := b.Mirror().HeadHash()
	if got := len(h.Lookup(I(20))); got != 1 {
		t.Fatalf("lookup count = %d", got)
	}
	// The mirror's head slot is the original's tail slot.
	b.DropHashes()
	if b.Mirror().HasHeadHash() {
		t.Fatal("mirror head hash must alias original tail hash")
	}
}

func TestHashIndexDuplicates(t *testing.T) {
	col := NewIntCol([]int64{5, 7, 5, 5, 7})
	h := BuildHashIndex(col, nil)
	if h.Card() != 2 {
		t.Fatalf("card = %d", h.Card())
	}
	if got := h.Lookup(I(5)); len(got) != 3 {
		t.Fatalf("positions of 5 = %v", got)
	}
	if got := h.Lookup(I(99)); got != nil {
		t.Fatalf("missing value returned %v", got)
	}
}

// TestSyncedDetection: synced is head identity — one head column, two voids
// of one seqbase, or views of one backing array at one offset (of any
// kind) — and never equal content alone.
func TestSyncedDetection(t *testing.T) {
	a := New("a", NewVoid(10, 3), NewIntCol([]int64{1, 2, 3}), 0)
	b := New("b", NewVoid(10, 3), NewFltCol([]float64{1, 2, 3}), 0)
	c := New("c", NewVoid(20, 3), NewIntCol([]int64{1, 2, 3}), 0)
	if !Synced(a, b) {
		t.Error("same dense seqbase must be synced")
	}
	if Synced(a, c) {
		t.Error("different seqbase must not be synced")
	}
	d := New("d", NewOIDCol([]OID{4, 2, 9, 7}), NewIntCol([]int64{1, 2, 3, 4}), 0)
	e := New("e", NewOIDCol([]OID{4, 2, 9, 7}), NewIntCol([]int64{7, 8, 9, 0}), 0)
	if Synced(d, e) {
		t.Error("equal-content distinct oid arrays must not be synced")
	}
	if f := New("f", d.H, NewFltCol([]float64{0, 0, 0, 0}), 0); !Synced(d, f) {
		t.Error("one shared head column must be synced")
	}
	view := func(h Column, lo int) *BAT { return New("v", SliceView(h, lo, 3), NewVoid(0, 3), 0) }
	if !Synced(view(d.H, 0), New("g", SliceView(d.H, 0, 3), NewVoid(5, 3), 0)) {
		t.Error("views of one backing array at one offset must be synced")
	}
	if Synced(view(d.H, 0), view(d.H, 1)) {
		t.Error("views at different offsets must not be synced")
	}
	if Synced(view(d.H, 0), d) {
		t.Error("a shorter view must not be synced")
	}
	s := NewStrColFromStrings([]string{"x", "y", "z", "w"})
	if !Synced(view(s, 1), view(s, 1)) || Synced(view(s, 0), view(s, 1)) {
		t.Error("string views are synced exactly at one offset")
	}
	// A mirror is headed by its original's tail column: synced with the
	// BATs headed by that column, not with the original.
	m := New("m", NewIntCol([]int64{3, 1, 2, 0}), NewOIDCol([]OID{0, 1, 2, 3}), 0).Mirror()
	if !Synced(m, New("h", m.H, NewIntCol([]int64{0, 0, 0, 0}), 0)) {
		t.Error("a BAT headed by a mirror's head column must be synced with the mirror")
	}
	if Synced(m, m.Mirror()) {
		t.Error("a mirror must not be synced with its original")
	}
}

func TestGatherAllKinds(t *testing.T) {
	perm := []int32{2, 0, 1}
	cols := []Column{
		NewVoid(5, 3),
		NewOIDCol([]OID{10, 11, 12}),
		NewIntCol([]int64{100, 200, 300}),
		NewFltCol([]float64{1.5, 2.5, 3.5}),
		NewChrCol([]byte{'a', 'b', 'c'}),
		NewBitCol([]bool{true, false, true}),
		NewDateCol([]int32{1, 2, 3}),
		NewStrColFromStrings([]string{"x", "y", "z"}),
	}
	for _, col := range cols {
		g := Gather(col, perm)
		for i, p := range perm {
			want := col.Get(int(p))
			if want.K == KVoid {
				want.K = KOID
			}
			if got := g.Get(i); !Equal(got, want) {
				t.Errorf("%s gather[%d] = %s, want %s", col.Kind(), i, got, want)
			}
		}
	}
}

func TestSortOnTail(t *testing.T) {
	b := New("attr", NewVoid(0, 5), NewIntCol([]int64{30, 10, 50, 20, 40}), 0)
	s := SortOnTail(b)
	if !s.Props.Has(TOrdered) {
		t.Fatal("sorted BAT must carry TOrdered")
	}
	if err := s.CheckProps(); err != nil {
		t.Fatal(err)
	}
	wantTails := []int64{10, 20, 30, 40, 50}
	wantHeads := []OID{1, 3, 0, 4, 2}
	for i := range wantTails {
		if got := s.TailValue(i).I; got != wantTails[i] {
			t.Errorf("tail[%d] = %d, want %d", i, got, wantTails[i])
		}
		if got := s.HeadValue(i).OID(); got != wantHeads[i] {
			t.Errorf("head[%d] = %d, want %d", i, got, wantHeads[i])
		}
	}
}

func TestDatavectorProbeDense(t *testing.T) {
	dv := NewDenseDatavector(100, NewIntCol([]int64{7, 8, 9}))
	if pos, ok := dv.Probe(101); !ok || pos != 1 {
		t.Fatalf("probe(101) = %d,%v", pos, ok)
	}
	if _, ok := dv.Probe(99); ok {
		t.Fatal("probe below base must miss")
	}
	if _, ok := dv.Probe(103); ok {
		t.Fatal("probe past end must miss")
	}
	if dv.Len() != 3 || dv.ByteSize() != 24 {
		t.Fatalf("extent of %d oids, %d bytes; want 3 and 24 (the vector's)", dv.Len(), dv.ByteSize())
	}
}

func TestAttachDatavector(t *testing.T) {
	// oid-ordered attribute BAT as produced by bulk load
	b := New("Customer_name", NewVoid(101, 4),
		NewStrColFromStrings([]string{"Annita", "Martin", "Peter", "Annita"}), 0)
	s := AttachDatavector(b)
	if s.Datavector() == nil {
		t.Fatal("datavector missing")
	}
	if !s.Props.Has(TOrdered) {
		t.Fatal("result must be tail-ordered")
	}
	// The vector preserves oid order: probe 103 must give "Peter".
	dv := s.Datavector()
	pos, ok := dv.Probe(103)
	if !ok {
		t.Fatal("probe(103) missed")
	}
	if got := dv.Vector.Get(pos); got.S != "Peter" {
		t.Fatalf("vector value = %s", got)
	}
}

// TestAppendAttrEqualsResort: two chained appends build exactly what one
// AttachDatavector over the concatenated values builds — properties, head
// layout (an all-ties column keeps its void head), rows and datavector —
// for every kind, with empty sides and a non-zero extent base.
func TestAppendAttrEqualsResort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, allDup := range []bool{false, true} {
		for _, sz := range [][3]int{{0, 5, 3}, {20, 0, 1}, {50, 7, 9}, {40, 40, 40}} {
			parts := make([]map[Kind]Column, 3)
			for i, n := range sz {
				parts[i] = kernelTestColumns(rng, n, allDup)
			}
			for kind, a := range parts[0] {
				got := AttachDatavector(New("x", NewVoid(101, a.Len()), a, 0))
				all := a
				for _, p := range parts[1:] {
					got = AppendAttr(got, p[kind])
					all = Concat(all, p[kind])
				}
				want := AttachDatavector(New("x", NewVoid(101, all.Len()), all, 0))
				where := fmt.Sprintf("%s sizes %v allDup %v", kind, sz, allDup)
				if got.Props != want.Props || fmt.Sprintf("%T", got.H) != fmt.Sprintf("%T", want.H) {
					t.Errorf("%s: %T{%s}, want %T{%s}", where, got.H, got.Props, want.H, want.Props)
					continue
				}
				gdv, wdv := got.Datavector(), want.Datavector()
				if gdv.Base != wdv.Base || gdv.Len() != wdv.Len() {
					t.Errorf("%s: datavector %d+%d, want %d+%d", where, gdv.Base, gdv.Len(), wdv.Base, wdv.Len())
				}
				for i := 0; i < want.Len(); i++ {
					if got.HeadValue(i) != want.HeadValue(i) || got.TailValue(i) != want.TailValue(i) ||
						gdv.Vector.Get(i) != wdv.Vector.Get(i) {
						t.Errorf("%s: row %d differs", where, i)
						break
					}
				}
			}
		}
	}
}

// TestAppendAttrGrowsInPlace: a chain of appends grows one vector in place
// and still builds exactly what AttachDatavector over the concatenated
// values builds. The first append copies — the loaded vector has cap ==
// len, as a mapped column has — and leaves spare capacity, which the next
// three write into. A second append onto a vector already appended to (a
// fork) loses the claim and copies, and the first append's result stays
// intact. A caller's array with spare capacity is never written past its
// length, and every vector AppendAttr hands out is clipped: cap == len.
func TestAppendAttrGrowsInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, allDup := range []bool{false, true} {
		for kind, col := range kernelTestColumns(rng, 200, allDup) {
			where := fmt.Sprintf("%s allDup %v", kind, allDup)
			got := AttachDatavector(New("x", NewVoid(7, col.Len()), col, 0))
			var prev *BAT
			all, prevAll := col, col
			for i := 0; i < 4; i++ {
				frag := kernelTestColumns(rng, 5, allDup)[kind]
				prev, got = got, AppendAttr(got, frag)
				prevAll, all = all, Concat(all, frag)
				checkAppended(t, fmt.Sprintf("%s append %d", where, i), got, all)
				if inPlace := sameVectorArray(got, prev); inPlace != (i > 0) {
					t.Errorf("%s append %d: in place %v, want %v", where, i, inPlace, i > 0)
				}
			}
			frag := kernelTestColumns(rng, 5, allDup)[kind]
			fork := AppendAttr(prev, frag)
			if sameVectorArray(fork, prev) {
				t.Errorf("%s: the fork wrote into the claimed vector", where)
			}
			checkAppended(t, where+" fork", fork, Concat(prevAll, frag))
			checkAppended(t, where+" after the fork", got, all)
		}
	}

	owned := make([]int64, 3, 64)
	got := AppendAttr(AttachDatavector(New("x", NewVoid(7, 3), NewIntCol(owned), 0)), NewIntCol([]int64{5, -1}))
	checkAppended(t, "caller's spare capacity", got, NewIntCol([]int64{0, 0, 0, 5, -1}))
	if slices.ContainsFunc(owned[:cap(owned)], func(x int64) bool { return x != 0 }) {
		t.Error("AppendAttr wrote into its caller's spare capacity")
	}
}

// checkAppended compares an AppendAttr result with AttachDatavector over
// all its values: properties, layouts, byte sizes, rows and datavector;
// and requires the vector to be clipped.
func checkAppended(t *testing.T, where string, got *BAT, all Column) {
	t.Helper()
	want := AttachDatavector(New("x", NewVoid(7, all.Len()), all, 0))
	gdv, wdv := got.Datavector(), want.Datavector()
	for _, c := range [][2]Column{{got.H, want.H}, {got.T, want.T}, {gdv.Vector, wdv.Vector}} {
		if fmt.Sprintf("%T", c[0]) != fmt.Sprintf("%T", c[1]) || c[0].Len() != c[1].Len() ||
			c[0].ByteSize() != c[1].ByteSize() || c[0].OwnedBytes() != c[1].OwnedBytes() {
			t.Errorf("%s: %T of %d rows, %d/%d bytes, want %T of %d rows, %d/%d bytes", where,
				c[0], c[0].Len(), c[0].ByteSize(), c[0].OwnedBytes(), c[1], c[1].Len(), c[1].ByteSize(), c[1].OwnedBytes())
			return
		}
		for i := 0; i < c[0].Len(); i++ {
			if c[0].Get(i) != c[1].Get(i) {
				t.Errorf("%s: row %d: %s, want %s", where, i, c[0].Get(i), c[1].Get(i))
				return
			}
		}
	}
	if got.Props != want.Props || gdv.Base != wdv.Base {
		t.Errorf("%s: props %s base %d, want %s base %d", where, got.Props, gdv.Base, want.Props, wdv.Base)
	}
	if v := reflect.ValueOf(gdv.Vector).Elem().Field(0); v.Cap() != v.Len() {
		t.Errorf("%s: vector cap %d, len %d", where, v.Cap(), v.Len())
	}
}

// sameVectorArray reports whether a's datavector vector lies in b's
// backing array.
func sameVectorArray(a, b *BAT) bool {
	return a.Datavector().Vector.first() == b.Datavector().Vector.first()
}

// Property: SortOnTail output is a permutation of the input and is sorted.
func TestSortOnTailIsSortedPermutation(t *testing.T) {
	f := func(vals []int64) bool {
		b := New("x", NewVoid(0, len(vals)), NewIntCol(vals), 0)
		s := SortOnTail(b)
		if s.Len() != b.Len() {
			return false
		}
		got := make([]int64, 0, s.Len())
		for i := 0; i < s.Len(); i++ {
			got = append(got, s.TailValue(i).I)
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			return false
		}
		want := append([]int64(nil), vals...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		// heads must point back at the right original positions
		for i := 0; i < s.Len(); i++ {
			if vals[s.HeadValue(i).I] != got[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Compare is a total order (antisymmetric, transitive on a sample).
func TestCompareIsTotalOrder(t *testing.T) {
	f := func(a, b, c int64) bool {
		va, vb, vc := I(a), I(b), I(c)
		if Compare(va, vb) != -Compare(vb, va) {
			return false
		}
		if Compare(va, vb) <= 0 && Compare(vb, vc) <= 0 && Compare(va, vc) > 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: hash index lookup finds exactly the positions holding the value.
func TestHashIndexComplete(t *testing.T) {
	f := func(vals []int64) bool {
		col := NewIntCol(vals)
		h := BuildHashIndex(col, nil)
		for i, v := range vals {
			found := false
			for _, p := range h.Lookup(I(v)) {
				if int(p) == i {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCheckPropsDetectsViolations(t *testing.T) {
	b := New("bad", NewOIDCol([]OID{2, 1}), NewIntCol([]int64{1, 1}), 0)
	b.Props |= HOrdered
	if err := b.CheckProps(); err == nil {
		t.Error("unordered head not detected")
	}
	b.Props = TKey
	if err := b.CheckProps(); err == nil {
		t.Error("duplicate tail not detected")
	}
}

func TestStrColTouchAccountsBothHeaps(t *testing.T) {
	strs := make([]string, 3000)
	for i := range strs {
		strs[i] = "some-reasonably-long-string-payload-############"
	}
	c := NewStrColFromStrings(strs)
	c.Persist()
	p := storage.NewPager(4096, 0).NewTracker()
	c.TouchAll(p)
	// offsets: 3001*4 bytes -> 3 pages; chars: 3000*49 bytes -> 36 pages
	wantOff := (int64(len(c.Off))*4 + 4095) / 4096
	wantChars := (int64(len(c.Chars)) + 4095) / 4096
	if got := int64(p.Faults()); got != wantOff+wantChars {
		t.Fatalf("faults = %d, want %d", got, wantOff+wantChars)
	}
}

func BenchmarkGatherInt(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 1 << 16
	vals := make([]int64, n)
	perm := make([]int32, n)
	for i := range vals {
		vals[i] = rng.Int63()
		perm[i] = int32(rng.Intn(n))
	}
	col := NewIntCol(vals)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gather(col, perm)
	}
}
