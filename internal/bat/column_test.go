package bat

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/storage"
)

// layoutCase is one column kind of the three physical layouts: the six
// FixedCol instantiations, StrCol and VoidCol.
type layoutCase struct {
	kind  Kind
	width int64 // BUN entry stride in bytes; 0 for void
	col   Column
	want  func(i int) Value
	// transient is the column Gather and UnshareColumn materialize into:
	// the same layout, except that void entries materialize as oids.
	transient Kind
}

const layoutRows = 64

func layoutCases() []layoutCase {
	oids := make([]OID, layoutRows)
	ints := make([]int64, layoutRows)
	flts := make([]float64, layoutRows)
	chrs := make([]byte, layoutRows)
	bits := make([]bool, layoutRows)
	dates := make([]int32, layoutRows)
	strs := make([]string, layoutRows)
	for i := range oids {
		oids[i] = OID(3 * i)
		ints[i] = int64(-7 * i)
		flts[i] = float64(i) / 2
		chrs[i] = byte('a' + i%26)
		bits[i] = i%3 == 0
		dates[i] = int32(9000 + i)
		strs[i] = fmt.Sprintf("s%03d", i)
	}
	return []layoutCase{
		{KOID, 4, NewOIDCol(oids), func(i int) Value { return O(oids[i]) }, KOID},
		{KInt, 8, NewIntCol(ints), func(i int) Value { return I(ints[i]) }, KInt},
		{KFlt, 8, NewFltCol(flts), func(i int) Value { return F(flts[i]) }, KFlt},
		{KChr, 1, NewChrCol(chrs), func(i int) Value { return C(chrs[i]) }, KChr},
		{KBit, 1, NewBitCol(bits), func(i int) Value { return B(bits[i]) }, KBit},
		{KDate, 4, NewDateCol(dates), func(i int) Value { return D(dates[i]) }, KDate},
		{KStr, 4, NewStrColFromStrings(strs), func(i int) Value { return S(strs[i]) }, KStr},
		{KVoid, 0, NewVoid(100, layoutRows), func(i int) Value { return O(OID(100 + i)) }, KOID},
	}
}

// bytePager is a pager with one page per byte, so a touched span is visible
// byte for byte: re-touching it hits, touching just outside it faults.
func bytePager() *storage.Tracker { return storage.NewPager(1, 0).NewTracker() }

// assertSpan checks that exactly bytes [off, off+n) of heap are resident in
// p's pool.
func assertSpan(t *testing.T, label string, p *storage.Tracker, heap storage.HeapID, off, n int64) {
	t.Helper()
	if got := int64(p.Pool().Resident()); got != n {
		t.Fatalf("%s: %d bytes touched, want %d", label, got, n)
	}
	before := p.Faults()
	p.TouchRange(heap, off, n)
	if p.Faults() != before {
		t.Fatalf("%s: touched span is not [%d,%d)", label, off, off+n)
	}
}

func assertValues(t *testing.T, label string, got Column, want func(i int) Value, at func(i int) int, n int) {
	t.Helper()
	if got.Len() != n {
		t.Fatalf("%s: len %d, want %d", label, got.Len(), n)
	}
	for i := 0; i < n; i++ {
		if got.Get(i) != want(at(i)) {
			t.Fatalf("%s: [%d] = %s, want %s", label, i, got.Get(i), want(at(i)))
		}
	}
}

// TestColumnLayouts pins, for every kind, the behaviour the three layouts
// share: boxing, touch accounting at the element's own stride (base column
// and offset view), view vs owned accounting, persistence, gather and
// unshare.
func TestColumnLayouts(t *testing.T) {
	const lo, vn = 5, 20 // the view covers rows [5, 25)
	ident := func(i int) int { return i }
	for _, tc := range layoutCases() {
		t.Run(tc.kind.String(), func(t *testing.T) {
			col := tc.col
			if col.Kind() != tc.kind {
				t.Fatalf("kind = %s", col.Kind())
			}
			assertValues(t, "base", col, tc.want, ident, layoutRows)

			// Persist: transient until asked, then idempotent.
			if col.Heap() != 0 {
				t.Fatal("fresh column already has a heap id")
			}
			col.Persist()
			heap := col.Heap()
			col.Persist()
			if col.Heap() != heap || (heap == 0) != (tc.kind == KVoid) {
				t.Fatalf("heap id %d, then %d after a second Persist", heap, col.Heap())
			}

			view := SliceView(col, lo, vn)
			if view.Kind() != tc.kind || view.Heap() != heap {
				t.Fatalf("view kind %s heap %d, want %s %d", view.Kind(), view.Heap(), tc.kind, heap)
			}
			assertValues(t, "view", view, tc.want, func(i int) int { return lo + i }, vn)

			// OwnedBytes: a view owns nothing, a base column its ByteSize.
			if col.OwnedBytes() != col.ByteSize() || view.OwnedBytes() != 0 {
				t.Fatalf("owned bytes: base %d of %d, view %d", col.OwnedBytes(), col.ByteSize(), view.OwnedBytes())
			}
			if tc.kind != KStr && (col.ByteSize() != layoutRows*tc.width || view.ByteSize() != vn*tc.width) {
				t.Fatalf("byte sizes %d/%d at width %d", col.ByteSize(), view.ByteSize(), tc.width)
			}

			// Touch spans, in bytes of the BUN heap. base is the heap entry
			// offset of the touched column's row 0; a string touches one
			// extra offset entry per span (its end) plus its characters.
			for _, side := range []struct {
				name string
				c    Column
				base int64
			}{{"base", col, 0}, {"view", view, lo}} {
				w, c := tc.width, side.c
				extra := int64(0)
				if tc.kind == KStr {
					extra = 1
				}
				p := bytePager()
				c.TouchPositions(p, []int32{3})
				if tc.kind == KStr {
					// one offset byte-page plus the 4 characters of "sNNN"
					if got := p.Pool().Resident(); got != 1+4 {
						t.Fatalf("%s TouchPositions: %d bytes touched, want 5", side.name, got)
					}
				} else if w > 0 {
					assertSpan(t, side.name+" TouchPositions", p, heap, (side.base+3)*w, 1)
				}
				spans := []struct {
					name string
					i, n int64
					do   func(p *storage.Tracker)
				}{
					{"TouchRange", 2, 7, func(p *storage.Tracker) { c.TouchRange(p, 2, 7) }},
					{"TouchAll", 0, int64(c.Len()), func(p *storage.Tracker) { c.TouchAll(p) }},
				}
				for _, sp := range spans {
					p := bytePager()
					sp.do(p)
					label := side.name + " " + sp.name
					switch {
					case tc.kind == KVoid:
						if p.Faults() != 0 {
							t.Fatalf("%s: void column faulted", label)
						}
					case tc.kind == KStr:
						sc := c.(*StrCol)
						chars := int64(sc.Off[sp.i+sp.n] - sc.Off[sp.i])
						if got := int64(p.Pool().Resident()); got != (sp.n+1)*4+chars {
							t.Fatalf("%s: %d bytes touched, want %d", label, got, (sp.n+1)*4+chars)
						}
						before := p.Faults()
						p.TouchRange(heap, (side.base+sp.i)*4, (sp.n+extra)*4)
						p.TouchRange(sc.charHeap, int64(sc.Off[sp.i]), chars)
						if p.Faults() != before {
							t.Fatalf("%s: spans not anchored at heap offset %d", label, side.base+sp.i)
						}
					default:
						assertSpan(t, label, p, heap, (side.base+sp.i)*w, sp.n*w)
					}
				}
			}

			// Reading nothing costs nothing, in every layout: an empty range
			// (an empty vector window, TouchAll of an empty column) and an
			// empty position list touch no page and advise no span.
			for _, c := range []Column{col, view, SliceView(col, lo, 0)} {
				p := bytePager()
				c.TouchRange(p, 2, 0)
				c.TouchPositions(p, nil)
				c.TouchPositions(p, []int32{})
				if c.Len() == 0 {
					c.TouchAll(p)
				}
				if p.Faults()+p.Hits() != 0 || p.Pool().Resident() != 0 {
					t.Fatalf("empty touches of a %d-row column charged %d touches, %d bytes resident",
						c.Len(), p.Faults()+p.Hits(), p.Pool().Resident())
				}
			}

			// A multi-row TouchPositions is the per-row sequence: the same
			// bytes resident, one touch per position for the fixed widths.
			if tc.kind != KVoid {
				p := bytePager()
				view.TouchPositions(p, []int32{5, 1, 5, 9})
				one := bytePager()
				for _, i := range []int32{5, 1, 5, 9} {
					view.TouchPositions(one, []int32{i})
				}
				if p.Pool().Resident() != one.Pool().Resident() || p.Faults() != one.Faults() || p.Hits() != one.Hits() {
					t.Fatalf("TouchPositions batch %d resident %d+%d, row at a time %d resident %d+%d",
						p.Pool().Resident(), p.Faults(), p.Hits(), one.Pool().Resident(), one.Faults(), one.Hits())
				}
				if tc.kind != KStr && p.Faults()+p.Hits() != 4 {
					t.Fatalf("4 positions counted as %d touches", p.Faults()+p.Hits())
				}
			}

			// Gather: a contiguous run is a view, anything else a transient
			// copy.
			run, mix := []int32{7, 8, 9, 10}, []int32{9, 2, 2, 40}
			for _, g := range []struct {
				name string
				got  Column
				perm []int32
			}{
				{"Gather run", Gather(col, run), run},
				{"Gather copy", Gather(col, mix), mix},
			} {
				assertValues(t, g.name, g.got, tc.want, func(i int) int { return int(g.perm[i]) }, len(g.perm))
				isRun := g.perm[0] == 7
				switch {
				case isRun && (g.got.Kind() != tc.kind || g.got.OwnedBytes() != 0 || g.got.Heap() != heap):
					t.Fatalf("%s: not a view of the operand (%s, owns %d, heap %d)", g.name, g.got.Kind(), g.got.OwnedBytes(), g.got.Heap())
				case !isRun && (g.got.Kind() != tc.transient || g.got.isView() || g.got.Heap() != 0 ||
					g.got.OwnedBytes() != g.got.ByteSize()):
					t.Fatalf("%s: not a transient copy (%s, view %v, heap %d)", g.name, g.got.Kind(), g.got.isView(), g.got.Heap())
				}
			}

			// UnshareColumn: identity on an owning column, a compact
			// transient copy of a view (void views own nothing to begin with).
			if UnshareColumn(col) != col {
				t.Fatal("unshare copied a column that owns its backing")
			}
			un := UnshareColumn(view)
			assertValues(t, "unshare", un, tc.want, func(i int) int { return lo + i }, vn)
			if tc.kind == KVoid {
				if un != view {
					t.Fatal("unshare copied a void view")
				}
			} else if un == view || un.isView() || un.Heap() != 0 || un.OwnedBytes() != un.ByteSize() {
				t.Fatalf("unshare of a view: view %v, heap %d, owns %d of %d", un.isView(), un.Heap(), un.OwnedBytes(), un.ByteSize())
			}
			if tc.kind == KStr && un.ByteSize() != (vn+1)*4+vn*4 {
				t.Fatalf("unshared string view kept %d bytes, want the %d of its own rows", un.ByteSize(), (vn+1)*4+vn*4)
			}

			// Boxing never allocates, for any kind.
			for _, c := range []Column{col, view} {
				if a := testing.AllocsPerRun(100, func() { sinkValue = c.Get(7) }); a != 0 {
					t.Fatalf("Get allocates %.0f times per call", a)
				}
			}
		})
	}
}

var sinkValue Value

// TestMappedColTouchSpans: a heap-backed column is born persistent, and a
// view's touches are counted in bytes at the element stride, anchored at
// the view offset: a range faults the pages it spans, a full scan of the
// view then faults the rest of the view's span and nothing outside it.
func TestMappedColTouchSpans(t *testing.T) {
	const n = 1 << 17
	pages := func(lo, hi int64) uint64 {
		return uint64((hi-1)/storage.DefaultPageSize - lo/storage.DefaultPageSize + 1)
	}
	check := func(name string, c Column, w int64) {
		t.Helper()
		if c.Heap() == 0 {
			t.Fatalf("%s: mapped column is not persistent", name)
		}
		tr := storage.NewPager(0, 0).NewTracker()
		v := SliceView(c, 1000, n-1000)
		v.TouchRange(tr, 10, n/2)
		if got, want := tr.Faults(), pages(1010*w, (1010+n/2)*w); got != want {
			t.Fatalf("%s: range faulted %d pages, want %d", name, got, want)
		}
		v.TouchAll(tr)
		if got, want := tr.Faults(), pages(1000*w, n*w); got != want {
			t.Fatalf("%s: range and scan faulted %d pages, want %d", name, got, want)
		}
	}
	check("oid", NewMappedCol(make([]OID, n)), 4)
	check("int", NewMappedCol(make([]int64, n)), 8)
	check("flt", NewMappedCol(make([]float64, n)), 8)
	check("chr", NewMappedCol(make([]byte, n)), 1)
	check("bit", NewMappedCol(make([]bool, n)), 1)
	check("date", NewMappedCol(make([]int32, n)), 4)
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
