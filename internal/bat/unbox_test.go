package bat

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// sortedPermBoxed is the sort SortedPerm replaced: sort.SliceStable over the
// permutation itself, through a closure that dereferences it twice per
// comparison. It stays as the oracle, its float order cmp.Less's total one
// (a NaN before every number, NaNs tied), so the stable permutation is
// unique and the typed sort must land on it.
func sortedPermBoxed(col Column, desc bool) []int32 {
	perm := make([]int32, col.Len())
	for i := range perm {
		perm[i] = int32(i)
	}
	var less func(i, j int) bool
	switch c := col.(type) {
	case *FltCol:
		less = func(i, j int) bool { return cmp.Less(c.V[perm[i]], c.V[perm[j]]) }
	case *StrCol:
		less = func(i, j int) bool { return c.At(int(perm[i])) < c.At(int(perm[j])) }
	default:
		less = func(i, j int) bool { return Less(col.Get(int(perm[i])), col.Get(int(perm[j]))) }
	}
	if desc {
		asc := less
		less = func(i, j int) bool { return asc(j, i) }
	}
	sort.SliceStable(perm, less)
	return perm
}

// TestSortedPermEqualsSliceStable: the typed pair sort yields the permutation
// of the old closure sort for every kind × direction × input order, NaN and
// signed zeros included, at 0, 1, 2 and many rows.
func TestSortedPermEqualsSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, n := range []int{0, 1, 2, 19, 20, 21, 1500} {
		for _, allDup := range []bool{false, true} {
			cols := kernelTestColumns(rng, n, allDup)
			cols[KVoid] = NewVoid(5, n)
			for kind, col := range cols {
				inputs := map[string]Column{"random": col}
				if asc := SortedPerm(col, false); kind != KVoid {
					inputs["sorted"] = Gather(col, asc).unshare()
					slices.Reverse(asc)
					inputs["reversed"] = Gather(col, asc).unshare()
				}
				if kind == KFlt && n > 2 {
					v := append([]float64(nil), col.(*FltCol).V...)
					for i := range v {
						switch rng.Intn(6) {
						case 0:
							v[i] = math.NaN()
						case 1:
							v[i] = math.Copysign(0, -1)
						case 2:
							v[i] = 0
						}
					}
					inputs["nan-and-zeros"] = NewFltCol(v)
				}
				for name, in := range inputs {
					for _, desc := range []bool{false, true} {
						got, want := SortedPerm(in, desc), sortedPermBoxed(in, desc)
						if fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("%s/%s/n=%d/alldup=%v/desc=%v: perm %v, sort.SliceStable gives %v",
								kind, name, n, allDup, desc, got, want)
						}
					}
				}
			}
		}
	}
}

// TestStrGatherAndConcatByteIdentical: gathering and concatenating string
// columns heap to heap yields exactly the offsets and characters of a column
// rebuilt from the boxed strings — over views too, whose offsets do not
// start at zero.
func TestStrGatherAndConcatByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	strs := make([]string, 400)
	for i := range strs {
		strs[i] = fmt.Sprintf("%0*d", rng.Intn(9), i) // lengths 0..8, empty strings included
	}
	base := NewStrColFromStrings(strs)
	view := base.sliceView(100, 200).(*StrCol)
	same := func(label string, got Column, want []string) {
		t.Helper()
		g, w := got.(*StrCol), NewStrColFromStrings(want)
		if !slices.Equal(g.Off, w.Off) || g.Chars != w.Chars || g.isView() {
			t.Fatalf("%s: offsets/characters differ from the rebuilt column", label)
		}
	}
	for name, c := range map[string]*StrCol{"base": base, "view": view, "empty": NewStrColFromStrings(nil)} {
		perm := make([]int32, 0, 300)
		for i := 0; i < 300 && c.Len() > 0; i++ {
			perm = append(perm, int32(rng.Intn(c.Len())))
		}
		want := make([]string, len(perm))
		for i, p := range perm {
			want[i] = c.At(int(p))
		}
		same(name+"/gather", c.gather(perm), want)
		all := make([]string, c.Len())
		for i := range all {
			all[i] = c.At(i)
		}
		same(name+"+view/concat", Concat(c, view), append(all, strs[100:300]...))
	}
}

// TestConcatKinds: Concat appends b's entries to a's for every layout, reads
// void entries as oids, lets an empty side be of any kind, and refuses two
// non-empty sides of different kinds.
func TestConcatKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	a, b := kernelTestColumns(rng, 30, false), kernelTestColumns(rng, 20, false)
	a[KVoid], b[KVoid] = NewVoid(3, 30), NewVoid(90, 20)
	for kind := range a {
		for _, pair := range [][2]Column{{a[kind], b[kind]}, {a[kind], NewIntCol(nil)}, {NewStrColFromStrings(nil), b[kind]}} {
			got := Concat(pair[0], pair[1])
			if got.Kind() != normKind(kind) || got.Len() != pair[0].Len()+pair[1].Len() || got.isView() {
				t.Fatalf("%s: concat is %d %s entries (view=%v)", kind, got.Len(), got.Kind(), got.isView())
			}
			for i := 0; i < got.Len(); i++ {
				var want Value
				if i < pair[0].Len() {
					want = pair[0].Get(i)
				} else {
					want = pair[1].Get(i - pair[0].Len())
				}
				if got.Get(i) != want {
					t.Fatalf("%s: entry %d is %s, want %s", kind, i, got.Get(i), want)
				}
			}
		}
	}
	if got := Concat(NewVoid(0, 2), NewOIDCol([]OID{9})); got.Kind() != KOID || got.Get(2) != O(9) {
		t.Fatalf("void ++ oid = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("concat of int and flt columns did not panic")
		}
	}()
	Concat(a[KInt], b[KFlt])
}

// TestGrouperGrowthKeepsSlotOrder: a Grouper that starts at 256 buckets and
// doubles hands out the slot ids and first-occurrence rows of a table sized
// for its keys up front — across the growth boundaries, for adversarial reps
// that collide in their low bits, with and without a verifier.
func TestGrouperGrowthKeepsSlotOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for _, distinct := range []int{1, 255, 256, 257, 65535, 65536, 65537} {
		for _, keyOf := range map[string]func(k int) uint64{
			"dense":    func(k int) uint64 { return uint64(k) },
			"low-bits": func(k int) uint64 { return uint64(k) << 40 }, // equal in the low 40 bits
			"hashed":   func(k int) uint64 { return uint64(k) * fibMul },
		} {
			n := 2*distinct + 100
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = int64(rng.Intn(distinct))
				if i < distinct {
					vals[i] = int64(i) // every key occurs
				}
			}
			for _, eq := range []KeyEq{nil, intEq(vals)} {
				g := NewGrouper(eq)
				first := map[int64]int32{} // the pre-sized reference: a map from key to slot
				var wantRows []int32
				for i, v := range vals {
					want, seen := first[v]
					if !seen {
						want = int32(len(first))
						first[v] = want
						wantRows = append(wantRows, int32(i))
					}
					got, fresh := g.Slot(keyOf(int(v)), int32(i))
					if got != want || fresh == seen {
						t.Fatalf("distinct=%d row %d: slot %d (fresh=%v), reference %d (fresh=%v)", distinct, i, got, fresh, want, !seen)
					}
				}
				if g.Len() != distinct || !slices.Equal(g.Rows(), wantRows) {
					t.Fatalf("distinct=%d: %d slots, rows differ from the reference", distinct, g.Len())
				}
			}
		}
	}
}

// intEq verifies keys by comparing the rows' values, as the verifier of an
// inexact rep does.
type intEq []int64

func (e intEq) KeyEqual(a, b int32) bool { return e[a] == e[b] }
