package mil

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bat"
)

// TestGroupingFactParity runs each operator that reads a grouping's
// published fact — id-aggr, extent-unique (over a key, and over a key of a
// coarser grouping) and alias-semijoin — against the variant it replaces on
// the same BAT with the fact stripped (the same ids in a fresh column). The
// results must be bit-identical, at workers 1 and 4, over one group, one
// group per row, no rows, float tails holding NaN and both signed zeros,
// float keys holding NaN (each NaN is a group of its own), and integer sums
// that wrap.
func TestGroupingFactParity(t *testing.T) {
	rng := rand.New(rand.NewSource(811))
	const n = 1 << 15 // above bat.ParallelMinRows, so the 4-worker runs may dispatch; every grouping is sequential
	ints := func(rows int, f func(i int) int64) bat.Column {
		v := make([]int64, rows)
		for i := range v {
			v[i] = f(i)
		}
		return bat.NewIntCol(v)
	}
	perm := rng.Perm(n)
	keys := []struct {
		name string
		col  bat.Column
	}{
		{"G=1", ints(n, func(int) int64 { return 7 })},
		{"G=rows", ints(n, func(i int) int64 { return int64(perm[i]) })},
		{"G=4", ints(n, func(int) int64 { return rng.Int63n(4) })},
		{"wide", ints(n, func(int) int64 { return rng.Int63n(64) << 40 })},
		{"flt", edgeColumn(rng, bat.KFlt, n)},
		{"empty", ints(0, nil)},
	}
	for _, key := range keys {
		rows := key.col.Len()
		vh := bat.NewVoid(0, rows)
		tails := []bat.Column{
			edgeColumn(rng, bat.KFlt, max(rows, 1)),
			ints(rows, func(int) int64 { return math.MaxInt64/4 + rng.Int63n(1<<20) }), // sums wrap
			edgeColumn(rng, bat.KInt, max(rows, 1)),
		}
		for i, c := range tails {
			tails[i] = bat.SliceView(c, 0, rows)
		}
		second := bat.New("s", vh, ints(rows, func(int) int64 { return rng.Int63n(3) }), 0)
		for _, workers := range []int{1, 4} {
			ctx := NewCtx(nil, Options{Workers: workers})
			label := fmt.Sprintf("%s/w=%d", key.name, workers)
			// ran runs op and requires the fact's variant exactly when want
			// is true.
			ran := func(what, algo string, want bool, op func() *bat.BAT) *bat.BAT {
				t.Helper()
				out := op()
				if got := ctx.LastAlgo(); (got == algo) != want {
					t.Fatalf("%s: %s ran %q (want %s: %v)", label, what, got, algo, want)
				}
				return out
			}
			g := GroupUnary(ctx, bat.New("k", vh, key.col, 0))
			ids := g.T
			bare := bat.NewOIDCol(ids.(*bat.OIDCol).V)
			if f := bat.GroupingOf(ids); f == nil || bat.GroupingOf(bare) != nil {
				t.Fatalf("%s: the group ids carry no fact, or the copy carries one", label)
			}

			for _, tail := range tails {
				for _, fn := range aggrFns {
					what := fmt.Sprintf("{%s}(%s)", fn, tail.Kind())
					got := ran(what, "id-aggr", true, func() *bat.BAT { return Aggr(ctx, fn, bat.New("per", ids, tail, 0)) })
					want := ran(what, "id-aggr", false, func() *bat.BAT { return Aggr(ctx, fn, bat.New("per", bare, tail, 0)) })
					sameBits(t, label+"/"+what, got, want)
				}
				// A row subset of the grouping is a new column: no fact.
				what := fmt.Sprintf("{sum}(first half of %s)", tail.Kind())
				got := ran(what, "id-aggr", false, func() *bat.BAT { return Aggr(ctx, "sum", Slice(ctx, bat.New("per", ids, tail, 0), rows/2)) })
				want := Aggr(ctx, "sum", Slice(ctx, bat.New("per", bare, tail, 0), rows/2))
				sameBits(t, label+"/"+what, got, want)
			}

			key2 := GroupBinary(ctx, g, syncedWith(second, g))
			var kept *bat.BAT
			for _, u := range []struct {
				what      string
				head      bat.Column
				tail      bat.Column
				bareHead  bat.Column
				extentful bool
			}{
				{"unique(ids, key)", ids, key.col, bare, true},
				{"unique(ids2, coarser key)", key2.T, key.col, bat.NewOIDCol(key2.T.(*bat.OIDCol).V), true},
				{"unique(ids, other)", ids, second.T, bare, false},
			} {
				got := ran(u.what, "extent-unique", u.extentful, func() *bat.BAT { return Unique(ctx, bat.New("u", u.head, u.tail, 0)) })
				want := ran(u.what, "extent-unique", false, func() *bat.BAT { return Unique(ctx, bat.New("u", u.bareHead, u.tail, 0)) })
				sameBits(t, label+"/"+u.what, got, want)
				if kept == nil {
					kept = got
				}
			}

			// The key semijoin of a plan: the group index against the kept
			// keys, whose head is the ids 0..G−1. With one group per row
			// the kept keys' head is a view of the ids column itself, and
			// with no rows both heads are empty oid columns: either way the
			// operands are synced and the sync-semijoin answers first.
			index := g.Mirror()
			G := kept.Len()
			for _, r := range []struct {
				what  string
				r     *bat.BAT
				alias bool
			}{
				{"semijoin(index, KEY)", kept, true},
				{"semijoin(index, KEY but the last)", bat.New("r", bat.SliceView(kept.H, 0, max(G-1, 0)), bat.SliceView(kept.T, 0, max(G-1, 0)), 0), G == 0},
			} {
				synced := bat.Synced(index, r.r)
				if synced != ((key.name == "G=rows" || rows == 0) && r.alias) {
					t.Fatalf("%s: %s synced %v", label, r.what, synced)
				}
				got := ran(r.what, "alias-semijoin", r.alias && !synced, func() *bat.BAT { return Semijoin(ctx, index, r.r) })
				if synced && ctx.LastAlgo() != "sync-semijoin" {
					t.Fatalf("%s: %s ran %q, want sync-semijoin", label, r.what, ctx.LastAlgo())
				}
				want := ran(r.what, "alias-semijoin", false, func() *bat.BAT { return Semijoin(ctx, bat.New("index", bare, index.T, 0), r.r) })
				sameBits(t, label+"/"+r.what, got, want)
			}
		}
	}
}

// syncedWith returns b's tail on g's head column: positionally synced with
// g by construction.
func syncedWith(b, g *bat.BAT) *bat.BAT {
	return bat.New(b.Name, g.H, b.T, 0)
}

// sameBits requires got and want to hold the same BUNs, floats compared by
// their bits.
func sameBits(t *testing.T, label string, got, want *bat.BAT) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d BUNs, want %d", label, got.Len(), want.Len())
	}
	for _, side := range []struct {
		name      string
		got, want bat.Column
	}{{"head", got.H, want.H}, {"tail", got.T, want.T}} {
		for i := 0; i < got.Len(); i++ {
			g, w := normOID(side.got.Get(i)), normOID(side.want.Get(i))
			if g.K != w.K || g.I != w.I || math.Float64bits(g.F) != math.Float64bits(w.F) || g.S != w.S {
				t.Fatalf("%s: %s %d is %s, want %s", label, side.name, i, g, w)
			}
		}
	}
}
