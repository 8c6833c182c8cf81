package mil

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bat"
	"repro/internal/storage"
)

// The typed kernels must be observationally identical to the boxed
// reference implementations: same BUNs in the same order, same properties,
// same sync state. These property-style tests drive every column kind
// through the typed operators and compare against boxed references,
// including empty and all-duplicate inputs, and check that parallel
// execution is bit-identical to sequential.

// parityKinds are the kinds exercised as join/group keys.
var parityKinds = []bat.Kind{bat.KOID, bat.KInt, bat.KFlt, bat.KStr, bat.KChr, bat.KDate, bat.KBit}

// randKindValues draws n values of kind k from a small domain (so that
// duplicates and cross-operand matches are frequent). allDup collapses the
// domain to a single value.
func randKindValues(rng *rand.Rand, k bat.Kind, n int, allDup bool) []bat.Value {
	out := make([]bat.Value, n)
	for i := range out {
		d := int64(rng.Intn(16))
		if allDup {
			d = 7
		}
		switch k {
		case bat.KOID:
			out[i] = bat.O(bat.OID(d))
		case bat.KInt:
			out[i] = bat.I(d - 8)
		case bat.KFlt:
			out[i] = bat.F(float64(d) / 4)
		case bat.KStr:
			out[i] = bat.S(fmt.Sprintf("s%02d", d))
		case bat.KChr:
			out[i] = bat.C(byte('a' + d))
		case bat.KDate:
			out[i] = bat.D(int32(9000 + d))
		case bat.KBit:
			out[i] = bat.B(d%2 == 0)
		default:
			panic("unexpected kind")
		}
	}
	return out
}

// batsEqual asserts byte-for-byte observational equality of two BATs.
func batsEqual(t *testing.T, label string, got, want *bat.BAT) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: len %d != %d", label, got.Len(), want.Len())
	}
	if got.Props != want.Props {
		t.Fatalf("%s: props %s != %s", label, got.Props, want.Props)
	}
	for i := 0; i < got.Len(); i++ {
		if got.HeadValue(i) != want.HeadValue(i) || got.TailValue(i) != want.TailValue(i) {
			t.Fatalf("%s: BUN %d [%s,%s] != [%s,%s]", label, i,
				got.HeadValue(i), got.TailValue(i), want.HeadValue(i), want.TailValue(i))
		}
	}
}

// refJoinPairs is the boxed reference equi-join: probe l tails against r
// heads under Go map-key equality, pairs in left order with ascending right
// positions per probe.
func refJoinPairs(l, r *bat.BAT) (lpos, rpos []int32) {
	for i := 0; i < l.Len(); i++ {
		v := l.TailValue(i)
		for j := 0; j < r.Len(); j++ {
			if r.HeadValue(j) == v {
				lpos = append(lpos, int32(i))
				rpos = append(rpos, int32(j))
			}
		}
	}
	return
}

func TestParityHashJoinAllKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, k := range parityKinds {
		for _, n := range []int{0, 1, 17, 64} {
			for _, allDup := range []bool{false, true} {
				lt := randKindValues(rng, k, n, allDup)
				rh := randKindValues(rng, k, n+n/2, allDup)
				rt := randKindValues(rng, bat.KInt, n+n/2, false)
				lh := make([]bat.OID, n)
				for i := range lh {
					lh[i] = bat.OID(i + 500)
				}
				l := bat.New("l", bat.NewOIDCol(lh), bat.FromValues(k, lt), 0)
				r := bat.New("r", bat.FromValues(k, rh), bat.FromValues(bat.KInt, rt), 0)
				got := hashJoin(nil, l, r)
				refL, refR := refJoinPairs(l, r)
				want := joinResult(nil, l, r, refL, refR)
				batsEqual(t, fmt.Sprintf("hash-join/%s/n=%d/alldup=%v", k, n, allDup), got, want)
			}
		}
	}
}

func TestParityMergeJoinAllKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	for _, k := range parityKinds {
		if k == bat.KBit {
			continue // bit columns have no merge path (not orderable storage)
		}
		for _, n := range []int{0, 1, 33} {
			for _, allDup := range []bool{false, true} {
				lt := randKindValues(rng, k, n, allDup)
				rh := randKindValues(rng, k, n+3, allDup)
				l, r := orderedJoinOperands(rng, bat.FromValues(k, lt), bat.FromValues(k, rh))
				got, ok := mergeJoin(nil, l, r)
				if !ok {
					t.Fatalf("merge-join/%s: no typed merge", k)
				}
				refL, refR := refJoinPairs(l, r)
				want := joinResult(nil, l, r, refL, refR)
				batsEqual(t, fmt.Sprintf("merge-join/%s/n=%d/alldup=%v", k, n, allDup), got, want)
			}
		}
	}
	// Through the dispatcher: a void tail merges as its oid sequence, and an
	// ordered int tail against an ordered flt head (the same numbers) has
	// no typed merge, so it takes the hash variant and matches nothing —
	// the variant must not decide which keys are equal.
	for _, n := range []int{1, 33} {
		ints := randKindValues(rng, bat.KInt, n+3, false)
		flts := make([]bat.Value, len(ints))
		for i, v := range ints {
			flts[i] = bat.F(float64(v.I))
		}
		oids := randKindValues(rng, bat.KOID, n+3, false)
		for _, c := range []struct {
			name   string
			lt, rh bat.Column
			algo   string
		}{
			{"void-oid", bat.NewVoid(3, n), bat.FromValues(bat.KOID, oids), "merge-join"},
			{"int-flt", bat.FromValues(bat.KInt, ints[:n]), bat.FromValues(bat.KFlt, flts), "hash-join"},
			{"flt-int", bat.FromValues(bat.KFlt, flts[:n]), bat.FromValues(bat.KInt, ints), "hash-join"},
		} {
			l, r := orderedJoinOperands(rng, c.lt, c.rh)
			ctx := NewCtx(nil, Options{Workers: 1})
			got := Join(ctx, l, r)
			label := fmt.Sprintf("join/%s/n=%d", c.name, n)
			if ctx.LastAlgo() != c.algo {
				t.Fatalf("%s: ran %q, want %q", label, ctx.LastAlgo(), c.algo)
			}
			refL, refR := refJoinPairs(l, r)
			batsEqual(t, label, got, joinResult(nil, l, r, refL, refR))
		}
	}
}

// orderedJoinOperands builds merge-join operands over the tail values lt
// and the head values rh: l = [oid, lt] and r = [rh, flt], each sorted on
// its join column and declaring that order.
func orderedJoinOperands(rng *rand.Rand, lt, rh bat.Column) (l, r *bat.BAT) {
	lh := make([]bat.OID, lt.Len())
	for i := range lh {
		lh[i] = bat.OID(i)
	}
	l = bat.SortOnTail(bat.New("l", bat.NewOIDCol(lh), lt, 0))
	rt := bat.FromValues(bat.KFlt, randKindValues(rng, bat.KFlt, rh.Len(), false))
	r0 := bat.SortOnTail(bat.New("r0", rt, rh, 0)).Mirror()
	return l, bat.New("r", r0.H, r0.T, bat.HOrdered)
}

func TestParitySemijoinAllKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for _, k := range parityKinds {
		for _, n := range []int{0, 1, 29, 64} {
			for _, allDup := range []bool{false, true} {
				lh := randKindValues(rng, k, n, allDup)
				lt := randKindValues(rng, bat.KInt, n, false)
				rh := randKindValues(rng, k, n/2+1, allDup)
				l := bat.New("l", bat.FromValues(k, lh), bat.FromValues(bat.KInt, lt), 0)
				r := bat.New("r", bat.FromValues(k, rh), bat.NewVoid(0, r0len(n/2+1)), 0)
				got := hashSemijoin(nil, l, r)
				batsEqual(t, fmt.Sprintf("semijoin/%s/n=%d/alldup=%v", k, n, allDup), got, refSemijoin(l, r))
			}
		}
	}
	// Ordered heads, through the dispatcher: void against oid heads (either
	// side) merges as the oid sequence; an int against a flt head holding
	// the same numbers has no typed merge, takes the hash variant and keeps
	// nothing.
	for _, n := range []int{1, 29, 64} {
		ints := randKindValues(rng, bat.KInt, n, false)
		flts := make([]bat.Value, len(ints))
		for i, v := range ints {
			flts[i] = bat.F(float64(v.I))
		}
		oids := randKindValues(rng, bat.KOID, n, false)
		for _, c := range []struct {
			name   string
			lh, rh bat.Column
			algo   string
		}{
			{"void-oid", bat.NewVoid(2, n), bat.FromValues(bat.KOID, oids[:n/2+1]), "merge-semijoin"},
			{"oid-void", bat.FromValues(bat.KOID, oids), bat.NewVoid(4, n/2+1), "merge-semijoin"},
			{"int-flt", bat.FromValues(bat.KInt, ints), bat.FromValues(bat.KFlt, flts[:n/2+1]), "hash-semijoin"},
			{"flt-int", bat.FromValues(bat.KFlt, flts), bat.FromValues(bat.KInt, ints[:n/2+1]), "hash-semijoin"},
		} {
			l := orderedOnHead("l", c.lh, bat.FromValues(bat.KInt, randKindValues(rng, bat.KInt, n, false)))
			r := orderedOnHead("r", c.rh, bat.NewVoid(0, c.rh.Len()))
			ctx := NewCtx(nil, Options{Workers: 1})
			got := Semijoin(ctx, l, r)
			label := fmt.Sprintf("semijoin/%s/n=%d", c.name, n)
			if ctx.LastAlgo() != c.algo {
				t.Fatalf("%s: ran %q, want %q", label, ctx.LastAlgo(), c.algo)
			}
			batsEqual(t, label, got, refSemijoin(l, r))
		}
	}
}

// orderedOnHead builds [h, t] sorted on h, declaring the order.
func orderedOnHead(name string, h, t bat.Column) *bat.BAT {
	m := bat.SortOnTail(bat.New(name, t, h, 0)).Mirror()
	return bat.New(name, m.H, m.T, bat.HOrdered)
}

// refSemijoin is the boxed reference semijoin: map membership of l's boxed
// heads among r's.
func refSemijoin(l, r *bat.BAT) *bat.BAT {
	set := make(map[bat.Value]struct{}, r.Len())
	for i := 0; i < r.Len(); i++ {
		set[r.HeadValue(i)] = struct{}{}
	}
	var pos []int32
	for i := 0; i < l.Len(); i++ {
		if _, ok := set[l.HeadValue(i)]; ok {
			pos = append(pos, int32(i))
		}
	}
	return gatherPositions(nil, l.Name+".sel", l, pos)
}

func r0len(n int) int { return n }

func TestParityUniqueAllKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	for _, hk := range parityKinds {
		for _, tk := range parityKinds {
			for _, n := range []int{0, 1, 40} {
				for _, allDup := range []bool{false, true} {
					h := randKindValues(rng, hk, n, allDup)
					v := randKindValues(rng, tk, n, allDup)
					b := bat.New("b", bat.FromValues(hk, h), bat.FromValues(tk, v), 0)
					got := Unique(nil, b)
					want := uniqueBoxed(nil, b)
					batsEqual(t, fmt.Sprintf("unique/%s-%s/n=%d/alldup=%v", hk, tk, n, allDup), got, want)
				}
			}
		}
	}
}

func TestParityGroupUnaryAllKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	for _, tk := range parityKinds {
		for _, n := range []int{0, 1, 50} {
			for _, allDup := range []bool{false, true} {
				v := randKindValues(rng, tk, n, allDup)
				b := bat.New("b", bat.NewVoid(10, n), bat.FromValues(tk, v), 0)
				got := GroupUnary(nil, b)
				wantIDs := make([]bat.OID, n)
				groupTailsBoxed(b, wantIDs)
				if got.Len() != n {
					t.Fatalf("group/%s: len %d != %d", tk, got.Len(), n)
				}
				for i := 0; i < n; i++ {
					if got.TailValue(i).OID() != wantIDs[i] {
						t.Fatalf("group/%s/n=%d/alldup=%v: id[%d] = %d, want %d",
							tk, n, allDup, i, got.TailValue(i).OID(), wantIDs[i])
					}
				}
				if n > 0 && !bat.Synced(got, b) {
					t.Fatalf("group/%s: result not synced with operand", tk)
				}
			}
		}
	}
}

func TestParityGroupBinaryAllKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	for _, tk := range parityKinds {
		for _, n := range []int{0, 1, 50, 1 << 15} { // the last runs the grouper at 4 workers unless dense
			gv := randKindValues(rng, bat.KOID, n, false)
			bv := randKindValues(rng, tk, n, false)
			g := bat.New("g", bat.NewVoid(0, n), bat.FromValues(bat.KOID, gv), 0)
			b := bat.New("b", g.H, bat.FromValues(tk, bv), 0)
			// Un-synced: b holds g's heads shuffled, a third of them
			// missing, and a duplicate of one (its first row counts).
			heads := shuffledOIDs(rng, n)
			heads = heads[:n-n/3]
			if len(heads) > 1 {
				heads[len(heads)-1] = heads[0]
			}
			ub := bat.New("ub", bat.FromValues(bat.KOID, heads), bat.FromValues(tk, randKindValues(rng, tk, len(heads), false)), 0)
			for _, c := range []struct {
				name string
				b    *bat.BAT
			}{{"synced", b}, {"unsynced", ub}} {
				wantIDs := make([]bat.OID, n)
				groupBinaryBoxed(g, c.b, wantIDs)
				for _, workers := range []int{1, 4} {
					ctx := NewCtx(nil, Options{Workers: workers})
					got := GroupBinary(ctx, g, c.b)
					// Synced exact keys of 16×16 values pack into one
					// direct index; the rest hash. With no rows ub is
					// synced too: empty heads are one column.
					want := "hash-group"
					if (c.name == "synced" || n == 0) && tk != bat.KFlt && tk != bat.KStr {
						want = "dense-group"
					}
					if ctx.LastAlgo() != want {
						t.Fatalf("group2/%s/%s: ran %q, want %q", c.name, tk, ctx.LastAlgo(), want)
					}
					for i := 0; i < n; i++ {
						if got.TailValue(i).OID() != wantIDs[i] {
							t.Fatalf("group2/%s/%s/n=%d/w=%d: id[%d] = %d, want %d",
								c.name, tk, n, workers, i, got.TailValue(i).OID(), wantIDs[i])
						}
					}
				}
			}
		}
	}
}

func TestParityAggrAllFunctionsAndKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	fns := []string{"sum", "count", "avg", "min", "max"}
	tailKinds := []bat.Kind{bat.KInt, bat.KFlt, bat.KDate, bat.KStr, bat.KOID, bat.KChr, bat.KBit}
	headKinds := []bat.Kind{bat.KOID, bat.KInt, bat.KStr}
	for _, hk := range headKinds {
		for _, tk := range tailKinds {
			for _, ordered := range []bool{false, true} {
				for _, n := range []int{0, 1, 60} {
					h := randKindValues(rng, hk, n, false)
					v := randKindValues(rng, tk, n, false)
					props := bat.Props(0)
					if ordered {
						hb := bat.SortOnTail(bat.New("x", bat.FromValues(tk, v), bat.FromValues(hk, h), 0)).Mirror()
						h, v = hb.HeadValues(), hb.TailValues()
						props = bat.HOrdered
					}
					b := bat.New("b", bat.FromValues(hk, h), bat.FromValues(tk, v), props)
					for _, fn := range fns {
						if (fn == "min" || fn == "max") && n == 0 {
							continue // empty min/max yields zero Values either way
						}
						got := Aggr(nil, fn, b)
						want := aggrBoxed(nil, fn, b)
						batsEqual(t, fmt.Sprintf("aggr-%s/%s-%s/ordered=%v/n=%d", fn, hk, tk, ordered, n), got, want)
					}
				}
			}
		}
	}
}

// TestParityFloatEdgeCases pins map-key semantics on the typed paths:
// +0 and -0 are one key; NaN matches nothing.
func TestParityFloatEdgeCases(t *testing.T) {
	nan := math.NaN()
	l := bat.New("l", bat.NewOIDCol([]bat.OID{1, 2, 3}),
		bat.NewFltCol([]float64{math.Copysign(0, -1), nan, 2.5}), 0)
	r := bat.New("r", bat.NewFltCol([]float64{0, nan, 2.5}),
		bat.NewIntCol([]int64{10, 20, 30}), 0)
	out := hashJoin(nil, l, r)
	if out.Len() != 2 {
		t.Fatalf("len = %d, want 2 (-0 matches +0, NaN matches nothing)", out.Len())
	}
	if out.TailValue(0).I != 10 || out.TailValue(1).I != 30 {
		t.Fatalf("tails = %v", out.TailValues())
	}
	// each NaN row is its own group (map semantics: NaN never equals itself)
	g := GroupUnary(nil, bat.New("g", bat.NewVoid(0, 3), bat.NewFltCol([]float64{nan, nan, 1}), 0))
	if g.TailValue(0).OID() == g.TailValue(1).OID() {
		t.Fatal("NaN rows must form distinct groups")
	}
}

// TestParityParallelBitIdentical: worker counts must not change any output
// bit — positions merge in range order and only exactly-mergeable
// aggregates run parallel.
func TestParityParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(108))
	n := bat.ParallelMinRows + bat.ParallelMinRows/3
	lh := make([]bat.OID, n)
	lt := make([]bat.OID, n)
	ht := make([]int64, n)
	for i := range lh {
		lh[i] = bat.OID(rng.Intn(n))
		lt[i] = bat.OID(rng.Intn(n / 4))
		ht[i] = int64(rng.Intn(64))
	}
	l := bat.New("l", bat.NewOIDCol(lh), bat.NewOIDCol(lt), 0)
	r := bat.New("r", bat.NewOIDCol(lt[:n/4]), bat.NewIntCol(ht[:n/4]), 0)

	seqJ := hashJoin(NewCtx(nil, Options{Workers: 1}), l, r)
	parJ := hashJoin(NewCtx(nil, Options{Workers: 8}), l, r)
	batsEqual(t, "parallel hash-join", parJ, seqJ)

	seqS := hashSemijoin(NewCtx(nil, Options{Workers: 1}), l, r)
	parS := hashSemijoin(NewCtx(nil, Options{Workers: 8}), l, r)
	batsEqual(t, "parallel hash-semijoin", parS, seqS)

	fvals := make([]float64, n)
	for i := range fvals {
		fvals[i] = rng.Float64() * 100
	}
	// The group heads span n values, so they take the direct index; spread
	// 2^16 apart they run the grouper, its key reps filled in parallel.
	wide := make([]bat.OID, n)
	for i, h := range lh {
		wide[i] = h << 16
	}
	for _, heads := range []struct {
		name, algo string
		col        []bat.OID
	}{{"dense", "dense-aggr", lh}, {"wide", "hash-aggr", wide}} {
		grp := bat.New("g", bat.NewOIDCol(heads.col), bat.NewIntCol(ht), 0)
		fgrp := bat.New("fg", bat.NewOIDCol(heads.col), bat.NewFltCol(fvals), 0)
		for _, fn := range []string{"sum", "count", "min", "max", "avg"} {
			for _, b := range []*bat.BAT{grp, fgrp} {
				label := fmt.Sprintf("parallel aggr %s/%s(%s)", heads.name, fn, b.T.Kind())
				seqA := Aggr(NewCtx(nil, Options{Workers: 1}), fn, b)
				par := NewCtx(nil, Options{Workers: 8})
				parA := Aggr(par, fn, b)
				if par.LastAlgo() != heads.algo {
					t.Fatalf("%s: ran %q, want %q", label, par.LastAlgo(), heads.algo)
				}
				batsEqual(t, label, parA, seqA)
			}
		}
	}
}

// TestParityGroupOpsAtWorkers: the grouping paths at 8 workers (group,
// binary group, unique, and all grouped aggregates — including
// order-sensitive float sums) must be bit-identical to sequential
// execution. The grouping passes are sequential at any worker count; the
// key-rep fills they read run on the dispatcher.
func TestParityGroupOpsAtWorkers(t *testing.T) {
	// NaN-tolerant BUN equality: Unique results carry the NaN tails through,
	// and boxed Value comparison would treat equal-position NaNs as unequal.
	valEq := func(a, b bat.Value) bool {
		if a == b {
			return true
		}
		return a.K == bat.KFlt && b.K == bat.KFlt && math.IsNaN(a.F) && math.IsNaN(b.F)
	}
	batsEqualNaN := func(label string, got, want *bat.BAT) {
		t.Helper()
		if got.Len() != want.Len() || got.Props != want.Props {
			t.Fatalf("%s: len/props %d{%s} != %d{%s}", label, got.Len(), got.Props, want.Len(), want.Props)
		}
		for i := 0; i < got.Len(); i++ {
			if !valEq(got.HeadValue(i), want.HeadValue(i)) || !valEq(got.TailValue(i), want.TailValue(i)) {
				t.Fatalf("%s: BUN %d [%s,%s] != [%s,%s]", label, i,
					got.HeadValue(i), got.TailValue(i), want.HeadValue(i), want.TailValue(i))
			}
		}
	}

	// Narrow heads and int keys take the direct index wherever their span
	// is small; spread far apart ("wide") every exact key runs the
	// grouper, which the variant checks pin.
	for _, wide := range []bool{false, true} {
		rng := rand.New(rand.NewSource(109))
		n := bat.ParallelMinRows + bat.ParallelMinRows/2
		heads := make([]bat.OID, n)
		ints := make([]int64, n)
		flts := make([]float64, n)
		strs := make([]bat.Value, n)
		for i := 0; i < n; i++ {
			heads[i] = bat.OID(rng.Intn(n / 8))
			ints[i] = int64(rng.Intn(256))
			flts[i] = rng.Float64() * 1000
			strs[i] = bat.S(fmt.Sprintf("s%03d", rng.Intn(64)))
			if wide {
				heads[i] <<= 16
				ints[i] <<= 32
			}
		}
		flts[0], flts[n/2], flts[n-1] = math.NaN(), math.Copysign(0, -1), 0

		seqCtx, parCtx := NewCtx(nil, Options{Workers: 1}), NewCtx(nil, Options{Workers: 8})
		ran := func(label, want string) {
			t.Helper()
			if wide && parCtx.LastAlgo() != want {
				t.Fatalf("wide %s: ran %q, want %q", label, parCtx.LastAlgo(), want)
			}
		}

		gInt := bat.New("gi", bat.NewOIDCol(heads), bat.NewIntCol(ints), 0)
		gFlt := bat.New("gf", bat.NewOIDCol(heads), bat.NewFltCol(flts), 0)
		gStr := bat.New("gs", bat.NewOIDCol(heads), bat.FromValues(bat.KStr, strs), 0)

		for _, b := range []*bat.BAT{gInt, gFlt, gStr} {
			label := fmt.Sprintf("8-worker group %s (wide=%v)", b.Name, wide)
			par := GroupUnary(parCtx, b)
			ran(label, "hash-group")
			batsEqualNaN(label, par, GroupUnary(seqCtx, b))
			label = fmt.Sprintf("8-worker unique %s (wide=%v)", b.Name, wide)
			par = Unique(parCtx, b)
			ran(label, "hash-unique")
			batsEqualNaN(label, par, Unique(seqCtx, b))
		}

		grp := GroupUnary(seqCtx, gInt)
		refine := bat.New("rf", grp.H, bat.NewIntCol(ints), 0)
		label := fmt.Sprintf("8-worker binary group (wide=%v)", wide)
		par := GroupBinary(parCtx, grp, refine)
		ran(label, "hash-group")
		batsEqual(t, label, par, GroupBinary(seqCtx, grp, refine))

		// float sum/avg are order-sensitive; the 8-worker run must still be
		// bit-identical because each group folds its rows sequentially, in
		// row order
		for _, fn := range []string{"sum", "count", "avg", "min", "max"} {
			label := fmt.Sprintf("8-worker aggr(flt) %s (wide=%v)", fn, wide)
			par := Aggr(parCtx, fn, gFlt)
			ran(label, "hash-aggr")
			batsEqualNaN(label, par, Aggr(seqCtx, fn, gFlt))
			label = fmt.Sprintf("8-worker aggr(int) %s (wide=%v)", fn, wide)
			par = Aggr(parCtx, fn, gInt)
			ran(label, "hash-aggr")
			batsEqual(t, label, par, Aggr(seqCtx, fn, gInt))
		}
		// boxed accumulator kinds (string tails) through the grouper
		for _, fn := range []string{"count", "min", "max"} {
			label := fmt.Sprintf("8-worker aggr(str) %s (wide=%v)", fn, wide)
			par := Aggr(parCtx, fn, gStr)
			ran(label, "hash-aggr")
			batsEqual(t, label, par, Aggr(seqCtx, fn, gStr))
		}
	}
}

// TestParityViewGather: run-positions gather as zero-copy views; the result
// must be observationally identical to a materialized gather, keep its
// operand's properties, and account one page span per column instead of one
// touch per BUN.
func TestParityViewGather(t *testing.T) {
	n := 4096
	tails := make([]int64, n)
	for i := range tails {
		tails[i] = int64(i) * 3 // ordered, duplicate-free
	}
	b := bat.New("a", bat.NewVoid(0, n), bat.NewIntCol(tails), bat.TOrdered|bat.TKey)
	b.Persist()
	lo, hi := bat.I(3000), bat.I(9000)
	ctx := NewCtx(nil, Options{Pager: storage.NewPager(4096, 0)})
	got := SelectRange(ctx, b, &lo, &hi, true, true)
	if ctx.LastAlgo() != "binsearch-select" {
		t.Fatalf("algo = %s", ctx.LastAlgo())
	}
	// reference: the scan path over the same predicate
	want := scanSelect(nil, b, tailKernel(b, &lo, &hi, true, true))
	if got.Len() != want.Len() || got.Len() == 0 {
		t.Fatalf("len %d != %d", got.Len(), want.Len())
	}
	for i := 0; i < got.Len(); i++ {
		if got.HeadValue(i) != want.HeadValue(i) || got.TailValue(i) != want.TailValue(i) {
			t.Fatalf("BUN %d: [%s,%s] != [%s,%s]", i,
				got.HeadValue(i), got.TailValue(i), want.HeadValue(i), want.TailValue(i))
		}
	}
	if !got.Props.Has(bat.TOrdered | bat.TKey) {
		t.Fatalf("props = %s", got.Props)
	}
	if err := got.CheckProps(); err != nil {
		t.Fatal(err)
	}
	// span accounting: the selected run covers ~2000 int64 entries ≈ 4 tail
	// pages; per-position accounting would report one access per BUN.
	if faults := ctx.Pager.Faults(); faults > 8 {
		t.Fatalf("view gather faulted %d pages, expected a handful of spans", faults)
	}
}

// TestParitySelectExtremeBounds: a range select whose bound is absent, or
// exclusive at the extreme of the tail's domain, keeps what the boxed
// predicate keeps — called directly and as a program. (The typed scan once
// modelled an absent bound as ±2^62 and stepped exclusive bounds with ±1,
// dropping values beyond ±2^62 and wrapping at the extremes.)
func TestParitySelectExtremeBounds(t *testing.T) {
	tails := map[string]bat.Column{
		"int": bat.NewIntCol([]int64{1, 1<<62 + 5, -(1 << 62) - 7, math.MaxInt64, math.MinInt64, 0}),
		"oid": bat.NewOIDCol([]bat.OID{1, math.MaxUint32, 0, 7}),
	}
	mk := map[string]func(int64) bat.Value{
		"int": bat.I,
		"oid": func(x int64) bat.Value { return bat.O(bat.OID(x)) },
	}
	extremes := map[string][2]int64{"int": {math.MinInt64, math.MaxInt64}, "oid": {0, math.MaxUint32}}
	for kind, tail := range tails {
		b := bat.New("b", bat.NewVoid(0, tail.Len()), tail, 0)
		zero, minV, maxV := mk[kind](0), mk[kind](extremes[kind][0]), mk[kind](extremes[kind][1])
		for _, c := range []struct {
			name           string
			lo, hi         *bat.Value
			loIncl, hiIncl bool
			want           int // -1: whatever the oracle says
		}{
			{"from-zero-up", &zero, nil, true, true, map[string]int{"int": 4, "oid": 4}[kind]},
			{"up-to-zero", nil, &zero, true, true, map[string]int{"int": 3, "oid": 1}[kind]},
			{"above-max", &maxV, nil, false, true, 0},
			{"below-min", nil, &minV, true, false, 0},
			{"at-max", &maxV, &maxV, true, true, 1},
			{"unbounded", nil, nil, true, true, tail.Len()},
			{"open-at-both-extremes", &minV, &maxV, false, false, -1},
		} {
			want := selectBoxed(b, c.lo, c.hi, c.loIncl, c.hiIncl)
			if c.want >= 0 && want.Len() != c.want {
				t.Fatalf("%s/%s: oracle keeps %d rows, expected %d", kind, c.name, want.Len(), c.want)
			}
			batsEqual(t, kind+"/"+c.name+"/materialized", SelectRange(nil, b, c.lo, c.hi, c.loIncl, c.hiIncl), want)
			arg := func(v *bat.Value) StmtArg {
				if v == nil {
					return None()
				}
				return LitArg(*v)
			}
			prog := &Program{Keep: []string{"RES"}, Stmts: []Stmt{
				{Dst: "x", Op: OpSelectRange, Args: []StmtArg{VarArg("b"), arg(c.lo), arg(c.hi)}, LoIncl: c.loIncl, HiIncl: c.hiIncl},
				{Dst: "RES", Op: OpSelectRange, Args: []StmtArg{VarArg("x"), None(), None()}, LoIncl: true, HiIncl: true},
			}}
			scope, _, err := Exec(NewCtx(nil, Options{}), prog, Env{"b": b})
			if err != nil {
				t.Fatalf("%s/%s: %v", kind, c.name, err)
			}
			got, _ := scope.Lookup("RES")
			assertSameBAT(t, kind+"/"+c.name+"/program", got, want)
		}
	}
}

// TestJoinMultiFloatKeySemantics pins the map-key behavior of composite
// float keys: -0 and +0 are one key, NaN never matches (the semantics of
// the replaced map[compositeKey]).
func TestJoinMultiFloatKeySemantics(t *testing.T) {
	nan := math.NaN()
	mkF := func(vals []float64) *bat.BAT {
		return bat.New("k", bat.NewVoid(0, len(vals)), bat.NewFltCol(vals), 0)
	}
	mkI := func(vals []int64) *bat.BAT {
		return bat.New("k", bat.NewVoid(0, len(vals)), bat.NewIntCol(vals), 0)
	}
	lKeys := []*bat.BAT{mkI([]int64{1, 2, 3}), mkF([]float64{math.Copysign(0, -1), nan, 5})}
	rKeys := []*bat.BAT{mkI([]int64{1, 2, 3}), mkF([]float64{0, nan, 5})}
	out := JoinMulti(nil, lKeys, rKeys)
	lids, rids := out.HeadValues(), out.TailValues()
	found := map[[2]int64]bool{}
	for i := range lids {
		found[[2]int64{lids[i].I, rids[i].I}] = true
	}
	if !found[[2]int64{0, 0}] {
		t.Fatal("-0 key must match +0 key")
	}
	if !found[[2]int64{2, 2}] {
		t.Fatal("plain float key must match")
	}
	if len(lids) != 2 {
		t.Fatalf("matches = %d, want 2 (NaN keys must never match)", len(lids))
	}
}

// TestJoinMultiArbitraryArity covers composite keys beyond the old
// three-attribute limit (which used to panic).
func TestJoinMultiArbitraryArity(t *testing.T) {
	mk := func(tails []int64) *bat.BAT {
		return bat.New("k", bat.NewVoid(0, len(tails)), bat.NewIntCol(tails), 0)
	}
	// four key attributes; rows 0 and 2 of l match rows 1 and 0 of r
	lKeys := []*bat.BAT{
		mk([]int64{1, 2, 3}), mk([]int64{10, 20, 30}),
		mk([]int64{100, 200, 300}), mk([]int64{7, 8, 9}),
	}
	rKeys := []*bat.BAT{
		mk([]int64{3, 1}), mk([]int64{30, 10}),
		mk([]int64{300, 100}), mk([]int64{9, 7}),
	}
	out := JoinMulti(nil, lKeys, rKeys)
	lids, rids := out.HeadValues(), out.TailValues()
	if len(lids) != 2 {
		t.Fatalf("matches = %d, want 2", len(lids))
	}
	found := map[[2]int64]bool{}
	for i := range lids {
		found[[2]int64{lids[i].I, rids[i].I}] = true
	}
	if !found[[2]int64{0, 1}] || !found[[2]int64{2, 0}] {
		t.Fatalf("pairs = %v / %v", lids, rids)
	}
	// five attributes with a deliberate mismatch on the fifth: no matches
	lKeys = append(lKeys, mk([]int64{1, 1, 1}))
	rKeys = append(rKeys, mk([]int64{2, 2}))
	if out := JoinMulti(nil, lKeys, rKeys); out.Len() != 0 {
		t.Fatalf("mismatched fifth key still joined: %v", out.HeadValues())
	}
}
