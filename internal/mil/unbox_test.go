package mil

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/bat"
)

// TestUnionEqualsBoxed: the grouper-based Union keeps exactly the BUNs, in
// the order, with the column kinds and byte sizes, of the boxed-map
// reference — for oid, void, int, str and flt heads, duplicate heads inside
// either operand (1000 and more per key), either operand empty, and NaN
// heads, which never equal themselves.
func TestUnionEqualsBoxed(t *testing.T) {
	rng := rand.New(rand.NewSource(601))
	for _, hk := range []bat.Kind{bat.KOID, bat.KVoid, bat.KInt, bat.KStr, bat.KFlt} {
		for _, tk := range []bat.Kind{bat.KInt, bat.KStr, bat.KVoid} {
			for _, sizes := range [][2]int{{0, 0}, {0, 40}, {40, 0}, {1, 1}, {300, 200}, {20000, 20000}} {
				mk := func(name string, n int, seq bat.OID) *bat.BAT {
					var h bat.Column = bat.NewVoid(seq, n)
					if hk != bat.KVoid {
						vals := randKindValues(rng, hk, n, false) // 16 keys: ≥ 1000 duplicates each at 20000 rows
						if hk == bat.KFlt && n > 8 {
							vals[1], vals[n/2], vals[n-1] = bat.F(math.NaN()), bat.F(math.NaN()), bat.F(math.Copysign(0, -1))
						}
						h = bat.FromValues(hk, vals)
					}
					return bat.New(name, h, mxColumn(rng, tk, n), 0)
				}
				a, b := mk("a", sizes[0], 0), mk("b", sizes[1], bat.OID(sizes[0]/2))
				for _, workers := range []int{1, 4} {
					got, want := Union(NewCtx(nil, Options{Workers: workers}), a, b), unionBoxed(a, b)
					label := fmt.Sprintf("union/%s-%s/%v/w=%d", hk, tk, sizes, workers)
					if got.H.Kind() != want.H.Kind() || got.T.Kind() != want.T.Kind() {
						t.Fatalf("%s: kinds [%s,%s], reference [%s,%s]", label, got.H.Kind(), got.T.Kind(), want.H.Kind(), want.T.Kind())
					}
					sameMultiplex(t, label, got, want, a)
					if got.OwnedByteSize() != want.OwnedByteSize() {
						t.Fatalf("%s: owns %d bytes, reference %d", label, got.OwnedByteSize(), want.OwnedByteSize())
					}
				}
			}
		}
	}
}

// TestJoinMultiEqualsBoxed: the key-rep JoinMulti pairs exactly the
// elements, in exactly the order, of the boxed string-encoding reference —
// over keys of every kind with NaN, -0 and +0 floats and strings sharing
// prefixes, void and oid element ids, non-base keys stored shuffled, synced,
// with duplicate heads (the first counts) and with base rows missing, arity
// 1 to 5, empty sides and a key pair of different kinds.
func TestJoinMultiEqualsBoxed(t *testing.T) {
	rng := rand.New(rand.NewSource(603))
	kinds := []bat.Kind{bat.KOID, bat.KFlt, bat.KStr, bat.KInt, bat.KDate, bat.KChr, bat.KBit}
	value := func(k bat.Kind, d int) bat.Value {
		x := rng.Intn(d)
		switch k {
		case bat.KOID:
			return bat.O(bat.OID(x))
		case bat.KInt:
			return bat.I(int64(x - d/2))
		case bat.KFlt:
			switch rng.Intn(16 + d/64) { // ±0 stays a small share of a large pool, and so do the pairs
			case 0:
				return bat.F(math.NaN())
			case 1:
				return bat.F(math.Copysign(0, -1))
			case 2:
				return bat.F(0)
			}
			return bat.F(float64(x) / 4)
		case bat.KStr:
			if rng.Intn(16) == 0 {
				return bat.S("")
			}
			return bat.S(fmt.Sprintf("key%d", x)) // key1, key10, key100 share prefixes
		case bat.KDate:
			return bat.D(int32(9000 + x))
		case bat.KChr:
			return bat.C(byte('a' + x%26))
		}
		return bat.B(x%2 == 0)
	}
	column := func(k bat.Kind, n, d int) bat.Column {
		vals := make([]bat.Value, n)
		for i := range vals {
			vals[i] = value(k, d)
		}
		return bat.FromValues(k, vals)
	}
	// side builds one side's keys over n elements with ids from seq: the
	// base key's head is void or oid; every other key holds the ids shuffled
	// with a tenth missing and some duplicated, or is synced with the base.
	side := func(ks []bat.Kind, n, d int, seq bat.OID, void bool) []*bat.BAT {
		ids := make([]bat.Value, n)
		for i, p := range rng.Perm(n) {
			ids[i] = bat.O(seq + bat.OID(p))
		}
		var h bat.Column = bat.NewVoid(seq, n)
		if !void {
			h = bat.FromValues(bat.KOID, ids)
		}
		base := bat.New("k0", h, column(ks[0], n, d), 0)
		keys := []*bat.BAT{base}
		for _, k := range ks[1:] {
			if rng.Intn(4) == 0 {
				keys = append(keys, bat.New("k", base.H, column(k, n, d), 0))
				continue
			}
			rng.Shuffle(n, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			hs := append([]bat.Value(nil), ids[:n-n/10]...)
			for i := 0; i < n/20; i++ {
				hs = append(hs, hs[rng.Intn(len(hs))])
			}
			keys = append(keys, bat.New("k", bat.FromValues(bat.KOID, hs), column(k, len(hs), d), 0))
		}
		return keys
	}
	for arity := 1; arity <= 5; arity++ {
		for _, sizes := range [][3]int{{0, 0, 4}, {0, 30, 4}, {30, 0, 4}, {40, 60, 3}, {300, 200, 6}, {9000, 9000, 9000}} {
			for _, void := range []bool{false, true} {
				ks := make([]bat.Kind, arity)
				for j := range ks {
					ks[j] = kinds[(arity+j)%len(kinds)]
				}
				lKeys := side(ks, sizes[0], sizes[2], 0, void)
				rKeys := side(ks, sizes[1], sizes[2], 7, !void)
				mismatch := append([]*bat.BAT(nil), rKeys...)
				m := mismatch[arity-1]
				other := bat.KInt
				if m.T.Kind() == bat.KInt {
					other = bat.KFlt
				}
				mismatch[arity-1] = bat.New("k", m.H, column(other, m.Len(), sizes[2]), 0)
				for _, c := range []struct {
					name  string
					rKeys []*bat.BAT
				}{{"match", rKeys}, {"kind-mismatch", mismatch}} {
					lids, rids := joinMultiBoxed(lKeys, c.rKeys)
					for _, workers := range []int{1, 4} {
						label := fmt.Sprintf("joinmulti/%s/%v/arity=%d/void=%v/w=%d", c.name, sizes, arity, void, workers)
						got := JoinMulti(NewCtx(nil, Options{Workers: workers}), lKeys, c.rKeys)
						if got.H.Kind() != bat.KOID || got.T.Kind() != bat.KOID || got.Props != 0 {
							t.Fatalf("%s: [%s,%s] props %s, want [oid,oid] without props", label, got.H.Kind(), got.T.Kind(), got.Props)
						}
						if got.Len() != len(lids) {
							t.Fatalf("%s: %d pairs, reference %d", label, got.Len(), len(lids))
						}
						for i := range lids {
							if got.HeadValue(i) != lids[i] || got.TailValue(i) != rids[i] {
								t.Fatalf("%s: pair %d = (%s,%s), reference (%s,%s)", label, i,
									got.HeadValue(i), got.TailValue(i), lids[i], rids[i])
							}
						}
					}
				}
			}
		}
	}
}

// allocRows is the input size of the allocation bounds: large enough that an
// allocation per row, or a table sized by the row count's logarithm, could
// not hide under the bound.
const allocRows = 100_000

// maxAllocs is the per-call bound: slices and tables, never objects per row.
const maxAllocs = 64

// TestAllocationBounds: no operator on the Figure-9 path allocates per row.
// Each runs sequentially over 100k rows (a few hundred groups at most) and
// must stay within maxAllocs allocations per call, whatever the row count.
func TestAllocationBounds(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts")
	}
	rng := rand.New(rand.NewSource(602))
	const n = allocRows
	col := func(k bat.Kind) *bat.BAT { // void head, so every BAT is synced with every other
		return bat.New(k.String(), bat.NewVoid(0, n), bat.FromValues(k, randKindValues(rng, k, n, false)), 0)
	}
	ints, flts, flts2, dates, dates2, oids, strs, bits, bits2 :=
		col(bat.KInt), col(bat.KFlt), col(bat.KFlt), col(bat.KDate), col(bat.KDate), col(bat.KOID), col(bat.KStr), col(bat.KBit), col(bat.KBit)
	// 16 groups whose ids lie 2^24 apart: a span far beyond the rows keeps
	// the grouper variants on the path
	wideIDs := make([]bat.OID, n)
	for i, o := range oids.T.(*bat.OIDCol).V {
		wideIDs[i] = o << 24
	}
	grouped := func(tail *bat.BAT) *bat.BAT { return bat.New("g", bat.NewOIDCol(wideIDs), tail.T, 0) }
	// 4 groups of Q01's shape for the direct-index variants: group ids and
	// three flag characters
	gids, flags := make([]bat.OID, n), make([]byte, n)
	for i := range gids {
		gids[i], flags[i] = bat.OID(rng.Intn(4)), "ANR"[rng.Intn(3)]
	}
	gid := bat.New("gid", bat.NewVoid(0, n), bat.NewOIDCol(gids), 0)
	flag := bat.New("flag", gid.H, bat.NewChrCol(flags), 0)
	// semijoin operands: a persistent-style attribute BAT with a datavector,
	// a plain BAT for the hash variant, and a selection of half the oids
	attr := bat.AttachDatavector(bat.New("attr", bat.NewVoid(0, n), flts.T, 0))
	plain := bat.New("plain", bat.FromValues(bat.KOID, shuffledOIDs(rng, n)), flts.T, 0)
	sel := bat.New("sel", bat.FromValues(bat.KOID, shuffledOIDs(rng, n)[:n/2]), bat.NewVoid(0, n/2), 0)
	plain.HeadHash()
	sel.HeadHash()
	ua := bat.New("ua", bat.FromValues(bat.KOID, shuffledOIDs(rng, n)[:n/2]), bat.SliceView(flts.T, 0, n/2), 0)
	// merge operands: ascending oids below n with duplicates on both join
	// columns (about one match per row)
	sortedOIDs := func() bat.Column {
		v := make([]bat.OID, n)
		for i := range v {
			v[i] = bat.OID(rng.Intn(n))
		}
		slices.Sort(v)
		return bat.NewOIDCol(v)
	}
	ml := bat.New("ml", bat.NewVoid(0, n), sortedOIDs(), bat.TOrdered)
	mr := bat.New("mr", sortedOIDs(), flts.T, bat.HOrdered)
	voidHeaded := bat.New("vh", bat.NewVoid(0, n), flts.T, 0)
	// b of an un-synced group2: g's heads shuffled
	unsynced := bat.New("us", bat.FromValues(bat.KOID, shuffledOIDs(rng, n)), strs.T, 0)
	// joinmulti keys: element i of a side is keyed (key(i)/16, key(i)%16),
	// the second key stored in another order than the first. The right
	// side's n keys are distinct; half the left side's elements match one of
	// them, the other half nothing.
	keys := func(n int, key func(i int) int64) []*bat.BAT {
		k0, k1 := make([]int64, n), make([]int64, n)
		hs := shuffledOIDs(rng, n)
		for i := range k0 {
			k0[i], k1[i] = key(i)/16, key(int(hs[i].I))%16
		}
		return []*bat.BAT{
			bat.New("k0", bat.NewVoid(0, n), bat.NewIntCol(k0), 0),
			bat.New("k1", bat.FromValues(bat.KOID, hs), bat.NewIntCol(k1), 0),
		}
	}
	lsel := make([]int64, n)
	for i := range lsel {
		lsel[i] = int64(rng.Intn(2 * n))
	}
	lKeys, rKeys := keys(n, func(i int) int64 { return lsel[i] }), keys(n, func(i int) int64 { return int64(i) })

	ctx := NewCtx(nil, Options{Workers: 1})
	mx := func(fn string, args ...Operand) func() { return func() { Multiplex(ctx, fn, args) } }
	cases := map[string]func(){
		"Unique":                func() { Unique(ctx, grouped(ints)) },
		"Unique/dense":          func() { Unique(ctx, bat.New("u", gid.T, flag.T, 0)) },
		"GroupBinary/dense":     func() { GroupBinary(ctx, gid, flag) },
		"Aggr/dense":            func() { Aggr(ctx, "sum", bat.New("a", gid.T, flts.T, 0)) },
		"GroupUnary":            func() { GroupUnary(ctx, strs) },
		"GroupBinary":           func() { GroupBinary(ctx, oids, strs) },
		"Aggr/int":              func() { Aggr(ctx, "sum", grouped(ints)) },
		"Aggr/flt":              func() { Aggr(ctx, "avg", grouped(flts)) },
		"Aggr/date":             func() { Aggr(ctx, "min", grouped(dates)) },
		"Aggr/oid":              func() { Aggr(ctx, "count", grouped(oids)) },
		"GroupBinary/unsynced":  func() { GroupBinary(ctx, oids, unsynced) },
		"Join/merge":            func() { Join(ctx, ml, mr) },
		"JoinMulti":             func() { JoinMulti(ctx, lKeys, rKeys) },
		"Semijoin/merge":        func() { Semijoin(ctx, voidHeaded, mr) },
		"Semijoin/hash":         func() { Semijoin(ctx, plain, sel) },
		"Semijoin/datavector":   func() { Semijoin(ctx, attr, sel) },
		"Union":                 func() { Union(ctx, ua, plain) },
		"[=](str, const)":       mx("=", BATArg(strs), ConstArg(bat.S("s07"))),
		"[<](date, date)":       mx("<", BATArg(dates), BATArg(dates2)),
		"[and]":                 mx("and", BATArg(bits), BATArg(bits2)),
		"[*](flt, flt)":         mx("*", BATArg(flts), BATArg(flts2)),
		"[-](1, flt)":           mx("-", ConstArg(bat.I(1)), BATArg(flts)),
		"[strcontains]":         mx("strcontains", BATArg(strs), ConstArg(bat.S("0"))),
		"[year]":                mx("year", BATArg(dates)),
		"[if]":                  mx("if", BATArg(bits), BATArg(flts), ConstArg(bat.F(0))),
		"adapter [length]":      mx("length", BATArg(strs)),
		"adapter [snd](…, str)": mx("snd", BATArg(ints), ConstArg(bat.S("x"))),
	}
	algo := map[string]string{
		"Join/merge": "merge-join", "Semijoin/merge": "merge-semijoin", "GroupBinary/unsynced": "hash-group",
		"Unique": "hash-unique", "GroupUnary": "hash-group", "GroupBinary": "hash-group",
		"Aggr/int": "hash-aggr", "Aggr/flt": "hash-aggr", "Aggr/date": "hash-aggr", "Aggr/oid": "hash-aggr",
		"Unique/dense": "dense-unique", "GroupBinary/dense": "dense-group", "Aggr/dense": "dense-aggr",
	}
	for name, run := range cases {
		run() // build accelerators and memoized lookups outside the measurement
		if want, ok := algo[name]; ok && ctx.LastAlgo() != want {
			t.Fatalf("%s ran %q, want %q", name, ctx.LastAlgo(), want)
		}
		if got := testing.AllocsPerRun(3, run); got > maxAllocs {
			t.Errorf("%s over %d rows: %.0f allocations per call, bound %d", name, n, got, maxAllocs)
		}
		// The direct index reads the key columns in place: no n-sized
		// uint64 key-rep vector (only group2's n-entry result is n-sized).
		if strings.HasSuffix(name, "/dense") {
			if got := bytesPerRun(3, run); got >= 8*n {
				t.Errorf("%s over %d rows: %d B per call, bound %d", name, n, got, 8*n)
			}
		}
	}
}

// bytesPerRun reports the bytes f allocates per call, averaged over runs.
func bytesPerRun(runs int, f func()) int {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return int(after.TotalAlloc-before.TotalAlloc) / runs
}

// shuffledOIDs returns the oids 0..n-1 in random order, boxed.
func shuffledOIDs(rng *rand.Rand, n int) []bat.Value {
	out := make([]bat.Value, n)
	for i, p := range rng.Perm(n) {
		out[i] = bat.O(bat.OID(p))
	}
	return out
}
