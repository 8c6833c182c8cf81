package mil

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/bat"
)

// denseKey is one key column of the direct-index parity pool.
type denseKey struct {
	name string
	col  bat.Column
}

// denseKeyPool builds key columns of every exact kind: spans just below, at
// and just above the direct-index bound of 2·rows, narrow and all-equal
// keys, keys at the extremes of their kind (whose span must not wrap into
// "small"), and 0 and 1 rows.
func denseKeyPool(rng *rand.Rand) []denseKey {
	const n = 300 // 2n = 600 lies above the 256-entry floor
	fixed := func(k bat.Kind, vals []int64) bat.Column {
		vs := make([]bat.Value, len(vals))
		for i, x := range vals {
			vs[i] = bat.Value{K: k, I: x}
		}
		return bat.FromValues(k, vs)
	}
	spread := func(rows int, lo, span int64) []int64 { return spread(rng, rows, lo, span) }
	var pool []denseKey
	add := func(name string, c bat.Column) { pool = append(pool, denseKey{name, c}) }
	for _, k := range []struct {
		kind bat.Kind
		lo   int64
	}{{bat.KOID, 1000}, {bat.KInt, -400}, {bat.KDate, 9000}} {
		for _, span := range []int64{2*n - 1, 2 * n, 2*n + 1} {
			add(fmt.Sprintf("%s/span=%d", k.kind, span), fixed(k.kind, spread(n, k.lo, span)))
		}
		for _, rows := range []int{0, 1, n} {
			add(fmt.Sprintf("%s/narrow/rows=%d", k.kind, rows), fixed(k.kind, spread(rows, k.lo, 16)))
			add(fmt.Sprintf("%s/all-equal/rows=%d", k.kind, rows), fixed(k.kind, spread(rows, k.lo+7, 1)))
		}
	}
	extremes := func(lo, hi int64) []int64 { // lo and hi among values a few apart
		vals := spread(n, lo, 4)
		for i := 0; i < n; i += 3 {
			vals[i] = hi - rng.Int63n(4)
		}
		return vals
	}
	add("int/min..max", fixed(bat.KInt, extremes(math.MinInt64, math.MaxInt64)))
	add("int/min..0", fixed(bat.KInt, extremes(math.MinInt64, 0)))
	add("int/span=2^32", fixed(bat.KInt, spread(n, 0, 1<<32)))
	add("int/near-max", fixed(bat.KInt, spread(n, math.MaxInt64-15, 16)))
	add("int/near-min", fixed(bat.KInt, spread(n, math.MinInt64, 16)))
	add("oid/0..max", fixed(bat.KOID, extremes(0, math.MaxUint32)))
	add("oid/near-max", fixed(bat.KOID, spread(n, math.MaxUint32-15, 16)))
	add("date/min..max", fixed(bat.KDate, extremes(math.MinInt32, math.MaxInt32)))
	add("date/near-min", fixed(bat.KDate, spread(n, math.MinInt32, 16)))
	for _, rows := range []int{0, 1, n} {
		add(fmt.Sprintf("chr/0..255/rows=%d", rows), fixed(bat.KChr, spread(rows, 0, 256)))
		add(fmt.Sprintf("chr/3/rows=%d", rows), fixed(bat.KChr, spread(rows, 'A', 3)))
		bits := make([]bool, rows)
		for i := range bits {
			bits[i] = rng.Intn(3) == 0
		}
		add(fmt.Sprintf("bit/rows=%d", rows), bat.NewBitCol(bits))
		add(fmt.Sprintf("void/rows=%d", rows), bat.NewVoid(5, rows))
		add(fmt.Sprintf("void-high/rows=%d", rows), bat.NewVoid(math.MaxUint32-bat.OID(n), rows))
	}
	// inexact kinds never take the direct index
	add("flt", bat.NewFltCol([]float64{1, 2.5, math.Copysign(0, -1), 0, 1, 2}))
	add("str", bat.NewStrColFromStrings([]string{"b", "a", "b", ""}))
	return pool
}

// wantDense is the direct-index rule restated over boxed values: every key
// of an exact kind, and the product of their spans over the rows — a bit
// column spans its two values — at most twice the rows, or 256.
func wantDense(cols ...bat.Column) bool {
	n := cols[0].Len()
	prod := big.NewInt(1)
	for _, c := range cols {
		span := big.NewInt(1)
		switch k := c.Kind(); {
		case k == bat.KFlt || k == bat.KStr:
			return false
		case k == bat.KBit:
			span.SetInt64(2)
		case n > 0:
			lo, hi := c.Get(0).I, c.Get(0).I
			for i := 1; i < n; i++ {
				lo, hi = min(lo, c.Get(i).I), max(hi, c.Get(i).I)
			}
			span.Sub(big.NewInt(hi), big.NewInt(lo))
			span.Add(span, big.NewInt(1))
		}
		prod.Mul(prod, span)
	}
	return prod.Cmp(big.NewInt(int64(max(2*n, 256)))) <= 0
}

// sameBUNs requires got and want to hold the same BUNs bit for bit (float
// sums and NaNs included), of the same kinds.
func sameBUNs(t *testing.T, label string, got, want *bat.BAT) {
	t.Helper()
	if got.H.Kind() != want.H.Kind() && !(isOIDKind(got.H.Kind()) && isOIDKind(want.H.Kind())) ||
		got.T.Kind() != want.T.Kind() {
		t.Fatalf("%s: [%s,%s], want [%s,%s]", label, got.H.Kind(), got.T.Kind(), want.H.Kind(), want.T.Kind())
	}
	if g, w := colBits(got.H), colBits(want.H); g != w {
		t.Fatalf("%s: heads\n%s\nwant\n%s", label, g, w)
	}
	if g, w := colBits(got.T), colBits(want.T); g != w {
		t.Fatalf("%s: tails\n%s\nwant\n%s", label, g, w)
	}
}

func isOIDKind(k bat.Kind) bool { return k == bat.KOID || k == bat.KVoid }

// TestDenseGroupingParity: the direct-index variants of group, group2,
// unique and the set aggregates (alone and fed by a join) answer exactly
// what the grouper variants and the boxed references answer — group oids,
// kept BUNs, heads, float sums bit for bit — over keys of every exact kind,
// spans around the 2·rows bound, kind extremes, void keys, 0 and 1 rows and
// all-equal keys, composites whose span product lies beyond the bound or
// beyond 64 bits, at workers {1,4}. Each operator must take the direct
// index exactly when wantDense says so.
func TestDenseGroupingParity(t *testing.T) {
	rng := rand.New(rand.NewSource(701))
	pool := denseKeyPool(rng)
	fns := []string{"count", "sum", "avg", "min", "max"}
	for _, key := range pool {
		n := key.col.Len()
		vh := bat.NewVoid(0, n)
		// second keys of the composites: a flag, three characters, the key
		// itself and a void column
		seconds := []denseKey{
			{"bit", bat.NewBitCol(randBits(rng, n))},
			{"chr3", bat.FromValues(bat.KChr, randKindValues(rng, bat.KChr, n, false)[:n])},
			{"self", key.col},
			{"void", bat.NewVoid(40, n)},
		}
		if n > 0 { // a span of 2^32: with int/span=2^32 the product wraps 64 bits to 0
			seconds = append(seconds, denseKey{"wide", bat.NewIntCol(spread(rng, n, 0, 1<<32))})
		}
		tails := []bat.Column{edgeColumn(rng, bat.KFlt, max(n, 1)), bat.FromValues(bat.KInt, randKindValues(rng, bat.KInt, max(n, 1), false))}
		for i, c := range tails {
			tails[i] = bat.SliceView(c, 0, n)
		}
		for _, workers := range []int{1, 4} {
			ctx := NewCtx(nil, Options{Workers: workers})
			label := fmt.Sprintf("%s/w=%d", key.name, workers)
			variant := func(op string, dense bool) string {
				if dense {
					return "dense-" + op
				}
				return "hash-" + op
			}
			check := func(what, want string) {
				t.Helper()
				if got := ctx.LastAlgo(); got != want {
					t.Fatalf("%s: %s ran %q, want %q", label, what, got, want)
				}
			}

			// group
			b := bat.New("b", vh, key.col, 0)
			got := GroupUnary(ctx, b)
			check("group", variant("group", wantDense(key.col)))
			ref := make([]bat.OID, n)
			groupTailsBoxed(b, ref)
			hashed := make([]bat.OID, n)
			hashRows(ctx, "group", hashed, key.col)
			sameBUNs(t, label+"/group vs boxed", got, bat.New("ref", vh, bat.NewOIDCol(ref), 0))
			sameBUNs(t, label+"/group vs grouper", got, bat.New("ref", vh, bat.NewOIDCol(hashed), 0))

			for _, sec := range seconds {
				l2 := label + "/" + sec.name
				// group2, synced: one head column
				g := bat.New("g", vh, key.col, 0)
				b2 := bat.New("b2", g.H, sec.col, 0)
				got := GroupBinary(ctx, g, b2)
				check(sec.name+" group2", variant("group", wantDense(key.col, sec.col)))
				groupBinaryBoxed(g, b2, ref)
				hashRows(ctx, "group", hashed, g.T, b2.T)
				sameBUNs(t, l2+"/group2 vs boxed", got, bat.New("ref", vh, bat.NewOIDCol(ref), 0))
				sameBUNs(t, l2+"/group2 vs grouper", got, bat.New("ref", vh, bat.NewOIDCol(hashed), 0))

				// unique over (key, second)
				u := bat.New("u", key.col, sec.col, 0)
				got = Unique(ctx, u)
				check(sec.name+" unique", variant("unique", wantDense(key.col, sec.col)))
				sameBUNs(t, l2+"/unique vs boxed", got, uniqueBoxed(nil, u))
				sameBUNs(t, l2+"/unique vs grouper", got, hashUnique(ctx, u))

				// the kernel itself: slot ids and first rows equal the
				// grouper's
				if wantDense(key.col, sec.col) {
					sameSlots(t, l2, n, key.col, sec.col)
				}
			}

			for _, tail := range tails {
				a := bat.New("a", key.col, tail, 0)
				for _, fn := range fns {
					l2 := fmt.Sprintf("%s/{%s}(%s)", label, fn, tail.Kind())
					got := Aggr(ctx, fn, a)
					want := variant("aggr", wantDense(key.col))
					check(fmt.Sprintf("{%s}", fn), want)
					sameBUNs(t, l2+" vs grouper", got, hashAggrBAT(ctx, fn, a))
					sameBUNs(t, l2+" vs boxed", got, aggrBoxed(nil, fn, a))

					// A join into the aggregate, as a plan has it, groups
					// over the key the same way.
					env := Env{"k": bat.New("k", key.col, bat.NewVoid(0, n), 0), "v": bat.New("v", bat.NewVoid(0, n), tail, 0)}
					src := fmt.Sprintf("x := join(k, v)\nRES := {%s}(x)", fn)
					scope, traces := runProgram(t, l2, src, env, Options{Workers: workers})
					res, _ := scope.Lookup("RES")
					sameBUNs(t, l2+"/join", res, got)
					if term := traces[len(traces)-1].Algo; term != want {
						t.Fatalf("%s: after a join ran %q, want %q", l2, term, want)
					}
				}
			}
		}
	}
}

// runProgram parses and executes src over env under o.
func runProgram(t *testing.T, label, src string, env Env, o Options) (*Scope, []StmtTrace) {
	t.Helper()
	prog, err := ParseProgram(src)
	if err != nil {
		t.Fatalf("%s: parse: %v", label, err)
	}
	scope, traces, err := Exec(NewCtx(nil, o), prog, env)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return scope, traces
}

// sameSlots requires the DenseGrouper over the composite key cols to hand
// rows [0, n) the slots, and to report the first rows, of the grouper over
// the Mix'ed key reps.
func sameSlots(t *testing.T, label string, n int, cols ...bat.Column) {
	t.Helper()
	d := bat.NewDenseGrouper(n, cols...)
	if d == nil {
		t.Fatalf("%s: no direct index", label)
	}
	reps := make([]*bat.KeyRep, len(cols))
	for i, c := range cols {
		reps[i] = bat.NewKeyRep(c)
	}
	eq := bat.KeysEq(reps)
	g := bat.NewGrouper(&eq)
	got := make([]int32, n)
	for lo := 0; lo < n; lo += 7 { // odd batches: slots carry across calls
		if top := d.Slots(lo, got[lo:min(lo+7, n)]); top != len(d.Rows()) {
			t.Fatalf("%s: Slots reports %d slots, %d first rows", label, top, len(d.Rows()))
		}
	}
	for r := range int32(n) {
		rep := reps[0].Rep[r]
		for _, kr := range reps[1:] {
			rep = bat.Mix(rep, kr.Rep[r])
		}
		if s, _ := g.Slot(rep, r); s != got[r] {
			t.Fatalf("%s: row %d in slot %d, grouper %d", label, r, got[r], s)
		}
	}
	if fmt.Sprint(d.Rows()) != fmt.Sprint(g.Rows()) {
		t.Fatalf("%s: first rows %v, grouper %v", label, d.Rows(), g.Rows())
	}
}

// spread draws rows values from [lo, lo+span), with lo and lo+span−1 both
// present.
func spread(rng *rand.Rand, rows int, lo, span int64) []int64 {
	vals := make([]int64, rows)
	for i := range vals {
		vals[i] = lo + rng.Int63n(span)
	}
	if rows >= 2 {
		vals[rng.Intn(rows/2)], vals[rows/2+rng.Intn(rows/2)] = lo, lo+span-1
	}
	return vals
}

func randBits(rng *rand.Rand, n int) []bool {
	v := make([]bool, n)
	for i := range v {
		v[i] = rng.Intn(2) == 0
	}
	return v
}
