package mil

import (
	"fmt"
	"math"
	"math/rand"
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
	grouped := func(tail *bat.BAT) *bat.BAT { return bat.New("g", oids.T, tail.T, 0) } // 16 groups
	// semijoin operands: a persistent-style attribute BAT with a datavector,
	// a plain BAT for the hash variant, and a selection of half the oids
	attr := bat.AttachDatavector(bat.New("attr", bat.NewVoid(0, n), flts.T, 0))
	plain := bat.New("plain", bat.FromValues(bat.KOID, shuffledOIDs(rng, n)), flts.T, 0)
	sel := bat.New("sel", bat.FromValues(bat.KOID, shuffledOIDs(rng, n)[:n/2]), bat.NewVoid(0, n/2), 0)
	plain.HeadHash()
	sel.HeadHash()
	ua := bat.New("ua", bat.FromValues(bat.KOID, shuffledOIDs(rng, n)[:n/2]), bat.SliceView(flts.T, 0, n/2), 0)

	ctx := NewCtx(nil, Options{Workers: 1})
	mx := func(fn string, args ...Operand) func() { return func() { Multiplex(ctx, fn, args) } }
	cases := map[string]func(){
		"Unique":                func() { Unique(ctx, grouped(ints)) },
		"GroupUnary":            func() { GroupUnary(ctx, strs) },
		"GroupBinary":           func() { GroupBinary(ctx, oids, strs) },
		"Aggr/int":              func() { Aggr(ctx, "sum", grouped(ints)) },
		"Aggr/flt":              func() { Aggr(ctx, "avg", grouped(flts)) },
		"Aggr/date":             func() { Aggr(ctx, "min", grouped(dates)) },
		"Aggr/oid":              func() { Aggr(ctx, "count", grouped(oids)) },
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
	for name, run := range cases {
		run() // build accelerators and memoized lookups outside the measurement
		if got := testing.AllocsPerRun(3, run); got > maxAllocs {
			t.Errorf("%s over %d rows: %.0f allocations per call, bound %d", name, n, got, maxAllocs)
		}
	}
}

// shuffledOIDs returns the oids 0..n-1 in random order, boxed.
func shuffledOIDs(rng *rand.Rand, n int) []bat.Value {
	out := make([]bat.Value, n)
	for i, p := range rng.Perm(n) {
		out[i] = bat.O(bat.OID(p))
	}
	return out
}
