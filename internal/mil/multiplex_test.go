package mil

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/bat"
)

// Differential tests of the multiplex compile step: whatever primitive
// compileMap picks — a typed family or the adapter — the result must equal
// Func.Apply row by row, bit for bit, for every registered function over
// every operand kind and shape (oracles in oracle_test.go).

// mxKinds are the operand kinds the multiplex is driven over: the seven
// value kinds plus a void (dense oid) tail.
var mxKinds = append([]bat.Kind{bat.KVoid}, parityKinds...)

// sharedPrefix makes strings that differ only after 30 bytes.
const sharedPrefix = "0123456789012345678901234567-:"

// mxColumn builds an n-row tail of kind k: a small domain with the kind's
// edge values (NaN, ±0, ±Inf, the integer extremes, the empty string, strings
// sharing a 30-byte prefix) mixed in.
func mxColumn(rng *rand.Rand, k bat.Kind, n int) bat.Column {
	if k == bat.KVoid {
		return bat.NewVoid(7, n)
	}
	var edges []bat.Value
	switch k {
	case bat.KInt:
		edges = []bat.Value{bat.I(math.MinInt64), bat.I(math.MaxInt64), bat.I(0)}
	case bat.KFlt:
		edges = []bat.Value{bat.F(math.NaN()), bat.F(math.Copysign(0, -1)), bat.F(0), bat.F(math.Inf(1)), bat.F(math.Inf(-1))}
	case bat.KStr:
		edges = []bat.Value{bat.S(""), bat.S(sharedPrefix + "a"), bat.S(sharedPrefix + "b"), bat.S(sharedPrefix)}
	case bat.KOID:
		edges = []bat.Value{bat.O(0), bat.O(math.MaxUint32)}
	case bat.KDate:
		edges = []bat.Value{bat.D(math.MinInt32), bat.D(math.MaxInt32)}
	case bat.KChr:
		edges = []bat.Value{bat.C(0), bat.C(255)}
	}
	vals := randKindValues(rng, k, n, false)
	for i := range vals {
		if len(edges) > 0 && rng.Intn(4) == 0 {
			vals[i] = edges[rng.Intn(len(edges))]
		}
	}
	return bat.FromValues(k, vals)
}

// mxConsts are the constants tried per kind: an ordinary value and an edge.
func mxConsts(k bat.Kind) []bat.Value {
	switch k {
	case bat.KInt:
		return []bat.Value{bat.I(3), bat.I(math.MinInt64)}
	case bat.KFlt:
		return []bat.Value{bat.F(0.5), bat.F(math.NaN())}
	case bat.KStr:
		return []bat.Value{bat.S("s07"), bat.S("")}
	case bat.KOID, bat.KVoid:
		return []bat.Value{bat.O(9)}
	case bat.KDate:
		return []bat.Value{bat.D(9003)}
	case bat.KChr:
		return []bat.Value{bat.C('c')}
	default:
		return []bat.Value{bat.B(true), bat.B(false)}
	}
}

// mxCase is one multiplex to compare: a function and its operands' kinds,
// consts[j] telling which operands are constants.
type mxCase struct {
	f      *Func
	kinds  []bat.Kind
	consts []bool
}

func (c mxCase) String() string {
	parts := make([]string, len(c.kinds))
	for j, k := range c.kinds {
		parts[j] = k.String()
		if c.consts[j] {
			parts[j] += " const"
		}
	}
	return fmt.Sprintf("[%s](%s)", c.f.Name, strings.Join(parts, ", "))
}

// accepted reports whether the case is one a multiplex must handle: at least
// one BAT operand, and a function whose result kind the operand kinds fix —
// which rules out only an [if] between branches of two kinds.
func (c mxCase) accepted() bool {
	valueKind := func(k bat.Kind) bat.Kind { // a void tail supplies oids
		if k == bat.KVoid {
			return bat.KOID
		}
		return k
	}
	if c.f.Name == "if" && valueKind(c.kinds[1]) != valueKind(c.kinds[2]) {
		return false
	}
	for _, isConst := range c.consts {
		if !isConst {
			return true
		}
	}
	return false
}

// mxCases enumerates every registered function × operand-kind combination ×
// column/constant shape; variadic functions at two operands, and at three
// over a reduced kind set.
func mxCases() []mxCase {
	names := make([]string, 0, len(funcs))
	for name := range funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []mxCase
	for _, name := range names {
		f := funcs[name]
		arities := []int{f.Arity}
		if f.Arity < 0 {
			arities = []int{2, 3}
		}
		for _, ar := range arities {
			from := mxKinds
			if f.Arity < 0 && ar == 3 {
				from = []bat.Kind{bat.KBit, bat.KInt, bat.KFlt}
			}
			combos := 1
			for j := 0; j < ar; j++ {
				combos *= len(from)
			}
			for combo := 0; combo < combos; combo++ {
				kinds := make([]bat.Kind, ar)
				for j, c := 0, combo; j < ar; j, c = j+1, c/len(from) {
					kinds[j] = from[c%len(from)]
				}
			masks:
				for mask := 0; mask < 1<<ar; mask++ {
					c := mxCase{f: f, kinds: kinds, consts: make([]bool, ar)}
					for j := range c.consts {
						if c.consts[j] = mask&(1<<j) != 0; c.consts[j] && kinds[j] == bat.KVoid {
							continue masks // there is no void constant
						}
					}
					if c.accepted() {
						out = append(out, c)
					}
				}
			}
		}
	}
	return out
}

// operands builds the case's operands over n rows: aligned BATs share one
// void head, unaligned ones carry their own (equal) oid head columns, which
// the multiplex can only match by value. which picks among the constants.
func (c mxCase) operands(rng *rand.Rand, n int, aligned bool, which int) (first *bat.BAT, args []Operand) {
	for j, k := range c.kinds {
		if c.consts[j] {
			cs := mxConsts(k)
			args = append(args, ConstArg(cs[which%len(cs)]))
			continue
		}
		var head bat.Column = bat.NewVoid(0, n)
		if !aligned {
			oids := make([]bat.OID, n)
			for i := range oids {
				oids[i] = bat.OID(i)
			}
			head = bat.NewOIDCol(oids)
		}
		b := bat.New(fmt.Sprintf("op%d", j), head, mxColumn(rng, k, n), bat.HKey|bat.HOrdered)
		if first == nil {
			first = b
		}
		args = append(args, BATArg(b))
	}
	return first, args
}

// sameMultiplex asserts got equals the boxed reference: tail kind, heads and
// tails bit for bit (floats by bit pattern), properties, and the sync state
// with the first operand.
func sameMultiplex(t *testing.T, label string, got, want, first *bat.BAT) {
	t.Helper()
	if got.T.Kind() != want.T.Kind() || got.Len() != want.Len() {
		t.Fatalf("%s: %d rows of %s, reference %d of %s", label, got.Len(), got.T.Kind(), want.Len(), want.T.Kind())
	}
	for _, cols := range [][2]bat.Column{{got.H, want.H}, {got.T, want.T}} {
		for i := 0; i < got.Len(); i++ {
			g, w := cols[0].Get(i), cols[1].Get(i)
			if g.K != w.K || g.I != w.I || math.Float64bits(g.F) != math.Float64bits(w.F) || g.S != w.S {
				t.Fatalf("%s: row %d is %s, reference %s", label, i, g, w)
			}
		}
	}
	if got.Props != want.Props {
		t.Fatalf("%s: props %s, reference %s", label, got.Props, want.Props)
	}
	if bat.Synced(got, first) != bat.Synced(want, first) {
		t.Fatalf("%s: synced with first operand = %v, reference %v", label, bat.Synced(got, first), bat.Synced(want, first))
	}
}

// TestTypedMultiplexEqualsApply: the aligned multiplex equals per-row
// Func.Apply over Get(i), for every case, at sizes around a vector and —
// where a typed primitive runs — at sizes that engage parallel fill (100k
// rows for the all-column shapes), on one and four workers (below
// bat.ParallelMinRows every worker count runs the one sequential fill).
func TestTypedMultiplexEqualsApply(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
	typed := 0
	for ci, c := range mxCases() {
		sizes := []int{0, 1, 1023, 1025}
		_, probe := c.operands(rng, 1, true, 0)
		if c.f.typed != nil && c.f.typed(probe) != nil {
			typed++
			sizes = append(sizes, bat.ParallelMinRows+1000)
			if allCols := !slices.Contains(c.consts, true); allCols && !raceEnabled && !testing.Short() {
				sizes = append(sizes, 100_000)
			}
		}
		for _, n := range sizes {
			first, args := c.operands(rng, n, true, ci)
			want := multiplexBoxed(c.f, first, args)
			for _, workers := range []int{1, 4} {
				if workers > 1 && n < bat.ParallelMinRows {
					continue
				}
				ctx := NewCtx(nil, Options{Workers: workers})
				got := Multiplex(ctx, c.f.Name, args)
				if ctx.LastAlgo() != "aligned-multiplex" {
					t.Fatalf("%s: ran %s", c, ctx.LastAlgo())
				}
				sameMultiplex(t, fmt.Sprintf("%s n=%d workers=%d", c, n, workers), got, want, first)
			}
		}
	}
	if typed < 200 {
		t.Fatalf("only %d cases compiled to a typed primitive; the family table is not being exercised", typed)
	}
}

// TestMultiplexHashEqualsBoxed: operands that match on head values only —
// shuffled, with duplicate and missing heads — produce exactly the boxed
// natural join's BUNs, through the same primitives.
func TestMultiplexHashEqualsBoxed(t *testing.T) {
	rng := rand.New(rand.NewSource(502))
	for _, hk := range []bat.Kind{bat.KOID, bat.KInt, bat.KStr, bat.KFlt} {
		for _, n := range []int{0, 1, 300} {
			heads := func() bat.Column {
				vals := randKindValues(rng, hk, n, false)
				if hk == bat.KFlt && n > 2 {
					vals[0], vals[n-1] = bat.F(math.NaN()), bat.F(math.Copysign(0, -1))
				}
				return bat.FromValues(hk, vals)
			}
			a := bat.New("a", heads(), mxColumn(rng, bat.KFlt, n), bat.HOrdered)
			b := bat.New("b", heads(), mxColumn(rng, bat.KInt, n), 0)
			c := bat.New("c", heads(), mxColumn(rng, bat.KBit, n), 0)
			for _, tc := range []struct {
				fn   string
				args []Operand
			}{
				{"*", []Operand{BATArg(a), BATArg(b)}},
				{"<", []Operand{BATArg(b), BATArg(a)}},
				{"+", []Operand{ConstArg(bat.I(1)), BATArg(a)}},
				{"if", []Operand{BATArg(c), BATArg(a), ConstArg(bat.F(2))}},
				{"if", []Operand{BATArg(c), BATArg(a), BATArg(a)}},
				{"snd", []Operand{BATArg(b), ConstArg(bat.S("x"))}},
			} {
				var first *bat.BAT
				distinct := map[*bat.BAT]bool{}
				for _, arg := range tc.args {
					if arg.B != nil {
						if distinct[arg.B] = true; first == nil {
							first = arg.B
						}
					}
				}
				f, _ := LookupFunc(tc.fn)
				want := multiplexHashBoxed(f, first, tc.args)
				ctx := &Ctx{}
				got := Multiplex(ctx, tc.fn, tc.args)
				label := fmt.Sprintf("[%s] %s heads n=%d", tc.fn, hk, n)
				// Empty heads of one kind are one column: the operands are synced.
				if wantAlgo := map[bool]string{true: "hash-multiplex", false: "aligned-multiplex"}[len(distinct) > 1 && n > 0]; ctx.LastAlgo() != wantAlgo {
					t.Fatalf("%s: ran %s, want %s", label, ctx.LastAlgo(), wantAlgo)
				}
				sameMultiplex(t, label, got, want, first)
			}
		}
	}
}

// TestMultiplexResultKindIndependentOfRowCount: the tail kind of a multiplex
// is fixed by the function and the operand kinds, so a zero-row operand
// yields the kind a one-row operand does — aligned and hash alike. (Before
// the compile step the kind came from the first result row, or from a guess
// when there was none: [*](int column, 0.5) was flt on one row and int on
// none.)
func TestMultiplexResultKindIndependentOfRowCount(t *testing.T) {
	rng := rand.New(rand.NewSource(503))
	for _, c := range mxCases() {
		for _, aligned := range []bool{true, false} {
			var kinds [2]bat.Kind
			for n := 0; n <= 1; n++ {
				ctx := &Ctx{}
				_, args := c.operands(rng, n, aligned, 0)
				kinds[n] = Multiplex(ctx, c.f.Name, args).T.Kind()
				nb := 0
				for _, isConst := range c.consts {
					if !isConst {
						nb++
					}
				}
				if want := "hash-multiplex"; !aligned && nb > 1 && n > 0 && ctx.LastAlgo() != want {
					t.Fatalf("%s: ran %s, want %s", c, ctx.LastAlgo(), want)
				}
			}
			if kinds[0] != kinds[1] {
				t.Fatalf("%s aligned=%v: %s on zero rows, %s on one", c, aligned, kinds[0], kinds[1])
			}
		}
	}
	// the shapes the old guess got wrong
	empty := bat.New("e", bat.NewVoid(0, 0), bat.NewIntCol(nil), 0)
	if k := Multiplex(nil, "*", []Operand{BATArg(empty), ConstArg(bat.F(0.5))}).T.Kind(); k != bat.KFlt {
		t.Fatalf("[*](int, 0.5) over no rows is %s, want flt", k)
	}
	bits := bat.New("b", bat.NewVoid(0, 0), bat.NewBitCol(nil), 0)
	if k := Multiplex(nil, "if", []Operand{BATArg(bits), ConstArg(bat.F(1)), ConstArg(bat.F(2))}).T.Kind(); k != bat.KFlt {
		t.Fatalf("[if](bit, 1.0, 2.0) over no rows is %s, want flt", k)
	}
}

// TestRegisteredFuncRunsThroughAdapter: a function registered at run time —
// also one shadowing a built-in name — has no typed family; it runs through
// the adapter with its own semantics.
func TestRegisteredFuncRunsThroughAdapter(t *testing.T) {
	old := funcs["="]
	defer func() { funcs["="] = old; delete(funcs, "twice") }()
	RegisterFunc(&Func{Name: "twice", Arity: 1, Apply: func(a []bat.Value) bat.Value { return bat.S(a[0].S + a[0].S) }})
	RegisterFunc(&Func{Name: "=", Arity: 2, Apply: func(a []bat.Value) bat.Value { return bat.B(true) }})
	s := bat.New("s", bat.NewVoid(0, 2), bat.NewStrColFromStrings([]string{"ab", ""}), 0)
	if got := Multiplex(nil, "twice", []Operand{BATArg(s)}); colBits(got.T) != colBits(bat.NewStrColFromStrings([]string{"abab", ""})) {
		t.Fatalf("twice = %v", got.TailValues())
	}
	if got := Multiplex(nil, "=", []Operand{BATArg(s), ConstArg(bat.S("zz"))}); !got.TailValue(0).Bool() || !got.TailValue(1).Bool() {
		t.Fatalf("re-registered = did not take effect: %v", got.TailValues())
	}
}
