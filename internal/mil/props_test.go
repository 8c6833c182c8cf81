package mil

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bat"
)

// TestPropertyPropagationSoundness is the soundness check for the Section
// 5.1 property machinery: random operator applications over random and
// adversarial data must never produce a BAT whose declared properties
// (ordered / key / dense) are violated, every pair of BATs the kernel claims
// synced must actually correspond position by position, and the bits
// run-time detection adds (KnownProps) must hold as well, and so must every
// grouping fact a column carries (CheckProps verifies those too).
func TestPropertyPropagationSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		pool := seedPool(rng)
		ctx := &Ctx{}
		checkGroupingCarriage(t, fmt.Sprintf("trial %d", trial), ctx, pool[0])
		for step := 0; step < 16; step++ {
			op, b := applyRandomOp(t, rng, ctx, pool)
			if b == nil {
				continue
			}
			label := fmt.Sprintf("trial %d step %d (%s)", trial, step, op)
			checkClaims(t, label, b)
			pool = append(pool, b)
			checkSyncClaims(t, label, b, pool)
			// The dispatchers ran detection on their operands: whatever it
			// recorded must hold too.
			for _, p := range pool {
				checkKnownProps(t, label, p)
			}
		}
	}
}

// checkGroupingCarriage: the operators that hand a grouping's id column on
// as the same object at its original positions — mirror, sync-join,
// sync-semijoin — carry its fact, and CheckProps accepts it there; a select,
// a row-dropping semijoin, a sort and a slice build new columns, which carry
// none. base is a void-headed attribute.
func checkGroupingCarriage(t *testing.T, label string, ctx *Ctx, base *bat.BAT) {
	t.Helper()
	g := GroupUnary(ctx, base)
	ids := g.T
	sj, _ := syncJoin(ctx, g.Mirror(), base)
	for what, c := range map[string]bat.Column{
		"group":         g.T,
		"mirror":        g.Mirror().H,
		"sync-join":     sj.H,
		"sync-semijoin": Semijoin(ctx, g, base).T,
	} {
		if c != ids || bat.GroupingOf(c) == nil {
			t.Fatalf("%s: %s does not carry the grouping's ids", label, what)
		}
	}
	for _, b := range []*bat.BAT{g, g.Mirror(), sj} {
		checkClaims(t, label, b)
	}
	half := Slice(ctx, base, base.Len()/2)
	for what, b := range map[string]*bat.BAT{
		"select":   SelectEq(ctx, g, tailValue(rand.New(rand.NewSource(1)), g)),
		"semijoin": Semijoin(ctx, g, half),
		"sort":     SortTail(ctx, g, false),
		"slice":    Slice(ctx, g, g.Len()/2),
	} {
		if bat.GroupingOf(b.H) != nil || bat.GroupingOf(b.T) != nil {
			t.Fatalf("%s: %s carries a grouping fact: %s", label, what, b)
		}
	}
}

// seedPool builds base BATs with honest properties: int, oid, float, string
// and bit tails, datavector-carrying attributes, floats holding NaN and
// both signed zeros (raw and sorted), empty BATs, all-duplicate heads and
// tails, and unique unordered int heads.
func seedPool(rng *rand.Rand) []*bat.BAT {
	n := 20 + rng.Intn(40)
	tails := make([]int64, n)
	for i := range tails {
		tails[i] = int64(rng.Intn(16))
	}
	oids := make([]bat.OID, n)
	for i := range oids {
		oids[i] = bat.OID(rng.Intn(2 * n))
	}
	attr := bat.New("attr", bat.NewVoid(0, n), bat.NewIntCol(tails), 0)
	withDV := bat.AttachDatavector(attr)
	refs := bat.New("refs", bat.NewVoid(0, n), bat.NewOIDCol(oids), 0)
	flt := make([]float64, n)
	for i := range flt {
		flt[i] = rng.Float64() * 100
	}
	fattr := bat.New("fattr", bat.NewVoid(0, n), bat.NewFltCol(flt), 0)

	nan := make([]float64, n)
	for i := range nan {
		switch rng.Intn(5) {
		case 0:
			nan[i] = math.NaN()
		case 1:
			nan[i] = math.Copysign(0, -1)
		case 2:
			nan[i] = 0
		default:
			nan[i] = float64(rng.Intn(6))
		}
	}
	nanAttr := bat.New("nan", bat.NewVoid(0, n), bat.NewFltCol(nan), 0)
	strs := make([]string, n)
	bits := make([]bool, n)
	for i := range strs {
		strs[i] = string(rune('a' + rng.Intn(6)))
		bits[i] = rng.Intn(2) == 0
	}
	dupHeads := make([]bat.OID, n)
	dupTails := make([]int64, n)
	for i := range dupHeads {
		dupHeads[i], dupTails[i] = 3, 7
	}
	uniq := make([]int64, n)
	for i, p := range rng.Perm(n) {
		uniq[i] = int64(p)
	}
	return []*bat.BAT{attr, withDV, refs, fattr, bat.AttachDatavector(fattr),
		nanAttr, bat.SortOnTail(nanAttr), bat.AttachDatavector(nanAttr),
		bat.New("strs", bat.NewVoid(0, n), bat.NewStrColFromStrings(strs), 0),
		bat.New("bits", bat.NewVoid(0, n), bat.NewBitCol(bits), 0),
		bat.New("empty", bat.NewVoid(0, 0), bat.NewIntCol(nil), 0),
		bat.New("emptyoid", bat.NewOIDCol(nil), bat.NewOIDCol(nil), 0),
		bat.New("dups", bat.NewOIDCol(dupHeads), bat.NewIntCol(dupTails), 0),
		bat.New("uniq", bat.NewIntCol(uniq), bat.NewFltCol(flt), 0),
		bat.SortOnTail(refs).Mirror(),
	}
}

// tailValue picks a value from b's tail, or an int when b is empty.
func tailValue(rng *rand.Rand, b *bat.BAT) bat.Value {
	if b.Len() == 0 {
		return bat.I(int64(rng.Intn(16)))
	}
	return b.T.Get(rng.Intn(b.Len()))
}

// applyRandomOp applies one random operator — through its dispatcher, or
// one join variant forced where its precondition holds — to pool members.
func applyRandomOp(t *testing.T, rng *rand.Rand, ctx *Ctx, pool []*bat.BAT) (op string, out *bat.BAT) {
	t.Helper()
	defer func() {
		// some combinations are type-invalid (e.g. arithmetic on oids);
		// panics from those are fine for this soundness test
		if r := recover(); r != nil {
			out = nil
		}
	}()
	pick := func() *bat.BAT { return pool[rng.Intn(len(pool))] }
	l, r := pick(), pick()
	ops := []struct {
		name string
		run  func() *bat.BAT
	}{
		{"semijoin", func() *bat.BAT { return Semijoin(ctx, l, r) }},
		{"join", func() *bat.BAT { return Join(ctx, l, r) }},
		{"select", func() *bat.BAT { return SelectEq(ctx, l, tailValue(rng, l)) }},
		{"selectrange", func() *bat.BAT {
			lo, hi := tailValue(rng, l), tailValue(rng, l)
			if bat.Less(hi, lo) {
				lo, hi = hi, lo
			}
			return SelectRange(ctx, l, &lo, &hi, rng.Intn(2) == 0, rng.Intn(2) == 0)
		}},
		{"selectbit", func() *bat.BAT { return SelectBit(ctx, l) }},
		{"unique", func() *bat.BAT { return Unique(ctx, l) }},
		{"group", func() *bat.BAT { return GroupUnary(ctx, l) }},
		{"group2", func() *bat.BAT { return GroupBinary(ctx, GroupUnary(ctx, l), r) }},
		{"sort", func() *bat.BAT { return SortTail(ctx, l, rng.Intn(2) == 0) }},
		{"slice", func() *bat.BAT { return Slice(ctx, l, rng.Intn(30)) }},
		{"mirror", func() *bat.BAT { return l.Mirror() }},
		{"aggr", func() *bat.BAT { return Aggr(ctx, aggrFns[rng.Intn(len(aggrFns))], l) }},
		{"aggrscalar", func() *bat.BAT { return AggrScalar(ctx, aggrFns[rng.Intn(len(aggrFns))], l) }},
		{"multiplex", func() *bat.BAT {
			fns := []string{"+", "-", "*"}
			return Multiplex(ctx, fns[rng.Intn(len(fns))],
				[]Operand{BATArg(l), ConstArg(bat.I(int64(rng.Intn(5))))})
		}},
		{"multiplex2", func() *bat.BAT { return Multiplex(ctx, "+", []Operand{BATArg(l), BATArg(r)}) }},
		{"union", func() *bat.BAT { return Union(ctx, l, r) }},
		{"diff", func() *bat.BAT { return Diff(ctx, l, r) }},
		{"intersect", func() *bat.BAT { return Intersect(ctx, l, r) }},
		{"mark", func() *bat.BAT { return Mark(ctx, l) }},
		{"joinmulti", func() *bat.BAT {
			scope := NewScope(Env{"l": l, "r": r}, 1)
			out, err := execJoinMulti(ctx, Stmt{Op: OpJoinMulti, LKeys: []string{"l"}, RKeys: []string{"r"}}, scope)
			if err != nil {
				return nil
			}
			return out
		}},
		{"fetch-join", func() *bat.BAT {
			if !r.DetectHeadProps().Has(bat.HDense) {
				return nil
			}
			return fetchJoin(ctx, l, r)
		}},
		{"merge-join", func() *bat.BAT {
			if !l.DetectTailProps().Has(bat.TOrdered) || !r.DetectHeadProps().Has(bat.HOrdered) {
				return nil
			}
			out, _ := mergeJoin(ctx, l, r) // nil: no typed merge for these kinds
			return out
		}},
		{"hash-join", func() *bat.BAT { return hashJoin(ctx, l, r) }},
		{"append-attr", func() *bat.BAT {
			// AppendAttr's Merged row, onto a random datavector-carrying
			// pool member: values drawn from its own vector (so of its kind,
			// NaN included where it holds one), and a NaN appended to half
			// the float fragments. Results join the pool, so later draws
			// chain appends onto growing vectors.
			var attrs []*bat.BAT
			for _, b := range pool {
				if dv := b.Datavector(); dv != nil && dv.Len() > 0 {
					attrs = append(attrs, b)
				}
			}
			a := attrs[rng.Intn(len(attrs))]
			dv := a.Datavector()
			pos := make([]int32, rng.Intn(6))
			for i := range pos {
				pos[i] = int32(rng.Intn(dv.Len()))
			}
			frag := bat.Gather(dv.Vector, pos)
			if frag.Kind() == bat.KFlt && rng.Intn(2) == 0 {
				frag = bat.Concat(frag, bat.NewFltCol([]float64{math.NaN()}))
			}
			return bat.AppendAttr(a, frag)
		}},
		{"sync-join", func() *bat.BAT {
			// join(l.mirror, l) matches l's head against itself, position
			// by position.
			out, _ := syncJoin(ctx, l.Mirror(), l)
			return out
		}},
	}
	k := rng.Intn(len(ops))
	return ops[k].name, ops[k].run()
}

var aggrFns = []string{"sum", "count", "min", "max", "avg"}

// checkClaims fails the test when b's declared properties do not hold.
func checkClaims(t *testing.T, label string, b *bat.BAT) {
	t.Helper()
	if err := b.CheckProps(); err != nil {
		t.Fatalf("%s: property violation: %v\nbat: %s", label, err, b)
	}
}

// checkKnownProps holds b's effective properties — declared plus detected —
// to the same standard as its declared ones.
func checkKnownProps(t *testing.T, label string, b *bat.BAT) {
	t.Helper()
	if err := bat.New(b.Name, b.H, b.T, b.KnownProps()).CheckProps(); err != nil {
		t.Fatalf("%s: detected property violation: %v\nbat: %s", label, err, b)
	}
}

// checkSyncClaims verifies every pool member b claims to be synced with
// corresponds with it position by position.
func checkSyncClaims(t *testing.T, label string, b *bat.BAT, pool []*bat.BAT) {
	t.Helper()
	for _, p := range pool {
		if p == b || !bat.Synced(b, p) {
			continue
		}
		for i := 0; i < b.Len(); i++ {
			if !bat.Equal(normOID(b.HeadValue(i)), normOID(p.HeadValue(i))) {
				t.Fatalf("%s: synced BATs disagree at position %d: %s vs %s\n%s\n%s",
					label, i, b.HeadValue(i), p.HeadValue(i), b, p)
			}
		}
	}
}

func normOID(v bat.Value) bat.Value {
	if v.K == bat.KVoid {
		return bat.O(bat.OID(v.I))
	}
	return v
}

// TestPropertySoundnessChains runs random two- and three-statement chains
// through Exec, each over a fresh copy of the pool (nothing detected yet):
// each result's claims, including its sync claims, must hold, and running
// the chain must leave the pool's known properties true.
func TestPropertySoundnessChains(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 300; trial++ {
		pool := seedPool(rand.New(rand.NewSource(rng.Int63())))
		env := Env{}
		for i, b := range pool {
			env[fmt.Sprintf("p%d", i)] = b
		}
		prog := randomChain(rng, pool)
		got, _, err := Exec(NewCtx(nil, Options{Workers: 1}), prog, env)
		if err != nil {
			continue // type-invalid chain
		}
		gb, _ := got.Lookup("RES")
		label := fmt.Sprintf("trial %d: %s", trial, prog)
		checkClaims(t, label, gb)
		checkSyncClaims(t, label, gb, pool)
		for _, p := range pool {
			checkKnownProps(t, label, p)
		}
	}
}

// randomChain builds a chain over pool BATs p<i>: a select, filter or join
// head, then one or two statements consuming the previous result (selects,
// filters, a join, a grouped or scalar aggregate), the last bound to RES.
func randomChain(rng *rand.Rand, pool []*bat.BAT) *Program {
	name := func() (string, *bat.BAT) {
		i := rng.Intn(len(pool))
		return fmt.Sprintf("p%d", i), pool[i]
	}
	src, base := name()
	tails := base // the BAT whose tail the stream carries
	var stmts []Stmt
	step := func(in string, head bool) {
		dst := fmt.Sprintf("s%d", len(stmts))
		other, ob := name()
		s := Stmt{Dst: dst, Args: []StmtArg{VarArg(in)}}
		switch k := rng.Intn(8); {
		case k == 0:
			s.Op = OpSelect
			s.Args = append(s.Args, LitArg(tailValue(rng, tails)))
		case k == 1:
			lo, hi := tailValue(rng, tails), tailValue(rng, tails)
			if bat.Less(hi, lo) {
				lo, hi = hi, lo
			}
			s.Op, s.LoIncl, s.HiIncl = OpSelectRange, true, rng.Intn(2) == 0
			s.Args = append(s.Args, LitArg(lo), LitArg(hi))
		case k == 2 && !head:
			s.Op, s.Fn = OpAggr, aggrFns[rng.Intn(len(aggrFns))]
		case k == 3 && !head:
			s.Op, s.Fn = OpAggrScalar, aggrFns[rng.Intn(len(aggrFns))]
		case k == 4:
			s.Op = OpJoin
			s.Args = append(s.Args, VarArg(other))
			tails = ob
		default:
			s.Op = []string{OpSemijoin, OpDiff, OpIntersect}[rng.Intn(3)]
			s.Args = append(s.Args, VarArg(other))
		}
		stmts = append(stmts, s)
	}
	step(src, true)
	for n := 1 + rng.Intn(2); n > 0; n-- {
		step(stmts[len(stmts)-1].Dst, false)
	}
	stmts[len(stmts)-1].Dst = "RES"
	return &Program{Stmts: stmts, Keep: []string{"RES"}}
}

// TestSortNaNTail: sorting a float tail that holds NaN orders the other
// values and claims no tail order, so a point select on the result takes
// the scan and returns exactly what it returns over the unsorted input.
func TestSortNaNTail(t *testing.T) {
	in := bat.New("f", bat.NewVoid(0, 3), bat.NewFltCol([]float64{3, math.NaN(), 1}), 0)
	for name, sorted := range map[string]*bat.BAT{
		"sort":       SortTail(&Ctx{}, in, false),
		"datavector": bat.AttachDatavector(in),
	} {
		if sorted.Props.Has(bat.TOrdered) {
			t.Errorf("%s: claims t-ordered over a NaN tail: %s", name, sorted)
		}
		checkClaims(t, name, sorted)
		if v := sorted.T.(*bat.FltCol).V; !math.IsNaN(v[0]) || v[1] != 1 || v[2] != 3 {
			t.Errorf("%s: tail %v, want [NaN 1 3]", name, v)
		}
		got, want := SelectEq(&Ctx{}, sorted, bat.F(1)), SelectEq(&Ctx{}, in, bat.F(1))
		if got.Len() != want.Len() {
			t.Errorf("%s: select(1.0) kept %d rows, the unsorted input's select %d", name, got.Len(), want.Len())
		}
	}
}
