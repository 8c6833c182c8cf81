package mil

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bat"
)

func TestOptimizeSharesRepeatsAndDropsDeadBindings(t *testing.T) {
	p, err := ParseProgram(`a := semijoin(Item_price, sel)
b := semijoin(Item_price, sel)
c := [*](a, 2)
d := [*](b, 2)
e := {sum}all(c)
f := {sum}all(d)`)
	if err != nil {
		t.Fatal(err)
	}
	p.Keep = []string{"e", "f", "b"}
	before := p.String()
	out, alias := Optimize(p)
	if p.String() != before || len(p.Keep) != 3 {
		t.Fatalf("Optimize modified its input:\n%s", p)
	}
	want := "a := semijoin(Item_price, sel)\nc := [*](a, 2)\ne := {sum}all(c)\n"
	if got := out.String(); got != want {
		t.Fatalf("optimized program:\n%swant:\n%s", got, want)
	}
	if !reflect.DeepEqual(out.Keep, []string{"e", "a"}) {
		t.Fatalf("Keep = %v, want [e a]", out.Keep)
	}
	if !reflect.DeepEqual(alias, map[string]string{"b": "a", "d": "c", "f": "e"}) {
		t.Fatalf("alias = %v", alias)
	}

	// A result nothing live reads is dropped; so is everything only it read.
	p = &Program{Stmts: out.Stmts, Keep: []string{"a"}}
	if out, _ := Optimize(p); len(out.Stmts) != 1 || out.Stmts[0].Dst != "a" {
		t.Fatalf("dead bindings kept:\n%s", out)
	}
}

// TestOptimizeLeavesReassignmentAlone: a script that rebinds a name (or
// defines a base BAT's name after reading it) denotes different values by
// one name, so Optimize must not merge on names.
func TestOptimizeLeavesReassignmentAlone(t *testing.T) {
	for name, src := range map[string]string{
		"rebind": "x := select(A, 1)\ny := semijoin(B, x)\nx := select(A, 2)\nz := semijoin(B, x)",
		"shadow": "y := semijoin(B, s)\nB := select(A, 1)\nz := semijoin(B, s)",
	} {
		p, err := ParseProgram(src)
		if err != nil {
			t.Fatal(err)
		}
		if out, alias := Optimize(p); out.String() != p.String() || len(alias) != 0 {
			t.Fatalf("%s: rewritten to\n%s", name, out)
		}
	}
}

// TestOptimizeKeysEveryStmtField builds, for every leaf of every Stmt field
// (StmtArg and literal fields included), a twin differing from a base
// statement in that leaf alone, and requires Optimize to keep both. A field
// added to Stmt without being added to the key fails here.
func TestOptimizeKeysEveryStmtField(t *testing.T) {
	lit := bat.I(1)
	base := Stmt{Dst: "a", Op: OpSelectRange, Fn: "f",
		Args:   []StmtArg{VarArg("x"), {Lit: &lit}, ScalarArg("s")},
		LKeys:  []string{"k"},
		RKeys:  []string{"k"},
		N:      1,
		LoIncl: true,
	}
	merged := func(twin Stmt) bool {
		twin.Dst = "b"
		out, alias := Optimize(&Program{Stmts: []Stmt{base, twin}, Keep: []string{"a", "b"}})
		return len(out.Stmts) != 2 || len(alias) != 0
	}
	if !merged(base) {
		t.Fatal("identical statements were not merged")
	}
	rv := reflect.ValueOf(base)
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Type().Field(i)
		if f.Name == "Dst" {
			continue
		}
		for _, v := range variants(t, f.Name, rv.Field(i)) {
			twin := base
			reflect.ValueOf(&twin).Elem().Field(i).Set(v)
			if merged(twin) {
				t.Errorf("statements differing only in %s were merged:\n  %s\n  %s", f.Name, base, twin)
			}
		}
	}
}

// variants returns values of v's type that each differ from v in exactly
// one leaf, never sharing v's slices or pointers.
func variants(t *testing.T, path string, v reflect.Value) []reflect.Value {
	t.Helper()
	var out []reflect.Value
	switch v.Kind() {
	case reflect.Bool:
		out = append(out, reflect.ValueOf(!v.Bool()).Convert(v.Type()))
	case reflect.Int, reflect.Int64:
		out = append(out, reflect.ValueOf(v.Int()+1).Convert(v.Type()))
	case reflect.Uint8:
		out = append(out, reflect.ValueOf(uint8(v.Uint()+1)).Convert(v.Type()))
	case reflect.Float64:
		out = append(out, reflect.ValueOf(math.Nextafter(v.Float(), 2)).Convert(v.Type()))
	case reflect.String:
		out = append(out, reflect.ValueOf(v.String()+"'").Convert(v.Type()))
	case reflect.Pointer:
		if v.IsNil() {
			return []reflect.Value{reflect.New(v.Type().Elem())}
		}
		out = append(out, reflect.Zero(v.Type()))
		for _, e := range variants(t, path+".*", v.Elem()) {
			p := reflect.New(v.Type().Elem())
			p.Elem().Set(e)
			out = append(out, p)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			for _, e := range variants(t, path+"."+v.Type().Field(i).Name, v.Field(i)) {
				s := reflect.New(v.Type()).Elem()
				s.Set(v)
				s.Field(i).Set(e)
				out = append(out, s)
			}
		}
	case reflect.Slice:
		clone := func(extra int) reflect.Value {
			s := reflect.MakeSlice(v.Type(), v.Len(), v.Len()+extra)
			reflect.Copy(s, v)
			return s
		}
		out = append(out, reflect.Append(clone(1), reflect.Zero(v.Type().Elem())))
		for j := 0; j < v.Len(); j++ {
			for _, e := range variants(t, path, v.Index(j)) {
				s := clone(0)
				s.Index(j).Set(e)
				out = append(out, s)
			}
		}
	default:
		t.Fatalf("%s: no variants for kind %s; teach this test (and keyOf) the new field", path, v.Kind())
	}
	return out
}

// TestOptimizeLiteralKeys: literals merge on exact kind and bits only, and
// a literal never merges with a variable of the same spelling.
func TestOptimizeLiteralKeys(t *testing.T) {
	nan := func(payload uint64) bat.Value { return bat.F(math.Float64frombits(0x7ff8000000000000 | payload)) }
	distinct := map[string][2]StmtArg{
		"0.0/-0.0":         {LitArg(bat.F(0)), LitArg(bat.F(math.Copysign(0, -1)))},
		"NaN payloads":     {LitArg(nan(1)), LitArg(nan(2))},
		"int 1/flt 1.0":    {LitArg(bat.I(1)), LitArg(bat.F(1))},
		"lit/scalar var":   {LitArg(bat.S("v")), ScalarArg("v")},
		"var/scalar var":   {VarArg("v"), ScalarArg("v")},
		"oid 1/int 1":      {LitArg(bat.O(1)), LitArg(bat.I(1))},
		"str/chr":          {LitArg(bat.S("a")), LitArg(bat.C('a'))},
		"lit/absent bound": {LitArg(bat.I(0)), None()},
	}
	for name, pair := range distinct {
		p := &Program{Keep: []string{"a", "b"}, Stmts: []Stmt{
			{Dst: "a", Op: OpSelectRange, Args: []StmtArg{VarArg("x"), pair[0], None()}},
			{Dst: "b", Op: OpSelectRange, Args: []StmtArg{VarArg("x"), pair[1], None()}},
		}}
		if out, _ := Optimize(p); len(out.Stmts) != 2 {
			t.Errorf("%s: merged", name)
		}
	}
	// Equal literals behind distinct pointers do merge, NaN included.
	p := &Program{Keep: []string{"a", "b"}, Stmts: []Stmt{
		{Dst: "a", Op: OpSelect, Args: []StmtArg{VarArg("x"), LitArg(nan(3))}},
		{Dst: "b", Op: OpSelect, Args: []StmtArg{VarArg("x"), LitArg(nan(3))}},
	}}
	if out, alias := Optimize(p); len(out.Stmts) != 1 || alias["b"] != "a" {
		t.Errorf("equal literals not merged: %v", alias)
	}
}

// TestSameOperandKernels: CSE turns op(x, y) with y ≡ x into op(x, x), one
// *bat.BAT in both operand slots. Every binary operator must then answer
// exactly as it does over an unshared twin of x, sequentially and in
// parallel, and claim only true properties.
func TestSameOperandKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const n = bat.ParallelMinRows
	if m := len(probeRanges(n, 4)); m < 4*morselsPerWorker {
		t.Fatalf("%d rows cut %d morsels on 4 workers, want >= %d", n, m, 4*morselsPerWorker)
	}
	heads := make([]bat.OID, n)
	tails := make([]bat.OID, n)
	for i := range heads {
		heads[i] = bat.OID(i * 2)
		tails[i] = bat.OID(rng.Intn(2 * n))
	}
	rng.Shuffle(n, func(i, j int) { heads[i], heads[j] = heads[j], heads[i] })
	mk := func() *bat.BAT { // fresh columns each call: a twin shares nothing
		return bat.New("x", bat.NewOIDCol(append([]bat.OID(nil), heads...)),
			bat.NewOIDCol(append([]bat.OID(nil), tails...)), bat.HKey)
	}
	programs := map[string]string{
		"semijoin":        "R := semijoin(x, X)",
		"semijoin-chain":  "s := semijoin(x, X)\nR := {count}all(s)",
		"join":            "R := join(x, X)",
		"join-chain":      "j := join(x, X)\nR := {count}(j)",
		"union":           "R := union(x, X)",
		"diff":            "R := diff(x, X)",
		"diff-chain":      "d := diff(x, X)\nR := {count}all(d)",
		"intersect":       "R := intersect(x, X)",
		"intersect-chain": "s := intersect(x, X)\nR := {count}all(s)",
		"group2":          "g := group(x)\nh := group(X)\nR := group(g, h)\nG2 := group(x, X)",
		"multiplex":       "R := [=](x, X)",
	}
	run := func(label, src string, env Env, o Options) *Scope {
		t.Helper()
		p, err := ParseProgram(src)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		p, _ = Optimize(p) // shares group(x) between both group2 operands
		scope, _, err := Exec(NewCtx(nil, o), p, env)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return scope
	}
	for _, workers := range []int{1, 4} {
		o := Options{Workers: workers}
		for name, tmpl := range programs {
			label := fmt.Sprintf("%s/w%d", name, workers)
			x := mk()
			got := run(label+"/shared", strings.ReplaceAll(tmpl, "X", "x"), Env{"x": x}, o)
			want := run(label+"/twin", strings.ReplaceAll(tmpl, "X", "y"), Env{"x": mk(), "y": mk()}, o)
			for _, v := range []string{"R", "G2"} {
				g, ok := got.Lookup(v)
				if !ok && v == "R" {
					t.Fatalf("%s: no result", label)
				}
				if !ok {
					continue
				}
				w, _ := want.Lookup(v)
				assertSameBAT(t, label+"/"+v, g, w)
				checkClaims(t, label+"/"+v, g)
			}
			if x.Len() != n || !reflect.DeepEqual(x.H.(*bat.OIDCol).V, heads) {
				t.Fatalf("%s: operand modified", label)
			}
		}
	}
}
