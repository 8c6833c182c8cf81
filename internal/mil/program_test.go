package mil

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/storage"
)

// buildQ13Env builds a miniature version of the paper's Q13 base data:
// Order_clerk, Item_order, Item_returnflag, Order_orderdate,
// Item_extendedprice, Item_discount.
func buildQ13Env() Env {
	// 4 orders (oids 0..3), clerks; order 1 and 3 by the target clerk
	orderClerk := bat.AttachDatavector(bat.New("Order_clerk", bat.NewVoid(0, 4),
		bat.NewStrColFromStrings([]string{"Clerk#1", "Clerk#88", "Clerk#2", "Clerk#88"}), 0))
	orderDate := bat.AttachDatavector(bat.New("Order_orderdate", bat.NewVoid(0, 4),
		bat.NewDateCol([]int32{
			int32(bat.MustDate("1994-02-01").I),
			int32(bat.MustDate("1994-06-15").I),
			int32(bat.MustDate("1995-01-20").I),
			int32(bat.MustDate("1995-03-05").I),
		}), 0))
	// 6 items (oids 0..5) -> orders 0,1,1,2,3,3
	itemOrder := bat.AttachDatavector(bat.New("Item_order", bat.NewVoid(0, 6),
		bat.NewOIDCol([]bat.OID{0, 1, 1, 2, 3, 3}), 0))
	itemFlag := bat.AttachDatavector(bat.New("Item_returnflag", bat.NewVoid(0, 6),
		bat.NewChrCol([]byte{'N', 'R', 'N', 'R', 'R', 'R'}), 0))
	itemPrice := bat.AttachDatavector(bat.New("Item_extendedprice", bat.NewVoid(0, 6),
		bat.NewFltCol([]float64{100, 200, 300, 400, 500, 600}), 0))
	itemDisc := bat.AttachDatavector(bat.New("Item_discount", bat.NewVoid(0, 6),
		bat.NewFltCol([]float64{0, 0.1, 0, 0, 0.5, 0.2}), 0))
	return Env{
		"Order_clerk":        orderClerk,
		"Order_orderdate":    orderDate,
		"Item_order":         itemOrder,
		"Item_returnflag":    itemFlag,
		"Item_extendedprice": itemPrice,
		"Item_discount":      itemDisc,
	}
}

// q13Program transcribes the MIL listing of Fig. 10.
func q13Program() *Program {
	return &Program{
		Stmts: []Stmt{
			{Dst: "orders", Op: OpSelect, Args: []StmtArg{VarArg("Order_clerk"), LitArg(bat.S("Clerk#88"))}},
			{Dst: "items", Op: OpJoin, Args: []StmtArg{VarArg("Item_order"), VarArg("orders")}},
			{Dst: "returns", Op: OpSemijoin, Args: []StmtArg{VarArg("Item_returnflag"), VarArg("items")}},
			{Dst: "ritems", Op: OpSelect, Args: []StmtArg{VarArg("returns"), LitArg(bat.C('R'))}},
			{Dst: "critems", Op: OpSemijoin, Args: []StmtArg{VarArg("Item_order"), VarArg("ritems")}},
			{Dst: "dates", Op: OpJoin, Args: []StmtArg{VarArg("critems"), VarArg("Order_orderdate")}},
			{Dst: "years", Op: OpMultiplex, Fn: "year", Args: []StmtArg{VarArg("dates")}},
			{Dst: "class", Op: OpGroup, Args: []StmtArg{VarArg("years")}},
			{Dst: "classm", Op: OpMirror, Args: []StmtArg{VarArg("class")}},
			{Dst: "YEAR0", Op: OpJoin, Args: []StmtArg{VarArg("classm"), VarArg("years")}},
			{Dst: "YEAR", Op: OpUnique, Args: []StmtArg{VarArg("YEAR0")}},
			{Dst: "prices", Op: OpSemijoin, Args: []StmtArg{VarArg("Item_extendedprice"), VarArg("ritems")}},
			{Dst: "discount", Op: OpSemijoin, Args: []StmtArg{VarArg("Item_discount"), VarArg("ritems")}},
			{Dst: "factor", Op: OpMultiplex, Fn: "-", Args: []StmtArg{LitArg(bat.F(1.0)), VarArg("discount")}},
			{Dst: "rlprices", Op: OpMultiplex, Fn: "*", Args: []StmtArg{VarArg("prices"), VarArg("factor")}},
			{Dst: "losses", Op: OpJoin, Args: []StmtArg{VarArg("classm"), VarArg("rlprices")}},
			{Dst: "LOSS", Op: OpAggr, Fn: "sum", Args: []StmtArg{VarArg("losses")}},
		},
		Keep: []string{"YEAR", "LOSS"},
	}
}

func TestQ13ProgramEndToEnd(t *testing.T) {
	env := buildQ13Env()
	ctx := NewCtx(nil, Options{Pager: storage.NewPager(4096, 0)})
	scope, traces, err := Exec(ctx, q13Program(), env)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 17 {
		t.Fatalf("traces = %d", len(traces))
	}
	year := scope.Vars["YEAR"]
	loss := scope.Vars["LOSS"]
	if year == nil || loss == nil {
		t.Fatal("kept results missing from scope")
	}
	// Expected: clerk#88 has orders 1 (1994) and 3 (1995); returned items:
	// item1 (order1, 200*0.9=180), item4 (order3, 500*0.5=250),
	// item5 (order3, 600*0.8=480). So 1994 -> 180, 1995 -> 730.
	got := map[int64]float64{}
	for i := 0; i < loss.Len(); i++ {
		grp := loss.HeadValue(i)
		// find year of this group
		for j := 0; j < year.Len(); j++ {
			if bat.Equal(year.HeadValue(j), grp) {
				got[year.TailValue(j).I] = loss.TailValue(i).F
			}
		}
	}
	if len(got) != 2 {
		t.Fatalf("got %v", got)
	}
	if !almost(got[1994], 180) || !almost(got[1995], 730) {
		t.Fatalf("losses = %v, want 1994:180 1995:730", got)
	}
	// Intermediates were released; kept + accounting consistent.
	if ctx.IntermBytes <= 0 || ctx.PeakBytes <= 0 {
		t.Fatal("memory accounting missing")
	}
	if ctx.LiveBytes > ctx.PeakBytes {
		t.Fatal("live > peak")
	}
}

func almost(a, b float64) bool { return a > b-1e-6 && a < b+1e-6 }

func TestRunLivenessReleasesIntermediates(t *testing.T) {
	env := buildQ13Env()
	ctx := &Ctx{}
	scope, _, err := Exec(ctx, q13Program(), env)
	if err != nil {
		t.Fatal(err)
	}
	// Only kept vars may remain bound.
	for name := range scope.Vars {
		if name != "YEAR" && name != "LOSS" {
			t.Errorf("intermediate %q not released", name)
		}
	}
}

// TestRunDatavectorReuseVisibleInTrace: a semijoin whose left operand
// carries a datavector takes the datavector variant, and two that fully
// match one right operand come out synced, so the multiplex over their
// results reuses the pairing by position (Fig. 10's prices and discount).
func TestRunDatavectorReuseVisibleInTrace(t *testing.T) {
	env := buildQ13Env()
	ctx := NewCtx(nil, Options{Pager: storage.NewPager(64, 0)}) // tiny pages to force faults
	_, traces, err := Exec(ctx, q13Program(), env)
	if err != nil {
		t.Fatal(err)
	}
	byDst := map[string]StmtTrace{}
	for _, tr := range traces {
		dst := strings.SplitN(tr.Text, " ", 2)[0]
		byDst[dst] = tr
	}
	if byDst["returns"].Algo != "datavector-semijoin" {
		t.Fatalf("returns algo = %s", byDst["returns"].Algo)
	}
	if byDst["prices"].Algo != "datavector-semijoin" {
		t.Fatalf("prices algo = %s", byDst["prices"].Algo)
	}
	if byDst["rlprices"].Algo != "aligned-multiplex" {
		t.Fatalf("rlprices algo = %s, want aligned-multiplex over synced semijoins", byDst["rlprices"].Algo)
	}
}

func TestRunErrorOnUndefinedVariable(t *testing.T) {
	prog := &Program{Stmts: []Stmt{
		{Dst: "x", Op: OpUnique, Args: []StmtArg{VarArg("missing")}},
	}}
	if _, _, err := Exec(nil, prog, Env{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestRunErrorOnUnknownOp(t *testing.T) {
	env := Env{"a": bat.New("a", bat.NewVoid(0, 1), bat.NewIntCol([]int64{1}), 0)}
	prog := &Program{Stmts: []Stmt{
		{Dst: "x", Op: "frobnicate", Args: []StmtArg{VarArg("a")}},
	}}
	if _, _, err := Exec(nil, prog, env); err == nil {
		t.Fatal("expected error")
	}
}

func TestScalarVarBroadcast(t *testing.T) {
	env := Env{
		"revs": bat.New("revs", bat.NewOIDCol([]bat.OID{1, 2, 3}),
			bat.NewFltCol([]float64{10, 20, 30}), 0),
	}
	prog := &Program{
		Stmts: []Stmt{
			{Dst: "total", Op: OpAggrScalar, Fn: "sum", Args: []StmtArg{VarArg("revs")}},
			{Dst: "share", Op: OpMultiplex, Fn: "/", Args: []StmtArg{VarArg("revs"), ScalarArg("total")}},
		},
		Keep: []string{"share"},
	}
	scope, _, err := Exec(nil, prog, env)
	if err != nil {
		t.Fatal(err)
	}
	share := scope.Vars["share"]
	want := []float64{10.0 / 60, 20.0 / 60, 30.0 / 60}
	for i, w := range want {
		if got := share.TailValue(i).F; !almost(got, w) {
			t.Fatalf("share[%d] = %v, want %v", i, got, w)
		}
	}
}

func TestStmtRendering(t *testing.T) {
	cases := []struct {
		s    Stmt
		want string
	}{
		{Stmt{Dst: "o", Op: OpSelect, Args: []StmtArg{VarArg("Order_clerk"), LitArg(bat.S("x"))}},
			`o := select(Order_clerk, "x")`},
		{Stmt{Dst: "i", Op: OpJoin, Args: []StmtArg{VarArg("a"), VarArg("b")}},
			`i := join(a, b)`},
		{Stmt{Dst: "m", Op: OpMirror, Args: []StmtArg{VarArg("c")}},
			`m := c.mirror`},
		{Stmt{Dst: "u", Op: OpUnique, Args: []StmtArg{VarArg("c")}},
			`u := c.unique`},
		{Stmt{Dst: "f", Op: OpMultiplex, Fn: "-", Args: []StmtArg{LitArg(bat.F(1)), VarArg("d")}},
			`f := [-](1, d)`},
		{Stmt{Dst: "s", Op: OpAggr, Fn: "sum", Args: []StmtArg{VarArg("l")}},
			`s := {sum}(l)`},
		{Stmt{Dst: "g", Op: OpGroup, Args: []StmtArg{VarArg("y")}},
			`g := group(y)`},
		{Stmt{Dst: "r", Op: OpSelectRange, Args: []StmtArg{VarArg("d"), LitArg(bat.I(1)), None()}},
			`r := select(d, 1)`},
		{Stmt{Dst: "t", Op: OpSort, Desc: true, Args: []StmtArg{VarArg("x")}},
			`t := sort(x, desc)`},
		{Stmt{Dst: "t", Op: OpSlice, N: 10, Args: []StmtArg{VarArg("x")}},
			`t := slice(x, 10)`},
	}
	for _, c := range cases {
		if got := c.s.String(); got != c.want {
			t.Errorf("render = %q, want %q", got, c.want)
		}
	}
}

func TestBuilderFreshNames(t *testing.T) {
	b := NewBuilder()
	v1 := b.Emit("sel", Stmt{Op: OpUnique, Args: []StmtArg{VarArg("x")}})
	v2 := b.Emit("sel", Stmt{Op: OpUnique, Args: []StmtArg{VarArg(v1)}})
	if v1 == v2 {
		t.Fatal("names must be fresh")
	}
	b.KeepVar(v2)
	p := b.Program()
	if len(p.Stmts) != 2 || p.Keep[0] != v2 {
		t.Fatal("builder program wrong")
	}
	if !strings.Contains(p.String(), v1) {
		t.Fatal("printer missing var")
	}
}

func TestCallFuncPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CallFunc("no-such-fn", nil)
}

func TestFuncRegistry(t *testing.T) {
	if got := CallFunc("+", []bat.Value{bat.I(2), bat.I(3)}); got.I != 5 {
		t.Fatalf("2+3 = %v", got)
	}
	if got := CallFunc("+", []bat.Value{bat.I(2), bat.F(0.5)}); got.F != 2.5 {
		t.Fatalf("2+0.5 = %v", got)
	}
	if got := CallFunc("/", []bat.Value{bat.F(1), bat.F(0)}); got.F != 0 {
		t.Fatalf("div by zero = %v", got)
	}
	if got := CallFunc("year", []bat.Value{bat.MustDate("1997-05-09")}); got.I != 1997 {
		t.Fatalf("year = %v", got)
	}
	if got := CallFunc("month", []bat.Value{bat.MustDate("1997-05-09")}); got.I != 5 {
		t.Fatalf("month = %v", got)
	}
	if got := CallFunc("adddays", []bat.Value{bat.MustDate("1998-12-01"), bat.I(-90)}); got.String() != "1998-09-02" {
		t.Fatalf("adddays = %v", got)
	}
	if got := CallFunc("addmonths", []bat.Value{bat.MustDate("1995-01-31"), bat.I(1)}); got.K != bat.KDate {
		t.Fatalf("addmonths kind = %v", got.K)
	}
	if got := CallFunc("if", []bat.Value{bat.B(true), bat.I(1), bat.I(2)}); got.I != 1 {
		t.Fatalf("if = %v", got)
	}
	if got := CallFunc("strcontains", []bat.Value{bat.S("economy brushed"), bat.S("brush")}); !got.Bool() {
		t.Fatalf("strcontains = %v", got)
	}
	if got := CallFunc("not", []bat.Value{bat.B(false)}); !got.Bool() {
		t.Fatalf("not = %v", got)
	}
	if got := CallFunc("and", []bat.Value{bat.B(true), bat.B(true), bat.B(false)}); got.Bool() {
		t.Fatalf("and = %v", got)
	}
	if got := CallFunc("or", []bat.Value{bat.B(false), bat.B(true)}); !got.Bool() {
		t.Fatalf("or = %v", got)
	}
}

// TestSharedColumnsChargedOnce: a result holding an operand's very column
// object is charged nothing for it — a group for the head it keeps, a
// sync-join for both of its columns — so the intermediates count each
// column once, and the memory gauge drains to zero.
func TestSharedColumnsChargedOnce(t *testing.T) {
	const n = 5000
	rng := rand.New(rand.NewSource(11))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63n(100)
	}
	env := Env{"x": bat.New("x", bat.NewVoid(0, n), bat.NewIntCol(vals), 0)}
	src := "s := select(x, 10, 60)\nc := group(s)\ni := c.mirror\nRES := join(i, s)"
	prog, err := ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	gauge := &MemGauge{}
	ctx := NewCtx(nil, Options{Gauge: gauge})
	_, traces, err := Exec(ctx, prog, env)
	if err != nil {
		t.Fatal(err)
	}
	s, c, join := traces[0], traces[1], traces[3]
	if join.Algo != "sync-join" {
		t.Fatalf("join ran %q, want sync-join", join.Algo)
	}
	oids := int64(s.Rows) * 4 // the select's gathered head, the group ids
	if s.OutBytes != oids+int64(s.Rows)*8 || c.OutBytes != oids || join.OutBytes != 0 {
		t.Fatalf("charged select %d, group %d, sync-join %d bytes; want %d, %d, 0",
			s.OutBytes, c.OutBytes, join.OutBytes, oids+int64(s.Rows)*8, oids)
	}
	var sum int64
	for _, tr := range traces {
		sum += tr.OutBytes
	}
	if ctx.IntermBytes != sum {
		t.Fatalf("intermediates %d, statements charged %d", ctx.IntermBytes, sum)
	}
	ctx.DrainGauge()
	if live := gauge.Live(); live != 0 || ctx.LiveBytes != 0 {
		t.Fatalf("gauge %d, live %d after drain, want 0", live, ctx.LiveBytes)
	}
}
