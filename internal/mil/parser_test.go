package mil

import (
	"strings"
	"testing"

	"repro/internal/bat"
)

// fig10Script is the Q13 MIL listing of Fig. 10, in the textual notation
// (buffer-management statements omitted, as in the paper's own figure).
const fig10Script = `
# TPC-D Q13 as a hand-written MIL program (Fig. 10)
orders   := select(Order_clerk, "Clerk#88")
items    := join(Item_order, orders)
returns  := semijoin(Item_returnflag, items)
ritems   := select(returns, 'R')
critems  := semijoin(Item_order, ritems)
years    := [year](join(critems, Order_orderdate))
class    := group(years)
INDEX    := join(ritems.mirror, class).unique
YEAR     := join(class.mirror, years).unique
prices   := semijoin(Item_extendedprice, ritems)
discount := semijoin(Item_discount, ritems)
factor   := [-](1.0, discount)
rlprices := [*](prices, factor)
losses   := join(class.mirror, rlprices)
LOSS     := {sum}(losses)
`

func TestParseFig10ScriptRuns(t *testing.T) {
	prog, err := ParseProgram(fig10Script)
	if err != nil {
		t.Fatal(err)
	}
	scope, _, err := Exec(nil, prog, buildQ13Env())
	if err != nil {
		t.Fatalf("run: %v\n%s", err, prog)
	}
	// Same expected result as TestQ13ProgramEndToEnd: 1994->180, 1995->730.
	year, loss := scope.Vars["YEAR"], scope.Vars["LOSS"]
	if year == nil || loss == nil {
		t.Fatalf("results missing; keep = %v", prog.Keep)
	}
	got := map[int64]float64{}
	for i := 0; i < loss.Len(); i++ {
		grp := loss.HeadValue(i)
		for j := 0; j < year.Len(); j++ {
			if bat.Equal(year.HeadValue(j), grp) {
				got[year.TailValue(j).I] = loss.TailValue(i).F
			}
		}
	}
	if !almost(got[1994], 180) || !almost(got[1995], 730) {
		t.Fatalf("losses = %v", got)
	}
	// INDEX/YEAR/LOSS are results (never consumed) and must be kept.
	keep := strings.Join(prog.Keep, ",")
	for _, want := range []string{"INDEX", "YEAR", "LOSS"} {
		if !strings.Contains(keep, want) {
			t.Errorf("%s not kept (keep = %s)", want, keep)
		}
	}
}

func TestParseRoundTripThroughPrinter(t *testing.T) {
	prog, err := ParseProgram(fig10Script)
	if err != nil {
		t.Fatal(err)
	}
	// The printer's output must re-parse and produce the same result.
	printed := prog.String()
	prog2, err := ParseProgram(printed)
	if err != nil {
		t.Fatalf("reparse of printer output: %v\n%s", err, printed)
	}
	s1, _, err := Exec(nil, prog, buildQ13Env())
	if err != nil {
		t.Fatal(err)
	}
	s2, _, err := Exec(nil, prog2, buildQ13Env())
	if err != nil {
		t.Fatal(err)
	}
	l1, l2 := s1.Vars["LOSS"], s2.Vars["LOSS"]
	if l1.Len() != l2.Len() {
		t.Fatalf("results differ after round trip: %d vs %d", l1.Len(), l2.Len())
	}
}

func TestParseOperatorForms(t *testing.T) {
	srcs := []string{
		`x := select(a, 1, 10)`,
		`x := select(a)`,
		`x := sort(a, desc)`,
		`x := slice(sort(a), 5)`,
		`x := union(a, b)`,
		`x := diff(a, b)`,
		`x := intersect(a, b)`,
		`x := group(a, b)`,
		`x := mark(a)`,
		`x := mirror(a)`,
		`x := {count}all(a)`,
		`x := calc *(2, scalar(t))`,
		`x := [if](c, 1.5, -2)`,
		`x := select(a, date("1994-01-01"), date("1995-01-01"))`,
		`x := [snd](a, true)`,
	}
	for _, src := range srcs {
		if _, err := ParseProgram(src); err != nil {
			t.Errorf("%s: %v", src, err)
		}
	}
}

func TestParseErrorsMIL(t *testing.T) {
	srcs := []string{
		`x = select(a, 1)`,        // missing :=
		`:= select(a, 1)`,         // missing dst
		`x := frobnicate(a)`,      // unknown op
		`x := select(a, 1, 2, 3)`, // arity
		`x := join(a)`,            // arity
		`x := [year(a)`,           // unterminated bracket
		`x := {sum(a)`,            // unterminated brace
		`x := select(a, "uncl`,    // unterminated string
		`x := select(a, 'xy')`,    // bad char
		`x := slice(a, b)`,        // non-integer slice
		`x := select(a, 12..3)`,   // bad number
		`x := select((a, 1)`,      // unbalanced
		`9bad := select(a, 1)`,    // bad identifier
		`x := scalar(,)`,          // bad scalar
	}
	for _, src := range srcs {
		if _, err := ParseProgram(src); err == nil {
			t.Errorf("%q: expected error", src)
		}
	}
}

func TestParseNestedCallsFlatten(t *testing.T) {
	prog, err := ParseProgram(`x := {sum}(join(group(a).mirror, b))`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Stmts) != 4 { // group, mirror, join, {sum}
		t.Fatalf("stmts = %d\n%s", len(prog.Stmts), prog)
	}
	if prog.Stmts[3].Dst != "x" {
		t.Fatalf("final dst = %s", prog.Stmts[3].Dst)
	}
}

func TestParseCommentsAndBlankLines(t *testing.T) {
	prog, err := ParseProgram("\n# only a comment\n\n  x := mark(a)  # trailing\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Stmts) != 1 {
		t.Fatalf("stmts = %d", len(prog.Stmts))
	}
}
