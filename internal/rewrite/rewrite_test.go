package rewrite

import (
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/mil"
	"repro/internal/moa"
	"repro/internal/tpcd"
)

// run translates and executes a MOA query against a loaded database.
func run(t *testing.T, env mil.Env, src string) (*moa.SetVal, *Result) {
	t.Helper()
	e, err := moa.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ck, err := moa.Check(tpcd.Schema(), e)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	res, err := Translate(ck)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	ctx := &mil.Ctx{}
	scope, _, err := mil.Exec(ctx, res.Prog, env)
	if err != nil {
		t.Fatalf("run: %v\nprogram:\n%s", err, res.Prog)
	}
	out, err := moa.Materialize(scope, res.Struct)
	if err != nil {
		t.Fatalf("materialize: %v\nstruct: %s", err, res.Struct.Render())
	}
	return out, res
}

var testDB = tpcd.Generate(0.002, 42)

func testEnv(t *testing.T) mil.Env {
	env, _ := tpcd.Load(testDB)
	return env
}

func TestQ13PipelineEndToEnd(t *testing.T) {
	db := testDB
	env := testEnv(t)

	// find a clerk that actually has returned items
	clerk := ""
	for _, o := range db.Orders {
		for _, it := range o.Items {
			if db.Items[it].Returnflag == 'R' {
				clerk = o.Clerk
			}
		}
		if clerk != "" {
			break
		}
	}
	if clerk == "" {
		t.Skip("no returned items in generated data")
	}

	src := `
project[<date : year, sum(project[revenue](%2)) : loss>](
  nest[date](
    project[<year(order.orderdate) : date,
             *(extendedprice, -(1.0, discount)) : revenue>](
      select[=(order.clerk, "` + clerk + `"), =(returnflag, 'R')](Item))))`

	out, _ := run(t, env, src)

	// reference: direct evaluation over the object graph
	want := map[int64]float64{}
	for _, it := range db.Items {
		if it.Returnflag != 'R' || db.Orders[it.Order].Clerk != clerk {
			continue
		}
		year := yearOf(int64(db.Orders[it.Order].Orderdate))
		want[year] += it.Extendedprice * (1 - it.Discount)
	}
	if len(out.Elems) != len(want) {
		t.Fatalf("groups = %d, want %d", len(out.Elems), len(want))
	}
	for _, e := range out.Elems {
		tv := e.V.(*moa.TupleVal)
		year := tv.Fields[0].(bat.Value).I
		loss := tv.Fields[1].(bat.Value).F
		if w, ok := want[year]; !ok || !close2(loss, w) {
			t.Fatalf("year %d loss %v, want %v", year, loss, want[year])
		}
	}
}

// yearOf extracts the calendar year of a day-number date via the same
// conversion the kernel's [year] multiplex uses.
func yearOf(days int64) int64 {
	return mil.CallFunc("year", []bat.Value{bat.D(int32(days))}).I
}

func close2(a, b float64) bool {
	d := a - b
	return d < 1e-6 && d > -1e-6
}

func TestQ13PlanShape(t *testing.T) {
	env := testEnv(t)
	src := `
project[<date : year, sum(project[revenue](%2)) : loss>](
  nest[date](
    project[<year(order.orderdate) : date,
             *(extendedprice, -(1.0, discount)) : revenue>](
      select[=(order.clerk, "Clerk#000000001"), =(returnflag, 'R')](Item))))`
	e, err := moa.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := moa.Check(tpcd.Schema(), e)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Translate(ck)
	if err != nil {
		t.Fatal(err)
	}
	plan := res.Prog.String()
	// The Fig. 5 / Fig. 10 structure: selection phase first (select on
	// Order_clerk, join back through Item_order, semijoin + select on
	// returnflag), then grouping, multiplexed computation, aggregation.
	mustContain := []string{
		`select(Order_clerk, "Clerk#000000001")`,
		`join(Item_order`,
		`semijoin(Item_returnflag`,
		`'R'`,
		`group(`,
		`[year](`,
		`[-](1, `,
		`[*](`,
		`{sum}(`,
	}
	for _, m := range mustContain {
		if !strings.Contains(plan, m) {
			t.Errorf("plan missing %q:\n%s", m, plan)
		}
	}
	order := []string{"select(Order_clerk", "semijoin(Item_returnflag", "group(", "{sum}("}
	last := -1
	for _, m := range order {
		i := strings.Index(plan, m)
		if i < last {
			t.Errorf("plan phase order wrong: %q appears before previous phase\n%s", m, plan)
		}
		last = i
	}
	if !strings.HasPrefix(res.Struct.Render(), "SET(") {
		t.Errorf("structure = %s", res.Struct.Render())
	}
	_ = env
}
