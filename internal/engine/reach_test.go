package engine

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/tpcd"
)

// parallelReach is the reachability table of the parallel sites: every
// statement of the 15 Figure-9 queries (SF 0.02, seed 42) and of the five
// ad-hoc lookup templates that dispatches on more than one worker, with the
// sites (bat.Sites) at which it does, identical at workers 2, 4 and 8. A
// site engages exactly when workersFor grants the rows it runs over more
// than one worker, which depends on the row count and the workers only, so
// the table is deterministic. The lookups reach no site: their largest
// operand is one clerk's orders.
var parallelReach = []string{
	"Q01 mx_8 := [-](1, sj_7): scan",
	"Q01 mx_9 := [*](sj_5, mx_8): scan",
	"Q01 mx_15 := [+](1, sj_14): scan",
	"Q01 mx_16 := [*](mx_9, mx_15): scan",
	"Q03 sel_3 := join(Item_order, sel_2): scan",
	"Q03 sel_6 := select(jn_5, 1995-03-15): scan",
	"Q04 sel_3 := select(sj_2, 1993-10-01): scan",
	"Q04 sj_4 := semijoin(Order_item, sel_3): scan",
	"Q05 sel_4 := join(Order_cust, sel_3): scan",
	"Q05 sel_5 := join(Item_order, sel_4): scan",
	"Q05 sel_8 := select(jn_7, 1994-01-01): scan",
	"Q05 sel_11 := select(jn_10, 1995-01-01): scan",
	"Q06 sel_3 := select(sj_2, 1995-01-01): scan",
	"Q06 sel_5 := select(sj_4, 0.05): scan",
	"Q07 sel_3 := select(sj_2, 1996-12-31): scan",
	"Q07 mx_7 := [=](jn_6, \"FRANCE\"): scan",
	"Q07 mx_12 := [=](jn_11, \"GERMANY\"): scan",
	"Q07 mx_13 := [and](mx_7, mx_12): scan",
	"Q07 mx_17 := [=](jn_6, \"GERMANY\"): scan",
	"Q07 mx_22 := [=](jn_11, \"FRANCE\"): scan",
	"Q07 mx_23 := [and](mx_17, mx_22): scan",
	"Q07 mx_24 := [or](mx_13, mx_23): scan",
	"Q07 sel_25 := select(mx_24, true): scan",
	"Q09 mx_3 := [strcontains](jn_2, \"green\"): scan",
	"Q09 sel_4 := select(mx_3, true): scan",
	"Q09 pairs_10 := joinmulti([sj_7,sj_8], [sub_6,sj_9]): keyrep",
	"Q10 sel_4 := select(jn_3, 1993-10-01): scan",
	"Q12 sel_2 := select(sj_1, \"MAIL\"): scan",
	"Q12 sel_3 := select(sj_1, \"SHIP\"): scan",
	"Q12 sel_4 := union(sel_2, sel_3): keyrep",
	"Q12 mx_7 := [<](sj_5, sj_6): scan",
	"Q12 sel_8 := select(mx_7, true): scan",
	"Q12 mx_11 := [<](sj_9, sj_10): scan",
	"Q12 sel_12 := select(mx_11, true): scan",
	"Q14 sel_3 := select(sj_2, 1995-10-01): scan",
	"Q15 sel_3 := select(sj_2, 1996-04-01): scan",
}

// TestParallelReach pins parallelReach and requires every parallel site to
// appear in it: a parallel path that no statement of Figure 9 or of the
// lookups reaches fails here, and goes rather than stay untested.
func TestParallelReach(t *testing.T) {
	gen := tpcd.Generate(0.02, 42)
	c, s, r := gen.Customers[7], gen.Suppliers[7], gen.Regions[2]
	var srcs []string
	var names []string
	for _, q := range tpcd.Queries(gen) {
		srcs = append(srcs, q.MOA)
		names = append(names, fmt.Sprintf("Q%02d", q.Num))
	}
	srcs = append(srcs,
		fmt.Sprintf(`project[<name : name, nation.name : nation, acctbal : acctbal>](select[=(name, %q)](Customer))`, c.Name),
		fmt.Sprintf(`project[<name : name, project[<totalprice : totalprice, orderdate : orderdate>](orders) : orders>](select[=(name, %q)](Customer))`, c.Name),
		fmt.Sprintf(`project[<name : name, select[<(available, 1000)](supplies) : low>](select[=(name, %q)](Supplier))`, s.Name),
		fmt.Sprintf(`project[<name : name, comment : comment>](select[=(name, %q)](Region))`, r.Name),
		fmt.Sprintf(`select[=(order.clerk, %q), =(returnflag, 'R')](Item)`, gen.Clerk()),
	)
	names = append(names, "cust-nation", "cust-orders", "supp-lowstock", "region", "clerk-returns")
	for _, workers := range []int{2, 4, 8} {
		env, _ := tpcd.Load(gen)
		db := New(tpcd.Schema(), env)
		db.Workers = workers
		db.Profile = true
		var got []string
		for i, src := range srcs {
			res, err := db.NewSession().Query(context.Background(), src)
			if err != nil {
				t.Fatalf("w%d %s: %v", workers, names[i], err)
			}
			for _, tr := range res.Traces {
				if len(tr.Sites) > 0 {
					got = append(got, fmt.Sprintf("%s %s: %s", names[i], tr.Text, strings.Join(tr.Sites, ",")))
				}
			}
		}
		if !slices.Equal(got, parallelReach) {
			t.Errorf("w%d: reachability moved; got\n%s", workers, renderReach(got))
		}
	}
	for _, site := range bat.Sites {
		reached := false
		for _, row := range parallelReach {
			_, sites, _ := strings.Cut(row, ": ")
			reached = reached || slices.Contains(strings.Split(sites, ","), site)
		}
		if !reached {
			t.Errorf("parallel site %q is reached by no statement", site)
		}
	}
}

// renderReach prints a captured table as the Go literal of parallelReach.
func renderReach(rows []string) string {
	var sb strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&sb, "\t%q,\n", r)
	}
	return sb.String()
}
