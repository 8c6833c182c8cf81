// Milscript drives the Monet kernel directly through a hand-written MIL
// program — the Fig. 10 listing itself — bypassing the MOA front end, the
// way the paper's authors worked when analysing Q13 statement by statement.
package main

import (
	"fmt"
	"log"

	"repro/internal/mil"
	"repro/internal/storage"
	"repro/internal/tpcd"
)

func main() {
	gen := tpcd.Generate(0.01, 42)
	env, _ := tpcd.Load(gen)

	script := fmt.Sprintf(`
# Fig. 10: TPC-D Q13, hand-written MIL
orders   := select(Order_clerk, "%s")
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
`, gen.Clerk())

	prog, err := mil.ParseProgram(script)
	if err != nil {
		log.Fatal(err)
	}
	ctx := mil.NewCtx(nil, mil.Options{Pager: storage.NewPager(4096, 0)})
	scope, traces, err := mil.Exec(ctx, prog, env)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("elapsed / faults / rows / variant / MIL statement:")
	for _, tr := range traces {
		fmt.Println(tr)
	}
	year, loss := scope.Vars["YEAR"], scope.Vars["LOSS"]
	fmt.Println("\nloss per year:")
	for i := 0; i < loss.Len(); i++ {
		for j := 0; j < year.Len(); j++ {
			if year.HeadValue(j) == loss.HeadValue(i) {
				fmt.Printf("  %s: %.2f\n", year.TailValue(j), loss.TailValue(i).F)
			}
		}
	}
}
