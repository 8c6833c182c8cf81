// Clerkloss reproduces the paper's running example end to end: TPC-D query
// 13 ("analyzes the quality of work of a certain clerk", Section 4.1),
// showing the MOA text, the translated MIL program (the Fig. 5 tree as a
// listing), the Fig. 10-style per-statement execution trace with its
// datavector semijoins, and the final <year, loss> result set.
package main

import (
	"fmt"
	"log"
	"strings"

	flatalg "repro"
)

func main() {
	db, gen, err := flatalg.OpenTPCD(0.01, 42)
	if err != nil {
		log.Fatal(err)
	}
	db.Pager = flatalg.NewPager(4096, 0)

	clerk := gen.Clerk()
	moaText := fmt.Sprintf(`
project[<date : year, sum(project[revenue](%%2)) : loss>](
  nest[date](
    project[<year(order.orderdate) : date,
             *(extendedprice, -(1.0, discount)) : revenue>](
      select[=(order.clerk, "%s"), =(returnflag, 'R')](Item))))`, clerk)

	fmt.Println("MOA query (Section 4.1, parameterised for this scale):")
	fmt.Println(moaText)

	prep, err := db.Prepare(moaText)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntranslated MIL program (cf. Fig. 5 / Fig. 10):")
	fmt.Print(prep.Prog.String())
	fmt.Println("result structure function:", prep.Struct.Render())

	res, err := db.Query(moaText)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nexecution trace (cf. Fig. 10):")
	dvCount := 0
	for _, tr := range res.Traces {
		fmt.Println(tr)
		if strings.Contains(tr.Algo, "datavector") {
			dvCount++
		}
	}
	fmt.Printf("\n%d datavector statements; each probes a dense extent by subtraction,\n", dvCount)
	fmt.Println("so none pays a pass into the extent for a later one to reuse (Section 5.2.1).")

	fmt.Printf("\nloss per year for %s:\n", clerk)
	for _, e := range res.Set.Elems {
		fmt.Println("  ", flatalg.RenderVal(e.V))
	}
}
