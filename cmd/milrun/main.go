// Command milrun executes a hand-written MIL script (the paper's Fig. 10
// notation) against a generated TPC-D database, after mil.Optimize has
// computed each repeated statement once, printing the per-statement trace
// and the result BATs — the closest analogue of driving the Monet
// kernel directly through the Monet Interface Language.
//
// Example:
//
//	go run ./cmd/milrun <<'EOF'
//	orders := select(Order_clerk, "Clerk#000000001")
//	items  := join(Item_order, orders)
//	N      := {count}all(items)
//	EOF
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/mil"
	"repro/internal/storage"
	"repro/internal/tpcd"
)

func main() {
	sf := flag.Float64("sf", 0.005, "TPC-D scale factor")
	seed := flag.Int64("seed", 42, "generator seed")
	maxRows := flag.Int("rows", 10, "max BUNs to print per result BAT")
	flag.Parse()

	var src string
	if flag.NArg() > 0 {
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		src = string(data)
	} else {
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		src = string(data)
	}

	parsed, err := mil.ParseProgram(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	prog, alias := mil.Optimize(parsed)
	fmt.Printf("-- optimized: %d → %d statements\n", len(parsed.Stmts), len(prog.Stmts))

	gen := tpcd.Generate(*sf, *seed)
	env, _ := tpcd.Load(gen)
	ctx := mil.NewCtx(nil, mil.Options{Pager: storage.NewPager(4096, 0)})

	scope, traces, err := mil.Exec(ctx, prog, env)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("-- trace:")
	for _, tr := range traces {
		fmt.Println(tr)
	}
	fmt.Printf("-- %d faults, %.2f MB intermediates (peak %.2f MB)\n",
		ctx.Pager.Faults(),
		float64(ctx.IntermBytes)/(1<<20), float64(ctx.PeakBytes)/(1<<20))

	// Results print under the names the script gave them; an eliminated
	// one resolves to the twin that computed its value.
	for _, name := range parsed.Keep {
		v := name
		if a, ok := alias[name]; ok {
			v = a
		}
		b, ok := scope.Lookup(v)
		if !ok {
			continue
		}
		fmt.Printf("\n-- %s: %d BUNs\n", name, b.Len())
		n := b.Len()
		if n > *maxRows {
			n = *maxRows
		}
		for i := 0; i < n; i++ {
			fmt.Printf("  [%s, %s]\n", b.HeadValue(i), b.TailValue(i))
		}
		if b.Len() > n {
			fmt.Printf("  ... (%d more)\n", b.Len()-n)
		}
	}
}
