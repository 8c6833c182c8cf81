// Command moaquery parses a MOA query, translates it to MIL, executes it on
// a generated TPC-D database and prints — depending on the flags — the MIL
// plan (the Fig. 5 tree as a listing), a Fig. 10-style per-statement
// execution trace, and the materialized result with its structure function.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/moa"
	"repro/internal/storage"
	"repro/internal/tpcd"
)

func main() {
	sf := flag.Float64("sf", 0.005, "TPC-D scale factor")
	seed := flag.Int64("seed", 42, "generator seed")
	q := flag.Int("q", 0, "run the built-in TPC-D query 1-15 instead of reading stdin")
	plan := flag.Bool("plan", false, "print the MIL program as translated and as optimized, and the structure function")
	trace := flag.Bool("trace", false, "print the Fig. 10-style execution trace")
	profile := flag.Bool("profile", false, "print the full per-statement profile (trace + output bytes, accelerator builds, dispatch stats)")
	noResult := flag.Bool("noresult", false, "suppress result printing")
	workers := flag.Int("workers", engine.AutoWorkers(), "parallel iteration degree for bulk operators (1 = sequential)")
	flag.Parse()

	gen := tpcd.Generate(*sf, *seed)
	env, _ := tpcd.Load(gen)
	db := engine.New(tpcd.Schema(), env)
	db.Pager = storage.NewPager(4096, 0)
	db.Workers = *workers

	src := ""
	if *q != 0 {
		for _, query := range tpcd.Queries(gen) {
			if query.Num == *q {
				src = query.MOA
			}
		}
		if src == "" {
			fmt.Fprintf(os.Stderr, "no TPC-D query %d\n", *q)
			os.Exit(1)
		}
	} else if flag.NArg() > 0 {
		src = flag.Arg(0)
	} else {
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		src = string(data)
	}

	if *plan {
		prep, err := db.Prepare(src)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println("-- MIL program as translated:")
		fmt.Print(prep.Raw.String())
		fmt.Println("-- MIL program:")
		fmt.Printf("-- optimized: %d → %d statements\n", prep.Translated, len(prep.Prog.Stmts))
		fmt.Print(prep.Prog.String())
		fmt.Println("-- result structure function:")
		fmt.Println(prep.Struct.Render())
		fmt.Println()
	}

	sess := db.NewSession()
	res, err := sess.Query(context.Background(), src)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *trace || *profile {
		fmt.Println("-- execution trace (elapsed / faults / rows / variant / statement / {claimed props}):")
		for _, tr := range res.Traces {
			fmt.Println(tr)
			if *profile {
				extra := fmt.Sprintf("    out=%dB", tr.OutBytes)
				if tr.AccelBuilds > 0 {
					extra += fmt.Sprintf(" builds=%d (%v)", tr.AccelBuilds, time.Duration(tr.AccelBuildNs))
				}
				if tr.Workers > 0 {
					extra += fmt.Sprintf(" workers=%d morsels=%d maxshare=%.2f", tr.Workers, tr.Morsels, tr.MaxShare)
				}
				if len(tr.Sites) > 0 {
					extra += " parallel=" + strings.Join(tr.Sites, ",")
				}
				fmt.Println(extra)
			}
		}
		fmt.Println()
	}
	fmt.Printf("-- %d elements, %.3fms elapsed, %d faults, %.2f MB intermediates (peak %.2f MB)\n",
		len(res.Set.Elems),
		float64(res.Stats.Elapsed.Microseconds())/1000,
		res.Stats.Faults,
		float64(res.Stats.IntermBytes)/(1<<20),
		float64(res.Stats.PeakBytes)/(1<<20))
	if !*noResult {
		limit := len(res.Set.Elems)
		if limit > 25 {
			limit = 25
		}
		for _, e := range res.Set.Elems[:limit] {
			fmt.Println(moa.RenderVal(e.V))
		}
		if limit < len(res.Set.Elems) {
			fmt.Printf("... (%d more)\n", len(res.Set.Elems)-limit)
		}
	}
}
