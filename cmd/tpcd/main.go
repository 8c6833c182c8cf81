// Command tpcd regenerates the paper's Figure 9: the fifteen TPC-D queries
// executed on the flattened Monet/MOA engine and on the relational row-store
// baseline, reporting elapsed time, intermediate-result size, peak memory,
// Item-table selectivity and page faults per query, plus the load-time split
// and the geometric-mean query rate.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/relational"
	"repro/internal/storage"
	"repro/internal/tpcd"
)

func main() {
	sf := flag.Float64("sf", 0.01, "TPC-D scale factor (1.0 = the paper's 1 GB)")
	seed := flag.Int64("seed", 42, "generator seed")
	pool := flag.Int("poolpages", 0, "buffer pool capacity in 4 KB pages (0 = unbounded)")
	validate := flag.Bool("validate", false, "validate both engines against the reference evaluator")
	only := flag.Int("q", 0, "run a single query (1-15)")
	workers := flag.Int("workers", engine.AutoWorkers(), "parallel iteration degree for bulk operators (1 = sequential)")
	flag.Parse()

	start := time.Now()
	fmt.Printf("generating TPC-D at SF=%g (seed %d)...\n", *sf, *seed)
	gen := tpcd.Generate(*sf, *seed)

	env, loadStats := tpcd.Load(gen)
	fmt.Printf("loaded: %d items, %d orders, %d customers, %d parts, %d suppliers\n",
		loadStats.ClassSizes["Item"], loadStats.ClassSizes["Order"],
		loadStats.ClassSizes["Customer"], loadStats.ClassSizes["Part"],
		loadStats.ClassSizes["Supplier"])
	fmt.Printf("load: build %.2fs + accelerators %.2fs (total %.2fs); base %.1f MB, datavectors %.1f MB\n\n",
		loadStats.BuildTime.Seconds(), loadStats.AccelTime.Seconds(),
		time.Since(start).Seconds(),
		mb(loadStats.BaseBytes), mb(loadStats.DVBytes))

	db := engine.New(tpcd.Schema(), env)
	db.Pager = storage.NewPager(4096, *pool)
	db.Workers = *workers

	store := relational.Load(gen)
	store.Pager = storage.NewPager(4096, *pool)

	nItems := float64(len(gen.Items))
	fmt.Printf("%-3s %9s %9s %8s %7s %8s %9s %9s  %s\n",
		"Qx", "rel(s)", "monet(s)", "tot(MB)", "max(MB)", "Item%", "rel-flt", "monet-flt", "comment")

	var monetTimes, relTimes []float64
	for _, q := range tpcd.Queries(gen) {
		if *only != 0 && q.Num != *only {
			continue
		}
		db.Pager.DropAll()
		db.Pager.ResetStats()
		res, err := db.Query(q.MOA)
		if err != nil {
			fmt.Fprintf(os.Stderr, "Q%d (monet): %v\n", q.Num, err)
			os.Exit(1)
		}
		store.Pager.DropAll()
		store.Pager.ResetStats()
		rres, err := store.Run(gen, q.Num)
		if err != nil {
			fmt.Fprintf(os.Stderr, "Q%d (relational): %v\n", q.Num, err)
			os.Exit(1)
		}
		if *validate {
			want, err := tpcd.Reference(gen, q.Num)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := tpcd.CompareResults(res.Set, want, q.Ordered); err != nil {
				fmt.Fprintf(os.Stderr, "Q%d monet MISMATCH: %v\n", q.Num, err)
				os.Exit(1)
			}
			if err := tpcd.CompareResults(rres.Set, want, q.Ordered); err != nil {
				fmt.Fprintf(os.Stderr, "Q%d relational MISMATCH: %v\n", q.Num, err)
				os.Exit(1)
			}
		}
		sel := itemSelectivity(res) / nItems * 100
		selStr := "n.a."
		if sel > 0 {
			selStr = fmt.Sprintf("%.1f%%", sel)
		}
		fmt.Printf("%-3d %9.3f %9.3f %8.1f %7.1f %8s %9d %9d  %s\n",
			q.Num, rres.Elapsed.Seconds(), res.Stats.Elapsed.Seconds(),
			mb(res.Stats.IntermBytes), mb(res.Stats.PeakBytes),
			selStr, rres.Faults, res.Stats.Faults, q.Name)
		monetTimes = append(monetTimes, res.Stats.Elapsed.Seconds())
		relTimes = append(relTimes, rres.Elapsed.Seconds())
	}
	if *only == 0 {
		fmt.Printf("\nQppD-style geometric mean: relational %.4fs, monet %.4fs\n",
			geomean(relTimes), geomean(monetTimes))
	}
}

// itemSelectivity estimates the fraction of the Item table the query touched
// by finding the largest semijoin/select over an Item BAT in the traces.
func itemSelectivity(res *engine.Result) float64 {
	max := 0
	for _, tr := range res.Traces {
		if strings.Contains(tr.Text, "Item_") &&
			(strings.Contains(tr.Text, "select(") || strings.Contains(tr.Text, "semijoin(")) {
			if tr.Rows > max {
				max = tr.Rows
			}
		}
	}
	return float64(max)
}

func mb(b int64) float64 { return float64(b) / (1 << 20) }

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			x = 1e-9
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
