package rewrite

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/mil"
	"repro/internal/moa"
	"repro/internal/storage"
	"repro/internal/tpcd"
)

// fig9Gen is the database the Figure-9 plans are drawn and run over.
var fig9Gen = tpcd.Generate(0.005, 7)

// translatePair returns a MOA query as translated and as optimized.
func translatePair(tb testing.TB, src string) (raw, opt *Result) {
	tb.Helper()
	e, err := moa.Parse(src)
	if err != nil {
		tb.Fatalf("parse %s: %v", src, err)
	}
	ck, err := moa.Check(tpcd.Schema(), e)
	if err != nil {
		tb.Fatalf("check %s: %v", src, err)
	}
	if raw, err = translate(ck); err != nil {
		tb.Fatalf("translate %s: %v", src, err)
	}
	if opt, err = Translate(ck); err != nil {
		tb.Fatalf("Translate %s: %v", src, err)
	}
	return raw, opt
}

// optimizeSeeds are the random-query seeds of TestOptimizeDifferential:
// OPTIMIZE_SEEDS (comma-separated int64s) when set, else {1, 2}, so that
// `go test` stays deterministic while CI can draw fresh seeds per run.
func optimizeSeeds(t *testing.T) []int64 {
	env := os.Getenv("OPTIMIZE_SEEDS")
	if env == "" {
		return []int64{1, 2}
	}
	var seeds []int64
	for _, s := range strings.Split(env, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			t.Fatalf("OPTIMIZE_SEEDS: bad seed %q: %v", s, err)
		}
		seeds = append(seeds, v)
	}
	return seeds
}

// diffRun is one query's observable outcome.
type diffRun struct {
	render       string
	faults, hits uint64
	peak         int64
}

// TestOptimizeDifferential runs every query twice — as translated and as
// optimized — over the 15 Figure-9 queries and random well-typed selections,
// sequentially and in parallel. The optimized plan
// must render a byte-identical answer, fault on exactly the same pages
// (it only drops re-reads), touch no more pages, peak at most 2x the memory,
// and return every byte it accounted to the gauge.
func TestOptimizeDifferential(t *testing.T) {
	// A path projected twice makes a result the structure function names
	// an eliminated twin of another.
	queries := []string{`project[<order.clerk : a, order.clerk : b, quantity : q>](select[=(returnflag, 'R')](Item))`}
	for _, q := range tpcd.Queries(fig9Gen) {
		queries = append(queries, q.MOA)
	}
	trials := 10
	if testing.Short() || raceEnabled {
		trials = 3
	}
	for _, seed := range optimizeSeeds(t) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < trials; i++ {
			k := 1 + rng.Intn(3)
			texts := make([]string, k)
			for j := range texts {
				texts[j] = genPred(rng, testDB, rng.Intn(3)).moa
			}
			// Projecting a reference path next to the selection's own paths
			// gives the translation shared prefixes to eliminate.
			queries = append(queries, fmt.Sprintf(`project[<quantity : q, order.orderpriority : p>](select[%s](Item))`,
				strings.Join(texts, ", ")))
			if p := genLeaf(rng, testDB); !strings.Contains(p.moa, "order.") {
				queries = append(queries, fmt.Sprintf(`project[<clerk : c>](select[exists(select[%s](item))](Order))`, p.moa))
			}
		}
	}
	raws := make([]*Result, len(queries))
	opts := make([]*Result, len(queries))
	for i, q := range queries {
		raws[i], opts[i] = translatePair(t, q)
	}

	// Each plan runs on a freshly loaded env (accelerators and LOOKUP memos
	// built by one plan must not save the other plan touches) and each
	// query on a fresh pool, so faults are the query's own distinct pages.
	runAll := func(label string, plans []*Result, o mil.Options) []diffRun {
		env, _ := tpcd.Load(fig9Gen)
		out := make([]diffRun, len(plans))
		for i, res := range plans {
			g := &mil.MemGauge{}
			o.Gauge, o.Pager = g, storage.NewPager(4096, 0)
			ctx := mil.NewCtx(nil, o)
			scope, _, err := mil.Exec(ctx, res.Prog, env)
			if err != nil {
				t.Fatalf("%s %s: %v\n%s", label, queries[i], err, res.Prog)
			}
			set, err := moa.Materialize(scope, res.Struct)
			if err != nil {
				t.Fatalf("%s %s: materialize: %v", label, queries[i], err)
			}
			ctx.DrainGauge()
			if live := g.Live(); live != 0 {
				t.Fatalf("%s %s: gauge holds %d bytes after drain", label, queries[i], live)
			}
			out[i] = diffRun{moa.RenderVal(set), ctx.PageFaults(), ctx.PageHits(), ctx.PeakBytes}
		}
		return out
	}
	for _, workers := range []int{1, 4} {
		o := mil.Options{Workers: workers}
		cell := fmt.Sprintf("w%d", workers)
		want := runAll(cell+"/translated", raws, o)
		got := runAll(cell+"/optimized", opts, o)
		for i := range queries {
			w, g := want[i], got[i]
			if g.render != w.render {
				t.Fatalf("%s %s: answers differ\noptimized:\n%s\ntranslated:\n%s", cell, queries[i], g.render, w.render)
			}
			// A shared result lives until its last reader: peak may rise
			// (Q07 by 1.6x), bounded at 2x.
			if g.peak > 2*w.peak {
				t.Errorf("%s %s: optimized peak %d B, translated %d B", cell, queries[i], g.peak, w.peak)
			}
			if g.faults != w.faults || g.hits > w.hits {
				t.Errorf("%s %s: optimized faults/hits %d/%d, translated %d/%d",
					cell, queries[i], g.faults, g.hits, w.faults, w.hits)
			}
		}
	}
}

// fig9Plans returns the 15 Figure-9 queries as translated.
func fig9Plans(tb testing.TB) []*mil.Program {
	var plans []*mil.Program
	for _, q := range tpcd.Queries(fig9Gen) {
		raw, _ := translatePair(tb, q.MOA)
		plans = append(plans, raw.Prog)
	}
	return plans
}

// TestOptimizeAllocations bounds the planning cost Optimize adds to every
// plan-cache miss: a constant number of allocations per statement, and no
// rendering (Stmt.String alone allocates several times per statement).
func TestOptimizeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts")
	}
	q1 := fig9Plans(t)[0]
	if len(q1.Stmts) != 63 {
		t.Fatalf("Q01 translates to %d statements, want 63", len(q1.Stmts))
	}
	// A kept statement whose String would panic (mirror without operand):
	// Optimize must never render a statement.
	p := &mil.Program{Stmts: append(q1.Stmts[:len(q1.Stmts):len(q1.Stmts)], mil.Stmt{Dst: "unrendered", Op: mil.OpMirror}),
		Keep: append(q1.Keep[:len(q1.Keep):len(q1.Keep)], "unrendered")}
	const perStmt = 1
	allocs := testing.AllocsPerRun(20, func() { mil.Optimize(p) })
	if allocs > perStmt*float64(len(p.Stmts)) {
		t.Fatalf("Optimize on Q01: %.0f allocations for %d statements, want <= %d per statement",
			allocs, len(p.Stmts), perStmt)
	}
}

// BenchmarkOptimize measures Optimize over the 15 Figure-9 plans as
// translated, reported per plan.
func BenchmarkOptimize(b *testing.B) {
	plans := fig9Plans(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range plans {
			mil.Optimize(p)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(plans)), "ns/plan")
}
