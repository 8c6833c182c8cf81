package engine

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/mil"
	"repro/internal/storage"
	"repro/internal/tpcd"
)

// traceGoldenPath holds the paper's Figure-10 observable for all of Figure 9:
// at SF 0.005 (seed 7) and SF 0.02 (seed 42), every plan of the fifteen
// Figure-9 queries and the five lookup templates as translated, and every
// statement of its optimized program with the variant it ran, its rows,
// claims, owned bytes, accelerator builds and (faults, hits) cold and warm;
// then the statements that dispatch at a parallel site and the census of
// the variants. Everything in it but elapsed time is a pure function of the
// BATs. To re-pin after a deliberate change, delete the file and run the
// test once: it writes the file and fails, and the diff is the review.
const traceGoldenPath = "testdata/fig9.trace"

// unreachedVariants are the mil.Variants no statement of the golden reaches,
// each with why it stays.
var unreachedVariants = map[string]string{
	"hash-aggr": "the only Aggr of a wide unordered head with no grouping",
	"hash-diff": "the only diff",
}

// traceQuery is one query of the golden.
type traceQuery struct{ name, src string }

// traceQueries returns the fifteen Figure-9 queries and the five lookup
// templates over gen.
func traceQueries(gen *tpcd.DB) (fig9, lookups []traceQuery) {
	for _, q := range tpcd.Queries(gen) {
		fig9 = append(fig9, traceQuery{fmt.Sprintf("Q%02d", q.Num), q.MOA})
	}
	c, s, r := gen.Customers[7], gen.Suppliers[7], gen.Regions[2]
	lookups = []traceQuery{
		{"cust-nation", fmt.Sprintf(`project[<name : name, nation.name : nation, acctbal : acctbal>](select[=(name, %q)](Customer))`, c.Name)},
		{"cust-orders", fmt.Sprintf(`project[<name : name, project[<totalprice : totalprice, orderdate : orderdate>](orders) : orders>](select[=(name, %q)](Customer))`, c.Name)},
		{"supp-lowstock", fmt.Sprintf(`project[<name : name, select[<(available, 1000)](supplies) : low>](select[=(name, %q)](Supplier))`, s.Name)},
		{"region", fmt.Sprintf(`project[<name : name, comment : comment>](select[=(name, %q)](Region))`, r.Name)},
		{"clerk-returns", fmt.Sprintf(`select[=(order.clerk, %q), =(returnflag, 'R')](Item)`, gen.Clerk())},
	}
	return fig9, lookups
}

// traceScales are the golden's databases: the scale of the touch counts,
// and the scale at which the parallel sites dispatch.
var traceScales = []struct {
	sf   float64
	seed int64
}{{0.005, 7}, {0.02, 42}}

// TestFig9TraceGolden renders the trace at workers 1 and 4 and requires the
// two byte-identical; the golden is that trace, the parallel sites and the
// census. Every variant the trace runs must be in mil.Variants, and every
// name there must be run or excused.
func TestFig9TraceGolden(t *testing.T) {
	census := map[string]int{}
	trace := renderTrace(t, 1, census)
	if w4 := renderTrace(t, 4, map[string]int{}); w4 != trace {
		t.Errorf("workers 4: the trace differs from workers 1 at %s", diffLine(w4, trace))
	}
	var sb strings.Builder
	sb.WriteString("== census: runs per variant, both scales, cold and warm\n")
	names := make([]string, 0, len(census))
	for v := range census {
		names = append(names, v)
	}
	sort.Strings(names)
	for _, v := range names {
		fmt.Fprintf(&sb, "%-20s %d\n", v, census[v])
		if !slices.Contains(mil.Variants, v) {
			t.Errorf("variant %q is not in mil.Variants", v)
		}
	}
	for _, v := range mil.Variants {
		if _, excused := unreachedVariants[v]; census[v] == 0 && !excused {
			t.Errorf("variant %q is reached by no statement", v)
		}
	}
	got := trace + renderSites(t) + sb.String()

	want, err := os.ReadFile(traceGoldenPath)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.MkdirAll(filepath.Dir(traceGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(traceGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s (%d bytes); rerun to compare", traceGoldenPath, len(got))
	}
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("the trace moved at %s", diffLine(got, string(want)))
	}
}

// renderTrace runs both scales at the given workers and renders every
// query; it counts the variants into census.
func renderTrace(t *testing.T, workers int, census map[string]int) string {
	var sb strings.Builder
	for _, sc := range traceScales {
		gen := tpcd.Generate(sc.sf, sc.seed)
		fig9, lookups := traceQueries(gen)
		env, _ := tpcd.Load(gen)
		db := New(tpcd.Schema(), env)
		db.Pager = storage.NewPager(4096, 0)
		db.Workers = workers
		// The touch protocol: a fresh env, the queries in order, cold then
		// warm; the lookups after them, the same way.
		for _, block := range [][]traceQuery{fig9, lookups} {
			var passes [2][]*Result
			for pass := range passes {
				for _, q := range block {
					res, err := db.NewSession().Query(context.Background(), q.src)
					if err != nil {
						t.Fatalf("w%d SF %g %s: %v", workers, sc.sf, q.name, err)
					}
					passes[pass] = append(passes[pass], res)
				}
			}
			for i, q := range block {
				renderQuery(t, &sb, db, fmt.Sprintf("SF %g seed %d %s", sc.sf, sc.seed, q.name), q.src, passes[0][i], passes[1][i], census)
			}
		}
	}
	return sb.String()
}

// renderQuery writes one query's plan as translated, its optimized program
// with each statement's cold and warm trace, and its totals; it counts the
// variants into census.
func renderQuery(t *testing.T, sb *strings.Builder, db *Database, name, src string, cold, warm *Result, census map[string]int) {
	prep, err := db.Prepare(src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if strings.HasSuffix(name, "Q13") && prep.Prog.String() != prep.Raw.String() {
		t.Errorf("%s: the Figure-10 plan changed under optimization:\n%s", name, prep.Prog)
	}
	if prep.Translated != len(prep.Raw.Stmts) {
		t.Errorf("%s: Translated %d, want %d", name, prep.Translated, len(prep.Raw.Stmts))
	}
	fmt.Fprintf(sb, "== %s: %d → %d statements\n", name, len(prep.Raw.Stmts), len(prep.Prog.Stmts))
	for _, s := range prep.Raw.Stmts {
		fmt.Fprintf(sb, "   %s\n", s)
	}
	sb.WriteString("-- variant, rows, owned bytes, builds, cold and warm (faults, hits), statement, claims\n")
	if len(cold.Traces) != len(warm.Traces) {
		t.Fatalf("%s: %d statements cold, %d warm", name, len(cold.Traces), len(warm.Traces))
	}
	for i, c := range cold.Traces {
		w := warm.Traces[i]
		for _, tr := range []mil.StmtTrace{c, w} {
			census[strings.TrimSuffix(tr.Algo, " (intersect)")]++
		}
		fmt.Fprintf(sb, "   %-20s %7s %9s %3s {%d, %d} {%d, %d}  %s  {%s}\n",
			either(c.Algo, w.Algo), either(c.Rows, w.Rows), either(c.OutBytes, w.OutBytes), either(c.AccelBuilds, w.AccelBuilds),
			c.Faults, c.Hits, w.Faults, w.Hits, c.Text, either(c.Claims(), w.Claims()))
	}
	fmt.Fprintf(sb, "-- total: %d rows, %d bytes, %d builds, cold {%d, %d} warm {%d, %d}\n",
		cold.Bound.Len(), cold.Stats.IntermBytes, cold.Stats.AccelBuilds+warm.Stats.AccelBuilds,
		cold.Stats.Faults, cold.Stats.Hits, warm.Stats.Faults, warm.Stats.Hits)
}

// either renders a trace field once when the cold and warm runs agree, as
// "cold→warm" when they do not.
func either[T comparable](cold, warm T) string {
	if cold == warm {
		return fmt.Sprint(cold)
	}
	return fmt.Sprintf("%v→%v", cold, warm)
}

// renderSites writes every statement of the Figure-9 queries and the
// lookups at SF 0.02 that dispatches on more than one worker, with its
// parallel sites (bat.Sites), which must be the same at workers 2, 4 and 8.
// A site engages exactly when workersFor grants its rows more than one
// worker, so the table is deterministic; a site that no statement reaches
// fails, and goes rather than stay untested.
func renderSites(t *testing.T) string {
	gen := tpcd.Generate(traceScales[1].sf, traceScales[1].seed)
	fig9, lookups := traceQueries(gen)
	var first string
	reached := map[string]bool{}
	for _, workers := range []int{2, 4, 8} {
		env, _ := tpcd.Load(gen)
		db := New(tpcd.Schema(), env)
		db.Workers = workers
		var sb strings.Builder
		sb.WriteString("== parallel sites at SF 0.02 seed 42, workers 2, 4 and 8\n")
		for _, q := range append(fig9, lookups...) {
			res, err := db.NewSession().Query(context.Background(), q.src)
			if err != nil {
				t.Fatalf("w%d %s: %v", workers, q.name, err)
			}
			for _, tr := range res.Traces {
				if len(tr.Sites) > 0 {
					fmt.Fprintf(&sb, "%s %s: %s\n", q.name, tr.Text, strings.Join(tr.Sites, ","))
				}
				for _, site := range tr.Sites {
					reached[site] = true
				}
			}
		}
		if first == "" {
			first = sb.String()
		} else if sb.String() != first {
			t.Errorf("w%d: the parallel sites differ from workers 2 at %s", workers, diffLine(sb.String(), first))
		}
	}
	for _, site := range bat.Sites {
		if !reached[site] {
			t.Errorf("parallel site %q is reached by no statement", site)
		}
	}
	return first
}

// diffLine describes the first line at which got and want differ.
func diffLine(got, want string) string {
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			return fmt.Sprintf("line %d:\ngot  %.400s\nwant %.400s", i+1, g, w)
		}
	}
	return "no line"
}
