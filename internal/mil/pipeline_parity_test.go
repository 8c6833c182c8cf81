package mil

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bat"
)

// Pipeline-vs-materialization parity: every fusable chain shape — select
// heads (scan, binary-search run, tail-hash positions) through semijoin /
// diff / intersect / further selects, a hash or fetch join, and grouped or
// scalar aggregate terminals — must produce BUN-identical results under the
// vectorized pipeline and under full materialization (Pipeline < 0), at
// every worker count, morsel setting and vector length (including degenerate
// 1-row and odd-sized vectors), over the skew-parity key corpus. `make
// verify` runs this under -race as well.

// pipelineCtxs is the execution matrix: the materializing reference plus
// pipeline runs across schedules and vector lengths.
func pipelineCtxs() map[string]Options {
	return map[string]Options{
		"pipe-seq":        {Workers: 1},
		"pipe-w8":         {Workers: 8},
		"pipe-w3-1k":      {Workers: 3, MorselRows: 1024},
		"pipe-vec1":       {Workers: 1, VectorRows: 1},
		"pipe-vec7-w8":    {Workers: 8, VectorRows: 7},
		"pipe-vec1024-w3": {Workers: 3, VectorRows: 1024},
	}
}

// pipelineEnv builds the base BATs the chain programs run over, shaped by
// one skew-parity key distribution.
func pipelineEnv(keys []int64, ordered bool) Env {
	n := len(keys)
	fv := make([]float64, n)
	for i := range fv {
		fv[i] = float64((keys[i]*2654435761)%1000) / 3
	}
	var props bat.Props
	if ordered {
		props = bat.TOrdered
	}
	env := Env{}
	// fact: [void | int keys] — the chain stream (selects cut its tail).
	env["fact"] = bat.New("fact", bat.NewVoid(0, n), bat.NewIntCol(keys), props)
	// gf: [int keys | flt] — grouped-aggregate stream (select on the tail,
	// group on the skewed head; float tails make accumulation order part of
	// the parity contract).
	env["gf"] = bat.New("gf", bat.NewIntCol(keys), bat.NewFltCol(fv), 0)
	// hot: [oid subset | void] — semijoin/diff/intersect target keyed on
	// fact's dense OID head.
	var hots []bat.OID
	for i := 0; i < n; i += 3 {
		hots = append(hots, bat.OID(i))
	}
	env["hot"] = bat.New("hot", bat.NewOIDCol(hots), bat.NewVoid(0, len(hots)), bat.HKey)
	// dimv: [distinct ints | flt] — hash-join target on the stream's int tail
	// (covers only part of the key domain, so some stream rows miss).
	var dk []int64
	var dv []float64
	for i := int64(0); i < 1<<11; i += 2 {
		dk = append(dk, i)
		dv = append(dv, float64(i)*0.5-100)
	}
	env["dimv"] = bat.New("dimv", bat.NewIntCol(dk), bat.NewFltCol(dv), bat.HKey)
	// factp + dimd: fetch-join pair — factp's tail holds positional oids
	// into dimd's dense void head.
	m := 1 << 10
	ptrs := make([]bat.OID, n)
	for i := range ptrs {
		ptrs[i] = bat.OID(uint64(keys[i]) % uint64(m))
	}
	env["factp"] = bat.New("factp", bat.NewVoid(0, n), bat.NewOIDCol(ptrs), 0)
	md := make([]float64, m)
	for i := range md {
		md[i] = float64(i) * 1.25
	}
	env["dimd"] = bat.New("dimd", bat.NewVoid(0, m), bat.NewFltCol(md), 0)
	// efact + ur: a join whose right head is key without saying so —
	// efact's heads are the even oids (declared h-ordered, h-key), its tail
	// i%50 joins ur's 50 unique, unordered, undeclared int heads; only the
	// hash accelerator's cardinality proves ur's head key.
	even := make([]bat.OID, n)
	mod := make([]int64, n)
	for i := range even {
		even[i], mod[i] = bat.OID(2*i), int64(i%50)
	}
	env["efact"] = bat.New("efact", bat.NewOIDCol(even), bat.NewIntCol(mod), bat.HOrdered|bat.HKey)
	uk := make([]int64, 50)
	uv := make([]float64, 50)
	for i := range uk {
		uk[i], uv[i] = int64((i*17)%50), float64(i)/4
	}
	env["ur"] = bat.New("ur", bat.NewIntCol(uk), bat.NewFltCol(uv), 0)
	return env
}

// pipelinePrograms is the chain corpus, one MIL program per chain shape.
// Final names are unconsumed, so the parser marks them kept.
func pipelinePrograms() map[string]string {
	return map[string]string{
		"sel-sel":        "x := select(fact, 10, 2000)\nRES := select(x, 10, 700)",
		"sel-semijoin":   "x := select(fact, 10, 2000)\nRES := semijoin(x, hot)",
		"sel-diff":       "x := select(fact, 10, 2000)\nRES := diff(x, hot)",
		"sel-intersect":  "x := select(fact, 10, 2000)\nRES := intersect(x, hot)",
		"sel-join":       "x := select(fact, 10, 2000)\nRES := join(x, dimv)",
		"sel-fetch":      "x := select(factp, 1, 800)\nRES := join(x, dimd)",
		"sel-semi-join":  "x := select(fact, 10, 2000)\ny := semijoin(x, hot)\nRES := join(y, dimv)",
		"sel-aggr-sum":   "x := select(gf, 50.0, 250.0)\nRES := {sum}(x)",
		"sel-aggr-min":   "x := select(gf, 50.0, 250.0)\nRES := {min}(x)",
		"sel-aggr-count": "x := select(gf, 50.0, 250.0)\nRES := {count}(x)",
		"sel-scalar":     "x := select(gf, 50.0, 250.0)\nRES := {sum}all(x)",
		"sel-join-aggr":  "x := select(fact, 10, 2000)\ny := join(x, dimv)\nRES := {sum}(y)",
		"sel-join-scal":  "x := select(fact, 10, 2000)\ny := join(x, dimv)\nRES := {min}all(y)",
		"sel-eq":         "x := select(fact, 42)\nRES := semijoin(x, hot)",
		"empty-semi":     "x := select(fact, 9000000, 9000001)\nRES := semijoin(x, hot)",
		"empty-aggr":     "x := select(gf, 9000000.0, 9000001.0)\nRES := {sum}(x)",
		"empty-scalar":   "x := select(gf, 9000000.0, 9000001.0)\nRES := {min}all(x)",
		"empty-join":     "x := select(fact, 9000000, 9000001)\nRES := join(x, dimv)",
		"sel-join-keyed": "x := select(efact, 0, 1000)\nRES := join(x, ur)",
	}
}

// propsMask compares the logical property bits; the dense bits are excluded
// because run detection is an execution-strategy artifact (a chain that
// composes to a contiguous run through a scattered stage may encode its
// result as a view where stage-at-a-time gathers would not, and vice versa).
const propsMask = bat.HOrdered | bat.TOrdered | bat.HKey | bat.TKey

func assertPipelineBAT(t *testing.T, label string, got, want *bat.BAT) {
	t.Helper()
	assertSameBAT(t, label, got, want)
	if got.Props&propsMask != want.Props&propsMask {
		t.Fatalf("%s: props %v, want %v", label, got.Props&propsMask, want.Props&propsMask)
	}
}

func runPipelineProgram(t *testing.T, label, src string, env Env, o Options) (*Scope, []StmtTrace) {
	t.Helper()
	prog, err := ParseProgram(src)
	if err != nil {
		t.Fatalf("%s: parse: %v", label, err)
	}
	scope, traces, err := Exec(NewCtx(nil, o), prog, env)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return scope, traces
}

func TestPipelineParityChains(t *testing.T) {
	for shape, keys := range skewKeys(t) {
		ordered := shape == "zipf-sorted" || shape == "all-one-key"
		env := pipelineEnv(keys, ordered)
		for name, src := range pipelinePrograms() {
			// Materializing reference: pipeline forced off.
			want, wantTraces := runPipelineProgram(t, name, src, env,
				Options{Workers: 1, Pipeline: -1})
			for _, tr := range wantTraces {
				if tr.Algo == "pipeline" {
					t.Fatalf("%s/%s: reference run fused a chain", shape, name)
				}
			}
			for mode, o := range pipelineCtxs() {
				label := fmt.Sprintf("%s/%s/%s", shape, name, mode)
				got, traces := runPipelineProgram(t, label, src, env, o)
				fused := false
				for _, tr := range traces {
					if tr.Algo == "pipeline" {
						fused = true
					}
				}
				if !fused {
					t.Fatalf("%s: chain did not fuse", label)
				}
				wb, _ := want.Lookup("RES")
				gb, ok := got.Lookup("RES")
				if !ok {
					t.Fatalf("%s: RES not bound", label)
				}
				assertPipelineBAT(t, label, gb, wb)
			}
		}
	}
}

// TestPipelineHashSelectSource drives the srcPos source: a cached tail-hash
// accelerator turns the chain head's point select into a position-list
// stream (no scan, no run).
func TestPipelineHashSelectSource(t *testing.T) {
	keys := skewKeys(t)["zipf"]
	env := pipelineEnv(keys, false)
	env["fact"].TailHash() // build + cache: SelectEq and the pipeline source both use it
	src := "x := select(fact, 42)\nRES := semijoin(x, hot)"
	want, _ := runPipelineProgram(t, "hash-src/ref", src, env, Options{Workers: 1, Pipeline: -1})
	for mode, o := range pipelineCtxs() {
		got, traces := runPipelineProgram(t, "hash-src/"+mode, src, env, o)
		fused := false
		for _, tr := range traces {
			fused = fused || tr.Algo == "pipeline"
		}
		if !fused {
			t.Fatalf("hash-src/%s: chain did not fuse", mode)
		}
		wb, _ := want.Lookup("RES")
		gb, _ := got.Lookup("RES")
		assertPipelineBAT(t, "hash-src/"+mode, gb, wb)
	}
}

// TestPipelinePlannerBoundaries pins what must NOT fuse: multi-use
// intermediates, kept intermediates, and post-join filters all fall back to
// materialization (and still produce identical results).
func TestPipelinePlannerBoundaries(t *testing.T) {
	keys := skewKeys(t)["half-hot"]
	env := pipelineEnv(keys, false)
	cases := map[string]string{
		// x used twice: fusing through it would skip a binding another
		// statement reads.
		"multi-use": "x := select(fact, 10, 2000)\na := semijoin(x, hot)\nb := diff(x, hot)\nRES := join(a, dimv)\nRES2 := join(b, dimv)",
		// y is kept (unconsumed name): must materialize.
		"kept-mid": "x := select(fact, 10, 2000)\ny := semijoin(x, hot)",
	}
	for name, src := range cases {
		prog, err := ParseProgram(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		keep := make(map[string]bool)
		for _, k := range prog.Keep {
			keep[k] = true
		}
		chains := planPipeline(prog, keep)
		switch name {
		case "multi-use":
			if len(chains) != 0 {
				t.Fatalf("multi-use: planned %v, want none", chains)
			}
		case "kept-mid":
			// y itself is the terminal of a valid 2-statement chain ending
			// at the kept name — that is fusable (only intermediates must
			// not be kept); verify results match either way.
			if len(chains) != 1 {
				t.Fatalf("kept-mid: planned %v, want the select→semijoin chain", chains)
			}
		}
		want, _ := runPipelineProgram(t, name+"/ref", src, env, Options{Workers: 1, Pipeline: -1})
		got, _ := runPipelineProgram(t, name+"/pipe", src, env, Options{Workers: 8})
		for _, k := range prog.Keep {
			wb, _ := want.Lookup(k)
			gb, ok := got.Lookup(k)
			if !ok {
				t.Fatalf("%s: %s not bound", name, k)
			}
			assertPipelineBAT(t, name+"/"+k, gb, wb)
		}
	}
}

// TestPipelineTraceShape pins the fabricated traces: one per chain
// statement, tagged "pipeline", with the elapsed/fault numbers pooled on the
// terminal.
func TestPipelineTraceShape(t *testing.T) {
	env := pipelineEnv(skewKeys(t)["zipf"], false)
	src := "x := select(fact, 10, 2000)\ny := semijoin(x, hot)\nRES := join(y, dimv)"
	_, traces := runPipelineProgram(t, "trace", src, env, Options{Workers: 1})
	if len(traces) != 3 {
		t.Fatalf("traces = %d, want 3", len(traces))
	}
	for i, tr := range traces {
		if tr.Algo != "pipeline" {
			t.Fatalf("trace %d algo = %q, want pipeline", i, tr.Algo)
		}
		if tr.Index != i {
			t.Fatalf("trace %d index = %d", i, tr.Index)
		}
		if !strings.Contains(tr.Text, ":=") {
			t.Fatalf("trace %d text = %q", i, tr.Text)
		}
	}
	if traces[0].Rows == 0 || traces[1].Rows == 0 || traces[2].Rows == 0 {
		t.Fatalf("zero stream rows in traces: %+v", traces)
	}
}

// TestPipelineGaugeAccounting pins the memory win's accounting shape: a
// fused chain accounts only its terminal result, and the gauge drains back
// to zero either way.
func TestPipelineGaugeAccounting(t *testing.T) {
	env := pipelineEnv(skewKeys(t)["zipf"], false)
	src := "x := select(fact, 10, 2000)\ny := semijoin(x, hot)\nRES := join(y, dimv)"
	run := func(o Options) (*Ctx, *bat.BAT) {
		prog, err := ParseProgram(src)
		if err != nil {
			t.Fatal(err)
		}
		g := &MemGauge{}
		o.Gauge = g
		ctx := NewCtx(nil, o)
		scope, _, err := Exec(ctx, prog, env)
		if err != nil {
			t.Fatal(err)
		}
		ctx.DrainGauge()
		if got := g.Live(); got != 0 {
			t.Fatalf("gauge not drained: %d", got)
		}
		b, _ := scope.Lookup("RES")
		return ctx, b
	}
	mCtx, mRes := run(Options{Workers: 1, Pipeline: -1})
	pCtx, pRes := run(Options{Workers: 1})
	assertPipelineBAT(t, "gauge", pRes, mRes)
	if pCtx.IntermBytes >= mCtx.IntermBytes {
		t.Fatalf("pipeline intermediates %d >= materialized %d", pCtx.IntermBytes, mCtx.IntermBytes)
	}
	if pCtx.PeakBytes > mCtx.PeakBytes {
		t.Fatalf("pipeline peak %d > materialized %d", pCtx.PeakBytes, mCtx.PeakBytes)
	}
}
