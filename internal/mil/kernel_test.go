package mil

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bat"
)

// Tests of the single kernels: each operator has one kernel that takes its
// rows as a window [lo, hi) of a base column, so each is compared once —
// over every window shape — against a per-row boxed oracle (oracle_test.go).

// kernelShapes are the windows every kernel is driven over, for a base
// column of n >= 700 rows: empty, every row, a window with lo > 0, a single
// row, and windows of 257 and 513 rows (one past the probe block
// boundaries).
func kernelShapes(n int) map[string][2]int {
	return map[string][2]int{
		"empty":      {9, 9},
		"full":       {0, n},
		"window":     {130, 430},
		"single":     {41, 42},
		"window-257": {101, 358},
		"window-513": {n - 513, n},
	}
}

// edgeColumn builds an n-row tail of kind k from a small domain, with the
// kind's extreme values mixed in (the bounds the typed kernels step from).
func edgeColumn(rng *rand.Rand, k bat.Kind, n int) bat.Column {
	vals := randKindValues(rng, k, n, false)
	var edges []bat.Value
	switch k {
	case bat.KInt:
		edges = []bat.Value{bat.I(math.MinInt64), bat.I(math.MaxInt64), bat.I(1<<62 + 5), bat.I(-(1 << 62) - 7)}
	case bat.KOID:
		edges = []bat.Value{bat.O(0), bat.O(math.MaxUint32)}
	case bat.KDate:
		edges = []bat.Value{bat.D(math.MinInt32), bat.D(math.MaxInt32)}
	case bat.KChr:
		edges = []bat.Value{bat.C(0), bat.C(255)}
	case bat.KFlt:
		edges = []bat.Value{bat.F(math.NaN()), bat.F(math.Inf(1)), bat.F(math.Inf(-1)), bat.F(math.Copysign(0, -1)), bat.F(0)}
	case bat.KStr:
		edges = []bat.Value{bat.S(""), bat.S(sharedPrefix + "a"), bat.S(sharedPrefix + "b"), bat.S(sharedPrefix)}
	}
	for i, e := range edges {
		vals[(i*37+11)%n], vals[(i*53+400)%n] = e, e
	}
	return bat.FromValues(k, vals)
}

// TestSelectKernelEqualsInRange: the compiled select kernel keeps exactly
// the rows the boxed predicate inRange(b.T.Get(i), …) keeps, for every tail
// kind, bound shape and window shape.
func TestSelectKernelEqualsInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	const n = 700
	shapes := kernelShapes(n)
	for _, k := range append([]bat.Kind{bat.KVoid}, parityKinds...) {
		var col bat.Column = bat.NewVoid(40, n)
		if k != bat.KVoid {
			col = edgeColumn(rng, k, n)
		}
		b := bat.New("b", bat.NewVoid(0, n), col, 0)
		// bounds: two in-domain values of the tail's kind, its extremes, a
		// value of another kind, and (floats) NaN
		pick := func() bat.Value { return col.Get(rng.Intn(n)) }
		x, y := pick(), pick()
		if bat.Less(y, x) {
			x, y = y, x
		}
		other := bat.S("s07")
		if k == bat.KStr {
			other = bat.I(3)
		}
		bounds := []*bat.Value{nil, &x, &y, &other}
		switch k {
		case bat.KInt:
			bounds = append(bounds, ptr(bat.I(math.MinInt64)), ptr(bat.I(math.MaxInt64)), ptr(bat.F(2.5)))
		case bat.KOID, bat.KVoid:
			bounds = append(bounds, ptr(bat.O(0)), ptr(bat.O(math.MaxUint32)))
		case bat.KDate:
			bounds = append(bounds, ptr(bat.D(math.MinInt32)), ptr(bat.D(math.MaxInt32)))
		case bat.KChr:
			bounds = append(bounds, ptr(bat.C(0)), ptr(bat.C(255)))
		case bat.KFlt:
			bounds = append(bounds, ptr(bat.F(math.NaN())), ptr(bat.F(math.Inf(1))), ptr(bat.I(1)))
		case bat.KStr:
			bounds = append(bounds, ptr(bat.S("")), ptr(bat.S(sharedPrefix+"a")), ptr(bat.S(sharedPrefix)))
		}
		for li, lo := range bounds {
			for hi_, hi := range bounds {
				for _, incl := range [][2]bool{{true, true}, {false, true}, {true, false}, {false, false}} {
					kern := tailKernel(b, lo, hi, incl[0], incl[1])
					for shape, w := range shapes {
						var want []int32
						for i := w[0]; i < w[1]; i++ {
							if inRange(col.Get(i), lo, hi, incl[0], incl[1]) {
								want = append(want, int32(i))
							}
						}
						if got := kern(w[0], w[1]); fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("%s lo#%d hi#%d incl=%v %s: kernel kept %v, inRange keeps %v",
								k, li, hi_, incl, shape, got, want)
						}
					}
				}
			}
		}
	}
	// the bit kernel, typed and boxed
	for _, col := range []bat.Column{edgeColumn(rng, bat.KBit, n), edgeColumn(rng, bat.KInt, n)} {
		kern := bitKernel(bat.New("b", bat.NewVoid(0, n), col, 0))
		for shape, w := range shapes {
			var want []int32
			for i := w[0]; i < w[1]; i++ {
				if col.Get(i).Bool() {
					want = append(want, int32(i))
				}
			}
			if got := kern(w[0], w[1]); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("bit/%s %s: kernel kept %v, want %v", col.Kind(), shape, got, want)
			}
		}
	}
}

// colBits renders a column for bit-exact comparison (floats by bit pattern,
// so NaN and -0 results count).
func colBits(c bat.Column) string {
	out := make([]string, c.Len())
	for i := range out {
		v := c.Get(i)
		out[i] = fmt.Sprintf("%d:%d:%x:%q", v.K, v.I, math.Float64bits(v.F), v.S)
	}
	return fmt.Sprint(out)
}

// TestSlotFoldFeeds: the one accumulation body yields the identical
// count/sum/avg/min/max columns whether it is fed the grouper's slots or the
// direct-index slots of a dense grouping — and those equal the boxed
// reference.
func TestSlotFoldFeeds(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	const n = 3000 // several fold blocks
	heads := randKindValues(rng, bat.KInt, n, false)
	for _, tk := range []bat.Kind{bat.KInt, bat.KFlt, bat.KDate, bat.KStr, bat.KOID, bat.KChr, bat.KBit} {
		tails := edgeColumn(rng, tk, n)
		if tk == bat.KInt { // keep integer sums clear of overflow
			tails = bat.FromValues(tk, randKindValues(rng, tk, n, false))
		}
		b := bat.New("b", bat.FromValues(bat.KInt, heads), tails, 0)
		hr := bat.NewKeyRep(b.H)
		for _, fn := range []string{"count", "sum", "avg", "min", "max"} {
			grouped := func(fold func(f slotFold, slots slotter)) (slotFold, int) {
				g := bat.NewGrouper(nil)
				f := newSlotFold(b.T, fn)
				fold(f, grouperSlots(g, func(i int32) uint64 { return hr.Rep[i] }))
				return f, g.Len()
			}
			fRange, G := grouped(func(f slotFold, slots slotter) { foldRange(f, n, slots) })
			d := bat.NewDenseGrouper(n, b.H)
			if d == nil {
				t.Fatalf("%s: 16 distinct int heads are not dense", tk)
			}
			fDense := newSlotFold(b.T, fn)
			foldRange(fDense, n, d.Slots)
			want := colBits(aggrBoxed(nil, fn, b).T)
			for feed, f := range map[string]slotFold{"range": fRange, "dense": fDense} {
				if got := colBits(f.tail(G)); got != want {
					t.Fatalf("%s/%s fed %s: %s, boxed reference %s", tk, fn, feed, got, want)
				}
			}
		}
	}
}

// TestScalarFoldEqualsTerminal: AggrScalar and the boxed reference agree
// bit for bit — on empty, one-row and NaN-carrying inputs, for every
// function and tail kind.
func TestScalarFoldEqualsTerminal(t *testing.T) {
	nan := math.NaN()
	inputs := map[string]bat.Column{
		"flt-empty": bat.NewFltCol(nil),
		"flt-one":   bat.NewFltCol([]float64{2.5}),
		"flt-nan":   bat.NewFltCol([]float64{1, nan, math.Copysign(0, -1), 3}),
		"flt-nan1":  bat.NewFltCol([]float64{nan, 7}),
		"int-empty": bat.NewIntCol(nil),
		"int-one":   bat.NewIntCol([]int64{-4}),
		"int-many":  bat.NewIntCol([]int64{5, -4, 1 << 60, 9}),
		"date-many": bat.NewDateCol([]int32{9000, 8000, 9500}),
		"oid-empty": bat.NewOIDCol(nil),
		"oid-many":  bat.NewOIDCol([]bat.OID{7, 0, math.MaxUint32}),
		"chr-many":  bat.NewChrCol([]byte{'q', 0, 255}),
		"str-empty": bat.NewStrColFromStrings(nil),
		"str-many":  bat.NewStrColFromStrings([]string{"b", "a", "c"}),
	}
	for name, tail := range inputs {
		b := bat.New("b", bat.NewVoid(0, tail.Len()), tail, 0)
		for _, fn := range []string{"count", "sum", "avg", "min", "max"} {
			want := scalarBoxed(fn, b)
			if got := AggrScalar(nil, fn, b); colBits(got.T) != colBits(want.T) || got.T.Kind() != want.T.Kind() {
				t.Fatalf("%s/%s: AggrScalar = %s (%s), boxed %s (%s)", name, fn,
					colBits(got.T), got.T.Kind(), colBits(want.T), want.T.Kind())
			}
		}
	}
}

// TestMismatchedProbeKindConstantAnswers: when the probe column's kind
// cannot occur in the indexed head (an int column against a str-headed or a
// dense-oid-headed BAT), nothing can match, and the operators answer without
// probing — join and semijoin empty, diff every BUN — under the usual
// variant names, sequential and over many morsels alike.
func TestMismatchedProbeKindConstantAnswers(t *testing.T) {
	const n = bat.ParallelMinRows
	if m := len(probeRanges(n, 4)); m < 4*morselsPerWorker {
		t.Fatalf("%d rows cut %d morsels on 4 workers, want >= %d", n, m, 4*morselsPerWorker)
	}
	rng := rand.New(rand.NewSource(303))
	ints := make([]int64, n)
	for i := range ints {
		ints[i] = int64(rng.Intn(50)) // unordered: keeps merge and fetch variants out
	}
	strs := make([]string, 40)
	oids := make([]bat.OID, 40)
	for i := range strs {
		strs[i], oids[i] = fmt.Sprintf("s%02d", i), bat.OID(i)
	}
	rights := map[string]*bat.BAT{
		"str-headed":       bat.New("r", bat.NewStrColFromStrings(strs), bat.NewVoid(0, 40), 0),
		"dense-oid-headed": bat.New("r", bat.NewOIDCol(oids), bat.NewVoid(0, 40), 0),
	}
	lt := bat.New("lt", bat.NewVoid(0, n), bat.NewIntCol(ints), 0)   // join probes the tail
	lh := bat.New("lh", bat.NewIntCol(ints), bat.NewVoid(100, n), 0) // semijoin/diff probe the head
	for rname, r := range rights {
		for _, op := range []struct {
			code, algo string
			l          *bat.BAT
			wantLen    int
		}{
			{OpJoin, "hash-join", lt, 0},
			{OpSemijoin, "hash-semijoin", lh, 0},
			{OpDiff, "hash-diff", lh, n},
		} {
			prog := &Program{Keep: []string{"RES"}, Stmts: []Stmt{
				{Dst: "x", Op: OpSelectRange, Args: []StmtArg{VarArg("l"), None(), None()}, LoIncl: true, HiIncl: true},
				{Dst: "RES", Op: op.code, Args: []StmtArg{VarArg("x"), VarArg("r")}},
			}}
			var results []*bat.BAT
			for _, o := range []Options{{}, {Workers: 4}} {
				label := fmt.Sprintf("%s/%s/w=%d", rname, op.code, o.Workers)
				scope, traces, err := Exec(NewCtx(nil, o), prog, Env{"l": op.l, "r": r})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if traces[1].Algo != op.algo {
					t.Fatalf("%s: variant %q, want %q", label, traces[1].Algo, op.algo)
				}
				res, _ := scope.Lookup("RES")
				if res.Len() != op.wantLen {
					t.Fatalf("%s: %d BUNs, want %d", label, res.Len(), op.wantLen)
				}
				results = append(results, res)
			}
			for _, res := range results[1:] {
				assertSameBAT(t, rname+"/"+op.code, res, results[0])
				if res.Props != results[0].Props {
					t.Fatalf("%s/%s: props %v, sequential %v", rname, op.code, res.Props, results[0].Props)
				}
			}
		}
	}
}
