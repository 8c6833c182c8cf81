package mil

import (
	"testing"

	"repro/internal/bat"
	"repro/internal/storage"
)

// Positional identity is column identity: a result that keeps every BUN of
// an operand in its order is built on that operand's head column (or a view
// of it), so it is bat.Synced with the operand without anything recording
// it.

// dvAttr is an attribute BAT over the dense extent 100..100+n-1 with a
// datavector, its float tail i*1.5 stored descending so that the
// tail-ordered copy is a permutation.
func dvAttr(n int) *bat.BAT {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(n-i) * 1.5
	}
	return bat.AttachDatavector(bat.New("attr", bat.NewVoid(100, n), bat.NewFltCol(vals), 0))
}

// TestDatavectorSemijoinSharesHead: a full-match datavector-semijoin returns
// r's head column itself, for an oid and a void r, with and without a pager;
// a partial match returns exactly the matched oids in r's order; the shared
// head is charged nothing.
func TestDatavectorSemijoinSharesHead(t *testing.T) {
	const n = 64
	attr := dvAttr(n)
	want := func(o bat.OID) float64 { return float64(n-int(o-100)) * 1.5 }
	full := []struct {
		name string
		head bat.Column
	}{
		{"oid", bat.NewOIDCol([]bat.OID{130, 101, 163, 100, 140})},
		{"void", bat.NewVoid(110, 20)},
	}
	for _, withPager := range []bool{false, true} {
		var pg *storage.Pager
		if withPager {
			pg = storage.NewPager(4096, 0)
		}
		for _, c := range full {
			label := c.name
			if withPager {
				label += "/pager"
			}
			r := bat.New("r", c.head, bat.NewVoid(0, c.head.Len()), 0)
			ctx := NewCtx(nil, Options{Pager: pg})
			out := Semijoin(ctx, attr, r)
			if ctx.LastAlgo() != "datavector-semijoin" {
				t.Fatalf("%s: ran %q", label, ctx.LastAlgo())
			}
			if out.H != r.H || !bat.Synced(out, r) {
				t.Fatalf("%s: full match head %v is not r's head column", label, out.H)
			}
			for i := 0; i < out.Len(); i++ {
				if got := out.TailValue(i).F; got != want(r.HeadValue(i).OID()) {
					t.Fatalf("%s: row %d tail %v, want %v", label, i, got, want(r.HeadValue(i).OID()))
				}
			}
		}
		// Partial: oids below, inside and past the extent, and a void run
		// overhanging its end.
		for _, c := range []struct {
			name string
			head bat.Column
			want []bat.OID
		}{
			{"oid", bat.NewOIDCol([]bat.OID{7, 163, 100, 164, 120, 99}), []bat.OID{163, 100, 120}},
			{"void", bat.NewVoid(160, 6), []bat.OID{160, 161, 162, 163}},
		} {
			r := bat.New("r", c.head, bat.NewVoid(0, c.head.Len()), 0)
			out := Semijoin(NewCtx(nil, Options{Pager: pg}), attr, r)
			if bat.Synced(out, r) || out.Len() != len(c.want) {
				t.Fatalf("%s partial (pager %v): %d rows, synced %v; want %d, not synced",
					c.name, withPager, out.Len(), bat.Synced(out, r), len(c.want))
			}
			for i, o := range c.want {
				if got := out.HeadValue(i).OID(); got != o {
					t.Fatalf("%s partial (pager %v): head[%d] = %d, want %d", c.name, withPager, i, got, o)
				}
				if got := out.TailValue(i).F; got != want(o) {
					t.Fatalf("%s partial (pager %v): tail[%d] = %v, want %v", c.name, withPager, i, got, want(o))
				}
			}
		}
	}

	// The shared head is the operand's column: the statement is charged its
	// gathered tail only.
	r := bat.New("r", bat.NewOIDCol([]bat.OID{130, 101, 163, 100}), bat.NewVoid(0, 4), 0)
	prog, err := ParseProgram("RES := semijoin(attr, r)")
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewCtx(nil, Options{})
	_, traces, err := Exec(ctx, prog, Env{"attr": attr, "r": r})
	if err != nil {
		t.Fatal(err)
	}
	if tr := traces[0]; tr.Algo != "datavector-semijoin" || tr.OutBytes != 4*8 {
		t.Fatalf("%s charged %d bytes, want the 32 of its float tail", tr.Algo, tr.OutBytes)
	}
}

// TestKeptEveryBUNIsSynced: every operator whose result keeps each BUN of its
// driving operand in order returns a result synced with that operand by
// head identity — the scan and binary-search selects, the sync, alias, merge
// and hash semijoins, both multiplexes, the groups, the fetch, hash, merge
// and datavector joins and the sync-join — and over an empty operand too.
func TestKeptEveryBUNIsSynced(t *testing.T) {
	heads := bat.NewOIDCol([]bat.OID{104, 101, 107, 100, 103, 105})
	ints := bat.NewIntCol([]int64{3, 1, 3, 2, 1, 2})
	b := bat.New("b", heads, ints, 0)
	sortedB := bat.New("s", bat.NewOIDCol([]bat.OID{101, 104, 100, 105, 103, 107}), bat.NewIntCol([]int64{1, 1, 2, 2, 3, 3}), bat.TOrdered)
	lo, hi := bat.I(0), bat.I(9)
	// the right operands: b's heads and more, in another order; the same
	// as a column of their own
	wider := bat.New("w", bat.NewOIDCol([]bat.OID{107, 99, 100, 101, 103, 104, 105, 106}), bat.NewVoid(0, 8), 0)
	ordered := bat.New("o", bat.NewOIDCol([]bat.OID{99, 100, 101, 103, 104, 105, 107}), bat.NewVoid(0, 7), 0)
	ordL := bat.New("ol", bat.NewOIDCol([]bat.OID{100, 101, 103, 104, 105, 107}), ints, 0)
	copyB := bat.New("c", bat.NewOIDCol([]bat.OID{104, 101, 107, 100, 103, 105}), bat.NewFltCol([]float64{1, 2, 3, 4, 5, 6}), 0)
	grp := GroupUnary(&Ctx{}, b)
	index := grp.Mirror()
	// join right operands keyed on b's tail values 1..3, and l's oid tails
	jl := bat.New("jl", heads, bat.NewOIDCol([]bat.OID{2, 0, 2, 1, 0, 1}), 0)
	jr := bat.New("jr", bat.NewOIDCol([]bat.OID{1, 2, 0}), bat.NewIntCol([]int64{20, 30, 10}), 0)
	jrOrdered := bat.New("jo", bat.NewOIDCol([]bat.OID{0, 1, 2, 5}), bat.NewIntCol([]int64{10, 20, 30, 60}), bat.HOrdered|bat.HKey)
	jrDense := bat.New("jd", bat.NewVoid(0, 3), bat.NewIntCol([]int64{10, 20, 30}), 0)
	dvl := bat.New("dl", heads, bat.NewOIDCol([]bat.OID{100, 163, 120, 101, 140, 100}), 0)
	mergeL := bat.New("ml", heads, bat.NewOIDCol([]bat.OID{0, 0, 1, 1, 2, 2}), bat.TOrdered)
	syncR := bat.New("sr", bat.NewOIDCol([]bat.OID{3, 1, 2}), bat.NewIntCol([]int64{7, 8, 9}), bat.HKey)
	syncL := bat.New("sl", bat.NewIntCol([]int64{5, 6, 7}), syncR.H, 0)

	for _, c := range []struct {
		variant string
		d       *bat.BAT // the operand whose BUNs the result keeps
		run     func(ctx *Ctx) *bat.BAT
	}{
		{"scan-select", b, func(ctx *Ctx) *bat.BAT { return SelectRange(ctx, b, &lo, &hi, true, true) }},
		{"binsearch-select", sortedB, func(ctx *Ctx) *bat.BAT { return SelectRange(ctx, sortedB, &lo, &hi, true, true) }},
		{"sync-semijoin", b, func(ctx *Ctx) *bat.BAT {
			return Semijoin(ctx, b, bat.New("r", b.H, bat.NewVoid(0, b.Len()), 0))
		}},
		{"alias-semijoin", index, func(ctx *Ctx) *bat.BAT {
			return Semijoin(ctx, index, bat.New("r", bat.NewVoid(0, 3), bat.NewVoid(0, 3), 0))
		}},
		{"merge-semijoin", ordL, func(ctx *Ctx) *bat.BAT { return Semijoin(ctx, ordL, ordered) }},
		{"hash-semijoin", b, func(ctx *Ctx) *bat.BAT { return Semijoin(ctx, b, wider) }},
		{"aligned-multiplex", b, func(ctx *Ctx) *bat.BAT {
			return Multiplex(ctx, "+", []Operand{BATArg(b), BATArg(bat.New("x", b.H, ints, 0))})
		}},
		{"hash-multiplex", b, func(ctx *Ctx) *bat.BAT {
			return Multiplex(ctx, "+", []Operand{BATArg(b), BATArg(bat.New("x", copyB.H, ints, 0))})
		}},
		{"dense-group", b, func(ctx *Ctx) *bat.BAT { return GroupUnary(ctx, b) }},
		{"dense-group", grp, func(ctx *Ctx) *bat.BAT { return GroupBinary(ctx, grp, bat.New("x", grp.H, ints, 0)) }},
		{"fetch-join", jl, func(ctx *Ctx) *bat.BAT { return Join(ctx, jl, jrDense) }},
		{"hash-join", jl, func(ctx *Ctx) *bat.BAT { return Join(ctx, jl, jr) }},
		{"merge-join", mergeL, func(ctx *Ctx) *bat.BAT { return Join(ctx, mergeL, jrOrdered) }},
		{"datavector-join", dvl, func(ctx *Ctx) *bat.BAT { return Join(ctx, dvl, dvAttr(64)) }},
		{"sync-join", syncL, func(ctx *Ctx) *bat.BAT { return Join(ctx, syncL, syncR) }},
	} {
		ctx := &Ctx{}
		out := c.run(ctx)
		if ctx.LastAlgo() != c.variant {
			t.Fatalf("%s: ran %q", c.variant, ctx.LastAlgo())
		}
		if out.Len() != c.d.Len() || !bat.Synced(out, c.d) {
			t.Errorf("%s: %d of %d BUNs, synced %v; want every BUN, synced", c.variant, out.Len(), c.d.Len(), bat.Synced(out, c.d))
		}
	}

	// An empty operand: each operator keeps all of its no BUNs, and empty
	// heads of one kind are one column, whether or not the result hands
	// on the operand's head object.
	for _, d := range []*bat.BAT{
		bat.New("e", bat.NewOIDCol(nil), bat.NewIntCol(nil), 0),
		bat.New("e", bat.NewVoid(100, 0), bat.NewIntCol(nil), 0),
	} {
		other := bat.New("x", bat.NewOIDCol(nil), bat.NewIntCol(nil), 0)
		dj := bat.New("ej", d.H, bat.NewOIDCol(nil), 0)
		for _, c := range []struct {
			name string
			run  func(ctx *Ctx) *bat.BAT
		}{
			{"select", func(ctx *Ctx) *bat.BAT { return SelectRange(ctx, d, &lo, &hi, true, true) }},
			{"semijoin", func(ctx *Ctx) *bat.BAT { return Semijoin(ctx, d, wider) }},
			{"multiplex", func(ctx *Ctx) *bat.BAT { return Multiplex(ctx, "+", []Operand{BATArg(d), BATArg(other)}) }},
			{"group", func(ctx *Ctx) *bat.BAT { return GroupUnary(ctx, d) }},
			{"join", func(ctx *Ctx) *bat.BAT { return Join(ctx, dj, jr) }},
			{"datavector-join", func(ctx *Ctx) *bat.BAT { return Join(ctx, dj, dvAttr(64)) }},
		} {
			ctx := &Ctx{}
			if out := c.run(ctx); out.Len() != 0 || !bat.Synced(out, d) {
				t.Errorf("empty %s %s (%s): %d BUNs, synced %v; want none, synced",
					d.H.Kind(), c.name, ctx.LastAlgo(), out.Len(), bat.Synced(out, d))
			}
		}
	}
}

// TestSyncJoinByIdentityTouchesNothing: a sync-join whose join columns are
// one column reads neither and touches nothing; proven by sameOIDs' scan
// over two equal arrays, it touches both.
func TestSyncJoinByIdentityTouchesNothing(t *testing.T) {
	const n = 4096
	oids := make([]bat.OID, n)
	for i := range oids {
		oids[i] = bat.OID(n - i)
	}
	r := bat.New("r", bat.NewOIDCol(oids), bat.NewVoid(0, n), bat.HKey)
	r.Persist()
	copied := bat.NewOIDCol(append([]bat.OID(nil), oids...))
	copied.Persist()
	for _, c := range []struct {
		name    string
		l       *bat.BAT
		touches bool
	}{
		{"identity", bat.New("l", bat.NewVoid(0, n), r.H, 0), false},
		{"scan", bat.New("l", bat.NewVoid(0, n), copied, 0), true},
	} {
		ctx := NewCtx(nil, Options{Pager: storage.NewPager(4096, 0)})
		out := Join(ctx, c.l, r)
		if ctx.LastAlgo() != "sync-join" || out.Len() != n {
			t.Fatalf("%s: ran %q, %d rows", c.name, ctx.LastAlgo(), out.Len())
		}
		if touched := ctx.PageFaults()+ctx.PageHits() > 0; touched != c.touches {
			t.Errorf("%s: touched %v, want %v", c.name, touched, c.touches)
		}
	}
}
