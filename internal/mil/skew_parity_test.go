package mil

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/bat"
)

// Skew-parity suite: morsel-driven scheduling must be bit-identical to
// sequential execution exactly on the inputs it exists for — skewed key
// distributions where one range per worker would leave workers idle. Each
// input shape runs join, semijoin, diff, group, grouped aggregation and
// unique under sequential and morsel-claimed schedules (several morsel
// sizes, including degenerate tiny morsels) and compares
// results BUN by BUN. `make verify` runs this suite under -race as well,
// so claim-counter races would surface here.

// skewCtxs are the schedules under test: the baseline, the skew-aware
// default, and explicit morsel sizes down to degenerate.
func skewCtxs() map[string]*Ctx {
	return map[string]*Ctx{
		"seq":          NewCtx(nil, Options{Workers: 1}),
		"morsel-w8":    NewCtx(nil, Options{Workers: 8}),
		"morsel-w3-1k": NewCtx(nil, Options{Workers: 3, MorselRows: 1024}),
		"morsel-w8-64": NewCtx(nil, Options{Workers: 8, MorselRows: 64}),
	}
}

// skewKeys generates the adversarial key shapes, all sized past
// parallelMinRows so parallel iteration actually engages.
func skewKeys(t *testing.T) map[string][]int64 {
	t.Helper()
	n := parallelMinRows * 2
	rng := rand.New(rand.NewSource(71))
	zipf := rand.NewZipf(rng, 1.2, 1, 1<<12)

	shapes := make(map[string][]int64, 4)

	z := make([]int64, n)
	for i := range z {
		z[i] = int64(zipf.Uint64())
	}
	shapes["zipf"] = z

	// tail-ordered Zipf: duplicates cluster contiguously — the layout that
	// defeats a per-worker split hardest (attribute BATs are stored sorted).
	zs := append([]int64(nil), z...)
	sort.Slice(zs, func(i, j int) bool { return zs[i] < zs[j] })
	shapes["zipf-sorted"] = zs

	one := make([]int64, n)
	for i := range one {
		one[i] = 7
	}
	shapes["all-one-key"] = one

	// adversarial clustering: one hot key fills the first half (a single
	// static range carries all duplicate work), distinct keys fill the rest.
	half := make([]int64, n)
	for i := range half {
		if i < n/2 {
			half[i] = 1
		} else {
			half[i] = int64(i)
		}
	}
	shapes["half-hot"] = half

	return shapes
}

// assertSameBAT compares two BATs BUN by BUN.
func assertSameBAT(t *testing.T, label string, got, want *bat.BAT) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: len %d, want %d", label, got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if !bat.Equal(got.HeadValue(i), want.HeadValue(i)) ||
			!bat.Equal(got.TailValue(i), want.TailValue(i)) {
			t.Fatalf("%s: BUN %d = [%s,%s], want [%s,%s]", label, i,
				got.HeadValue(i), got.TailValue(i), want.HeadValue(i), want.TailValue(i))
		}
	}
}

func TestSkewParityOperators(t *testing.T) {
	for shape, keys := range skewKeys(t) {
		n := len(keys)
		// probe side: [void | keys] — the hot rows sit where the shape puts
		// them; build side: every even key once (half the probes miss).
		l := bat.New("l", bat.NewVoid(0, n), bat.NewIntCol(keys), 0)
		rvals := make([]int64, 0, n/2)
		for i := 0; i < n; i += 2 {
			rvals = append(rvals, int64(i))
		}
		r := bat.New("r", bat.NewIntCol(rvals), bat.NewVoid(0, len(rvals)), bat.HKey)
		// head-keyed variants for semijoin/diff/unique (probe on heads)
		lh := bat.New("lh", bat.NewIntCol(keys), bat.NewVoid(0, n), 0)
		// float tails make aggregation order-sensitive: bit-identity of
		// parallel float sums is part of the contract.
		fv := make([]float64, n)
		rng := rand.New(rand.NewSource(5))
		for i := range fv {
			fv[i] = rng.Float64()*1000 - 500
		}
		gb := bat.New("gb", bat.NewIntCol(keys), bat.NewFltCol(fv), 0)

		type result struct {
			name string
			run  func(*Ctx) *bat.BAT
		}
		ops := []result{
			{"join", func(c *Ctx) *bat.BAT { defer l.DropHashes(); defer r.DropHashes(); return Join(c, l, r) }},
			{"semijoin", func(c *Ctx) *bat.BAT { defer lh.DropHashes(); defer r.DropHashes(); return Semijoin(c, lh, r) }},
			{"diff", func(c *Ctx) *bat.BAT { defer lh.DropHashes(); defer r.DropHashes(); return Diff(c, lh, r) }},
			{"group", func(c *Ctx) *bat.BAT { return GroupUnary(c, l) }},
			{"unique", func(c *Ctx) *bat.BAT { return Unique(c, lh) }},
			{"aggr-sum", func(c *Ctx) *bat.BAT { return Aggr(c, "sum", gb) }},
			{"aggr-avg", func(c *Ctx) *bat.BAT { return Aggr(c, "avg", gb) }},
			{"aggr-min", func(c *Ctx) *bat.BAT { return Aggr(c, "min", gb) }},
			// Keys of small span group by direct index, sequentially, in the
			// operators above; these run the radix-partitioned grouper on
			// every shape.
			{"hash-group", func(c *Ctx) *bat.BAT { return hashGroupBAT(c, l) }},
			{"hash-unique", func(c *Ctx) *bat.BAT { return hashUnique(c, lh) }},
			{"hash-aggr-sum", func(c *Ctx) *bat.BAT { return hashAggrBAT(c, "sum", gb) }},
			{"hash-aggr-avg", func(c *Ctx) *bat.BAT { return hashAggrBAT(c, "avg", gb) }},
			{"hash-aggr-min", func(c *Ctx) *bat.BAT { return hashAggrBAT(c, "min", gb) }},
		}
		for _, op := range ops {
			want := op.run(NewCtx(nil, Options{Workers: 1}))
			for name, ctx := range skewCtxs() {
				got := op.run(ctx)
				assertSameBAT(t, fmt.Sprintf("%s/%s/%s", shape, op.name, name), got, want)
			}
		}
	}
}

// hashGroupBAT is GroupUnary(b) through the grouper, whatever b's key span.
func hashGroupBAT(ctx *Ctx, b *bat.BAT) *bat.BAT {
	out := make([]bat.OID, b.Len())
	return groupResult(b, bat.NewGroupIDs(out, hashRows(ctx, "group", out, b.T), b.T))
}

// hashUnique is Unique(b) through the grouper, whatever b's key span.
func hashUnique(ctx *Ctx, b *bat.BAT) *bat.BAT {
	return gatherPositions(ctx, b.Name+".uniq", b, hashRows(ctx, "unique", nil, b.H, b.T))
}

// hashAggrBAT is Aggr(fn, b) over b's unordered head through the grouper,
// whatever the head's span.
func hashAggrBAT(ctx *Ctx, fn string, b *bat.BAT) *bat.BAT {
	f := newSlotFold(b.T, fn)
	first := hashAggr(ctx, f, b.H)
	return aggrResult(fn, b, f.tail(len(first)), first)
}

// TestSkewParitySelect covers the parallelCollect32 path (scan-select) on the
// clustered shapes.
func TestSkewParitySelect(t *testing.T) {
	for shape, keys := range skewKeys(t) {
		b := bat.New("b", bat.NewVoid(0, len(keys)), bat.NewIntCol(keys), 0)
		lo, hi := bat.I(1), bat.I(1<<11)
		want := SelectRange(NewCtx(nil, Options{Workers: 1}), b, &lo, &hi, true, true)
		for name, ctx := range skewCtxs() {
			got := SelectRange(ctx, b, &lo, &hi, true, true)
			assertSameBAT(t, shape+"/select/"+name, got, want)
		}
	}
}

// TestMorselRowsKnob pins the knob semantics: zero = skew-aware default with
// a stealable tail, positive = explicit.
func TestMorselRowsKnob(t *testing.T) {
	n := parallelMinRows * 4
	k := 8
	if got := len(probeRanges(NewCtx(nil, Options{Workers: k}), n, k)); got < k*morselsPerWorker {
		t.Fatalf("auto ranges = %d, want >= %d (a stealable tail)", got, k*morselsPerWorker)
	}
	if got := len(probeRanges(NewCtx(nil, Options{Workers: k, MorselRows: 1024}), n, k)); got != n/1024 {
		t.Fatalf("explicit ranges = %d, want %d", got, n/1024)
	}
	// huge explicit morsels still yield one range per worker
	if got := len(probeRanges(NewCtx(nil, Options{Workers: k, MorselRows: n * 2}), n, k)); got != k {
		t.Fatalf("oversized-morsel ranges = %d, want %d", got, k)
	}
}
