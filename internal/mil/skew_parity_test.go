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
// unique under sequential and morsel-claimed schedules (several worker
// counts, each cutting at least morselsPerWorker morsels per worker) and
// compares results BUN by BUN. `make verify` runs this suite under -race as well,
// so claim-counter races would surface here.

// skewCtxs are the schedules under test: the baseline and three worker
// counts; at 16 workers the skew inputs cut into the smallest morsels.
func skewCtxs() map[string]*Ctx {
	return map[string]*Ctx{
		"seq":        NewCtx(nil, Options{Workers: 1}),
		"morsel-w3":  NewCtx(nil, Options{Workers: 3}),
		"morsel-w8":  NewCtx(nil, Options{Workers: 8}),
		"morsel-w16": NewCtx(nil, Options{Workers: 16}),
	}
}

// skewKeys generates the adversarial key shapes, all sized past
// bat.ParallelMinRows so parallel iteration actually engages.
func skewKeys(t *testing.T) map[string][]int64 {
	t.Helper()
	n := bat.ParallelMinRows * 2
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
			// Keys of small span group by direct index in the operators
			// above; these run the grouper, its key reps filled in
			// parallel, on every shape.
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

// TestSkewParitySelect covers the morsel loop's scan-select on the
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

// TestProbeRangesRule pins the morsel length, a function of rows and
// workers: a stealable tail of at least morselsPerWorker morsels per worker
// (the skew suite's schedules included), morsels no longer than
// defaultMorselRows on large inputs, and never fewer morsels than workers.
func TestProbeRangesRule(t *testing.T) {
	n := bat.ParallelMinRows * 4
	k := 8
	if got := len(probeRanges(n, k)); got < k*morselsPerWorker {
		t.Fatalf("ranges = %d, want >= %d (a stealable tail)", got, k*morselsPerWorker)
	}
	if got := len(probeRanges(1<<22, 2)); got != (1<<22)/defaultMorselRows {
		t.Fatalf("large-input ranges = %d, want %d", got, (1<<22)/defaultMorselRows)
	}
	if got := len(probeRanges(bat.ParallelMinRows, 64)); got != 64 {
		t.Fatalf("many-worker ranges = %d, want 64", got)
	}
	skewRows := bat.ParallelMinRows * 2
	for name, ctx := range skewCtxs() {
		if k := workersFor(ctx, skewRows); k > 1 && len(ctx.ProbeRanges(skewRows)) < k*morselsPerWorker {
			t.Fatalf("%s: %d morsels over %d rows, want >= %d", name, len(ctx.ProbeRanges(skewRows)), skewRows, k*morselsPerWorker)
		}
	}
}
