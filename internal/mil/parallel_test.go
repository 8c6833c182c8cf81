package mil

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bat"
)

// TestRangesPartition: a scan's morsel ranges are contiguous, complete and
// non-overlapping, and there are at least as many as workers (whenever
// there are as many rows).
func TestRangesPartition(t *testing.T) {
	f := func(nRaw uint16, kRaw uint8) bool {
		n := int(nRaw)
		k := int(kRaw)%24 + 1
		rs := probeRanges(n, k)
		next := 0
		for _, r := range rs {
			if r[0] != next || r[1] <= r[0] {
				return false
			}
			next = r[1]
		}
		return next == n && len(rs) >= min(k, n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if got := probeRanges(0, 4); len(got) != 0 {
		t.Fatalf("probeRanges(0,4) = %v", got)
	}
}

// Parallel iteration must produce bit-identical results to sequential
// execution (Monet's parallel primitives are "relatively coarse-grained to
// preserve efficiency" and deterministic).
func TestParallelSelectMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := bat.ParallelMinRows * 2
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63n(1000)
	}
	b := bat.New("x", bat.NewVoid(0, n), bat.NewIntCol(vals), 0)
	lo, hi := bat.I(100), bat.I(300)

	seq := SelectRange(NewCtx(nil, Options{Workers: 1}), b, &lo, &hi, true, false)
	par := SelectRange(NewCtx(nil, Options{Workers: 8}), b, &lo, &hi, true, false)
	if seq.Len() != par.Len() {
		t.Fatalf("len %d vs %d", seq.Len(), par.Len())
	}
	for i := 0; i < seq.Len(); i++ {
		if !bat.Equal(seq.HeadValue(i), par.HeadValue(i)) ||
			!bat.Equal(seq.TailValue(i), par.TailValue(i)) {
			t.Fatalf("row %d differs", i)
		}
	}
}

func TestParallelMultiplexMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	n := bat.ParallelMinRows * 2
	a := make([]float64, n)
	c := make([]float64, n)
	for i := range a {
		a[i] = rng.Float64() * 100
		c[i] = rng.Float64()
	}
	// use strings to force the boxed (non-fast-path) loop
	strs := make([]string, n)
	for i := range strs {
		if rng.Intn(2) == 0 {
			strs[i] = "PROMO X"
		} else {
			strs[i] = "STANDARD Y"
		}
	}
	sb := bat.New("s", bat.NewVoid(0, n), bat.NewStrColFromStrings(strs), 0)
	seq := Multiplex(NewCtx(nil, Options{Workers: 1}), "strstarts", []Operand{BATArg(sb), ConstArg(bat.S("PROMO"))})
	par := Multiplex(NewCtx(nil, Options{Workers: 8}), "strstarts", []Operand{BATArg(sb), ConstArg(bat.S("PROMO"))})
	for i := 0; i < n; i++ {
		if seq.TailValue(i).Bool() != par.TailValue(i).Bool() {
			t.Fatalf("row %d differs", i)
		}
	}
}

func TestSmallInputsStaySequential(t *testing.T) {
	if got := workersFor(NewCtx(nil, Options{Workers: 8}), 10); got != 1 {
		t.Fatalf("workersFor(10) = %d", got)
	}
	if got := workersFor(NewCtx(nil, Options{Workers: 8}), bat.ParallelMinRows); got != 8 {
		t.Fatalf("workersFor(min) = %d", got)
	}
	if got := workersFor(nil, bat.ParallelMinRows); got != 1 {
		t.Fatalf("nil ctx workers = %d", got)
	}
}
