package mil

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/bat"
)

// pairSet renders a join result as an order-insensitive set of
// (head, tail) pairs for parity comparison across variants.
func pairSet(b *bat.BAT) []string {
	out := make([]string, b.Len())
	for i := range out {
		out[i] = fmt.Sprintf("%s|%s", b.HeadValue(i), b.TailValue(i))
	}
	sort.Strings(out)
	return out
}

func samePairs(t *testing.T, got, want *bat.BAT) {
	t.Helper()
	g, w := pairSet(got), pairSet(want)
	if len(g) != len(w) {
		t.Fatalf("cardinality %d != %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("pair %d: %s != %s", i, g[i], w[i])
		}
	}
}

// TestJoinRedetectsStrippedTailOrder: a join whose left tail is ordered but
// whose Props were stripped (the fate of most intermediates) must recover
// the ordering at dispatch time and take the merge variant — with results
// identical to the hash fallback.
func TestJoinRedetectsStrippedTailOrder(t *testing.T) {
	l := oidIntBAT("l", []bat.OID{9, 3, 7, 1}, []int64{10, 20, 20, 40}, 0)
	r := bat.New("r", bat.NewIntCol([]int64{10, 15, 20, 40, 45}),
		bat.NewOIDCol([]bat.OID{100, 101, 102, 103, 104}), 0)

	ctx := &Ctx{}
	out := Join(ctx, l, r)
	if ctx.LastAlgo() != "merge-join" {
		t.Fatalf("algo = %s, want merge-join (ordered props not re-detected?)", ctx.LastAlgo())
	}

	l2 := oidIntBAT("l2", []bat.OID{9, 3, 7, 1}, []int64{10, 20, 20, 40}, 0)
	r2 := bat.New("r2", bat.NewIntCol([]int64{10, 15, 20, 40, 45}),
		bat.NewOIDCol([]bat.OID{100, 101, 102, 103, 104}), 0)
	ref := hashJoin(&Ctx{}, l2, r2)
	samePairs(t, out, ref)
}

// TestJoinRedetectsDenseHead: a right head that is a dense oid run stored in
// a materialized OIDCol (so HDense was stripped) should be re-detected and
// served by the positional fetch variant.
func TestJoinRedetectsDenseHead(t *testing.T) {
	l := bat.New("l", bat.NewOIDCol([]bat.OID{1, 2, 3}),
		bat.NewOIDCol([]bat.OID{5, 6, 8}), 0)
	r := bat.New("r", bat.NewOIDCol([]bat.OID{5, 6, 7, 8}),
		bat.NewIntCol([]int64{50, 60, 70, 80}), 0)

	ctx := &Ctx{}
	out := Join(ctx, l, r)
	if ctx.LastAlgo() != "fetch-join" {
		t.Fatalf("algo = %s, want fetch-join (dense head not re-detected?)", ctx.LastAlgo())
	}

	l2 := bat.New("l2", bat.NewOIDCol([]bat.OID{1, 2, 3}),
		bat.NewOIDCol([]bat.OID{5, 6, 8}), 0)
	r2 := bat.New("r2", bat.NewOIDCol([]bat.OID{5, 6, 7, 8}),
		bat.NewIntCol([]int64{50, 60, 70, 80}), 0)
	ref := hashJoin(&Ctx{}, l2, r2)
	samePairs(t, out, ref)
}

// TestJoinUnorderedStaysHash: detection must not misfire — an actually
// unordered operand keeps the hash variant, and the (memoized) negative
// scan result does not flip later dispatches.
func TestJoinUnorderedStaysHash(t *testing.T) {
	l := oidIntBAT("l", []bat.OID{1, 2, 3}, []int64{30, 10, 20}, 0)
	r := bat.New("r", bat.NewIntCol([]int64{20, 10, 30}),
		bat.NewOIDCol([]bat.OID{7, 8, 9}), 0)
	for i := 0; i < 2; i++ {
		ctx := &Ctx{}
		out := Join(ctx, l, r)
		if ctx.LastAlgo() != "hash-join" {
			t.Fatalf("round %d: algo = %s, want hash-join", i, ctx.LastAlgo())
		}
		if out.Len() != 3 {
			t.Fatalf("round %d: %d pairs, want 3", i, out.Len())
		}
	}
}

// TestSemijoinRedetectsStrippedHeadOrder: both semijoin heads ordered but
// stripped — the merge variant must be recovered, with hash parity.
func TestSemijoinRedetectsStrippedHeadOrder(t *testing.T) {
	l := bat.New("l", bat.NewOIDCol([]bat.OID{2, 4, 6, 9}),
		bat.NewIntCol([]int64{20, 40, 60, 90}), 0)
	r := bat.New("r", bat.NewOIDCol([]bat.OID{4, 9, 12}),
		bat.NewIntCol([]int64{0, 0, 0}), 0)

	ctx := &Ctx{}
	out := Semijoin(ctx, l, r)
	if ctx.LastAlgo() != "merge-semijoin" {
		t.Fatalf("algo = %s, want merge-semijoin", ctx.LastAlgo())
	}

	l2 := bat.New("l2", bat.NewOIDCol([]bat.OID{2, 4, 6, 9}),
		bat.NewIntCol([]int64{20, 40, 60, 90}), 0)
	r2 := bat.New("r2", bat.NewOIDCol([]bat.OID{4, 9, 12}),
		bat.NewIntCol([]int64{0, 0, 0}), 0)
	ref := hashSemijoin(&Ctx{}, l2, r2)
	samePairs(t, out, ref)
}

// TestJoinCapFeedsBackHeadKey: the hash accelerator's cardinality count
// proves head uniqueness; the dispatch layer records it on the operand so
// later property propagation benefits.
func TestJoinCapFeedsBackHeadKey(t *testing.T) {
	// Unordered duplicate-free head: not detectable by the order scan,
	// only by the accelerator.
	r := bat.New("r", bat.NewIntCol([]int64{30, 10, 20}),
		bat.NewOIDCol([]bat.OID{7, 8, 9}), 0)
	l := oidIntBAT("l", []bat.OID{1, 2}, []int64{20, 30}, 0)
	_ = Join(&Ctx{}, l, r)
	if !r.KnownProps().Has(bat.HKey) {
		t.Fatalf("accelerator proved head keyness but it was not fed back: %s", r.KnownProps())
	}
}

// TestRedetectedPropsAreSound: everything detection claims must survive the
// kernel's own property verifier.
func TestRedetectedPropsAreSound(t *testing.T) {
	cases := []*bat.BAT{
		bat.New("dup-ordered", bat.NewOIDCol([]bat.OID{1, 1, 2}), bat.NewIntCol([]int64{5, 5, 7}), 0),
		bat.New("strict", bat.NewOIDCol([]bat.OID{3, 5, 9}), bat.NewFltCol([]float64{1.5, 2.5, 9}), 0),
		bat.New("dense", bat.NewOIDCol([]bat.OID{4, 5, 6}), bat.NewStrColFromStrings([]string{"a", "b", "b"}), 0),
		bat.New("unordered", bat.NewOIDCol([]bat.OID{4, 2, 6}), bat.NewIntCol([]int64{9, 1, 5}), 0),
	}
	for _, b := range cases {
		b.DetectHeadProps()
		b.DetectTailProps()
		nb := bat.New(b.Name, b.H, b.T, b.KnownProps())
		if err := nb.CheckProps(); err != nil {
			t.Errorf("%s: re-detected properties are unsound: %v", b.Name, err)
		}
	}
	// NaN has no place in a total order, so a tail holding one supports no
	// order or key claim — whatever its length or the NaN's position (the
	// one-row column used to slip past the check).
	nan := math.NaN()
	for _, tail := range [][]float64{{nan}, {nan, 1}, {1, nan}, {1, nan, 2}} {
		heads := []bat.OID{1, 2, 3}[:len(tail)]
		b := bat.New("nan", bat.NewOIDCol(heads), bat.NewFltCol(tail), 0)
		if p := b.DetectTailProps(); p&(bat.TOrdered|bat.TKey|bat.TDense) != 0 {
			t.Errorf("tail %v: detection claims %s", tail, p)
		}
	}
}
