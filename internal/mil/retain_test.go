package mil

import (
	"testing"

	"repro/internal/bat"
)

// Materialize-on-retain: a kept result that is a small zero-copy view must
// be unshared from its operand before it outlives the plan — otherwise a
// 10-row slice of a million-row base column (or, under epochs, of a retired
// epoch's column) pins the whole backing array for the result's lifetime.

func retainEnv(rows int) Env {
	v := make([]int64, rows)
	for i := range v {
		v[i] = int64(i)
	}
	return Env{"big": bat.New("big", bat.NewVoid(0, rows), bat.NewIntCol(v), 0)}
}

func runSlice(t *testing.T, rows, n int) (*bat.BAT, *Ctx) {
	t.Helper()
	ctx := &Ctx{}
	p := &Program{
		Stmts: []Stmt{{Dst: "t", Op: OpSlice, N: n, Args: []StmtArg{VarArg("big")}}},
		Keep:  []string{"t"},
	}
	scope := NewScope(retainEnv(rows), len(p.Stmts))
	if _, err := runScope(ctx, p, scope); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := scope.Vars["t"]
	if out == nil || out.Len() != n {
		t.Fatalf("kept result missing or wrong length: %v", out)
	}
	return out, ctx
}

func TestKeptSmallViewMaterialized(t *testing.T) {
	out, ctx := runSlice(t, 100_000, 10)
	if out.Shared() {
		t.Fatal("kept 10-row slice is still a view over the 100k-row operand")
	}
	// The copy is accounted at its own size, not the view's zero.
	if want := out.OwnedByteSize(); ctx.LiveBytes != want || want == 0 {
		t.Fatalf("live bytes = %d, want the copy's %d", ctx.LiveBytes, want)
	}
}

func TestKeptLargeViewStaysView(t *testing.T) {
	n := MaterializeRetainRows + 1
	out, ctx := runSlice(t, MaterializeRetainRows*4, n)
	if !out.Shared() {
		t.Fatalf("kept %d-row slice was copied; above the threshold it should stay a view", n)
	}
	if ctx.LiveBytes != 0 {
		t.Fatalf("view accounted %d live bytes, want 0 (backing owned by operand)", ctx.LiveBytes)
	}
}

// TestUnshareColumnKinds covers every concrete column type, including the
// string heap compaction (the copy's character heap must hold only the
// referenced substrings, not the operand's whole heap).
func TestUnshareColumnKinds(t *testing.T) {
	strs := make([]string, 1000)
	for i := range strs {
		strs[i] = "padding-padding-padding"
	}
	strs[0], strs[1] = "aa", "bb"
	cols := []bat.Column{
		bat.NewOIDCol([]bat.OID{1, 2, 3, 4}),
		bat.NewIntCol([]int64{1, 2, 3, 4}),
		bat.NewFltCol([]float64{1, 2, 3, 4}),
		bat.NewChrCol([]byte{'a', 'b', 'c', 'd'}),
		bat.NewBitCol([]bool{true, false, true, false}),
		bat.NewDateCol([]int32{1, 2, 3, 4}),
		bat.NewStrColFromStrings(strs),
	}
	for _, col := range cols {
		// A materialized column is returned unchanged.
		if got := bat.UnshareColumn(col); got != col {
			t.Errorf("%T: unshare of an owning column must be identity", col)
		}
		view := bat.SliceView(col, 0, 2)
		if view.OwnedBytes() != 0 {
			t.Fatalf("%T: SliceView owns bytes", col)
		}
		copied := bat.UnshareColumn(view)
		if copied == view {
			t.Errorf("%T: view not copied", col)
			continue
		}
		if copied.OwnedBytes() == 0 || copied.Len() != 2 {
			t.Errorf("%T: copy owns %d bytes len %d", col, copied.OwnedBytes(), copied.Len())
		}
		for i := 0; i < 2; i++ {
			if bat.Compare(copied.Get(i), view.Get(i)) != 0 {
				t.Errorf("%T: copy[%d] = %s, want %s", col, i, copied.Get(i), view.Get(i))
			}
		}
	}
	// String compaction: a 2-row view over ~23KB of characters must shrink
	// to the 4 bytes of "aa"+"bb" (plus offsets).
	sv := bat.SliceView(cols[len(cols)-1], 0, 2)
	compact := bat.UnshareColumn(sv).(*bat.StrCol)
	if got := len(compact.Chars); got != 4 {
		t.Errorf("compacted char heap = %d bytes, want 4", got)
	}
	// Void columns never need unsharing.
	v := bat.NewVoid(5, 3)
	if bat.UnshareColumn(v) != bat.Column(v) {
		t.Error("void column must be identity under unshare")
	}
}
