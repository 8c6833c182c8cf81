package mil

import (
	"context"
	"errors"
	"testing"

	"repro/internal/bat"
)

// TestValidateStmtUserErrors: the statement shapes that used to reach a
// kernel panic from a user-supplied program (unknown multiplex/calc/aggr
// functions, arity mismatches, multiplex without a BAT operand) are
// rejected before execution as *UserError — the server maps these to 400,
// so none of them may surface as a panic or an internal error.
func TestValidateStmtUserErrors(t *testing.T) {
	env := buildQ13Env()
	cases := []struct {
		name string
		stmt Stmt
	}{
		{"unknown multiplex fn", Stmt{Dst: "x", Op: OpMultiplex, Fn: "no_such_fn",
			Args: []StmtArg{VarArg("Item_discount")}}},
		{"multiplex arity", Stmt{Dst: "x", Op: OpMultiplex, Fn: "year",
			Args: []StmtArg{VarArg("Order_orderdate"), VarArg("Item_discount")}}},
		{"multiplex no BAT operand", Stmt{Dst: "x", Op: OpMultiplex, Fn: "+",
			Args: []StmtArg{LitArg(bat.I(1)), LitArg(bat.I(2))}}},
		{"unknown calc fn", Stmt{Dst: "x", Op: OpCalc, Fn: "no_such_fn",
			Args: []StmtArg{LitArg(bat.I(1))}}},
		{"unknown aggregate", Stmt{Dst: "x", Op: OpAggr, Fn: "median",
			Args: []StmtArg{VarArg("Item_discount")}}},
		{"unknown scalar aggregate", Stmt{Dst: "x", Op: OpAggrScalar, Fn: "median",
			Args: []StmtArg{VarArg("Item_discount")}}},
	}
	for _, tc := range cases {
		prog := &Program{Stmts: []Stmt{tc.stmt}, Keep: []string{"x"}}
		_, _, err := Exec(nil, prog, env)
		var ue *UserError
		if !errors.As(err, &ue) {
			t.Errorf("%s: got %v, want *UserError", tc.name, err)
		}
	}
}

// TestExecHookPanicContained: a panic during a statement — here injected
// through the test hook, standing in for a kernel invariant failure — is
// converted by the interpreter's recovery boundary into a *PanicError
// carrying the op trace, never an unwound goroutine.
func TestExecHookPanicContained(t *testing.T) {
	SetExecHook(func(i int, op string) {
		if op == OpJoin {
			panic("injected kernel fault")
		}
	})
	defer SetExecHook(nil)

	_, _, err := Exec(nil, q13Program(), buildQ13Env())
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want *PanicError", err)
	}
	if pe.Value != "injected kernel fault" || pe.Stmt == "" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError lost its trace: %+v", pe)
	}
}

// TestCancelAtOperatorBoundary: a context cancelled mid-program stops the
// interpreter at the next statement boundary with the context's own error.
func TestCancelAtOperatorBoundary(t *testing.T) {
	qctx, cancel := context.WithCancel(context.Background())
	ran := 0
	SetExecHook(func(i int, op string) {
		ran++
		if i == 2 {
			cancel() // observed at the stmt-3 boundary check
		}
	})
	defer SetExecHook(nil)

	ctx := &Ctx{Context: qctx}
	_, _, err := Exec(ctx, q13Program(), buildQ13Env())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if ran != 3 {
		t.Fatalf("%d statements started after cancel at stmt 2, want 3", ran)
	}
}

// TestCancelStopsParallelDispatch: with parallel workers, a cancellation
// that lands while a data-parallel operator is mid-flight aborts through
// the morsel stop hook (bat.ErrAborted → context error), not by finishing
// the scan.
func TestCancelStopsParallelDispatch(t *testing.T) {
	qctx, cancel := context.WithCancel(context.Background())
	cancel() // already dead when the first operator dispatches

	ctx := NewCtx(qctx, Options{Workers: 4})
	_, _, err := Exec(ctx, q13Program(), buildQ13Env())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}
