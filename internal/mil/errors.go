package mil

import (
	"fmt"
	"sync/atomic"
)

// Query-lifecycle error model of the interpreter, and the audit of the
// kernel/interpreter panic sites it rests on.
//
// The serving regime (internal/server) cannot afford a panic escaping one
// query: it would kill every concurrent session. The panic sites in
// internal/bat and internal/mil were audited and fall into two classes:
//
//  1. Reachable from a user-supplied program (MOA via the server, MIL via
//     cmd/milrun): unknown multiplex/calc function names, arity mismatches,
//     multiplex with no BAT operand, unknown aggregate names. These are now
//     REJECTED by validateStmt before the operator runs and surface as
//     *UserError — the server maps them to HTTP 400. The panics behind them
//     (multiplex.go:35,48,51, funcs.go:146,149 CallFunc, aggregate.go:60,
//     373) remain as invariant checks: with validation at the interpreter
//     boundary they are unreachable from user input, so firing one means a
//     translator or kernel bug.
//
//  2. Genuine invariant violations, kept as panics: BAT head/tail length
//     mismatch (bat.go:115), datavector extent/vector mismatch
//     (datavector.go:76), unknown column kind (column.go:436), typed
//     min/max over a kind the typed scan never selects (aggregate.go:411 —
//     the boxed fallback handles str/bit/oid), MustDate on bad literals
//     (value.go:124 — compiled-in literals only). If one fires during a
//     served query, the per-statement recovery boundary in runScope
//     converts it into a *PanicError (op trace + stack attached) rather
//     than letting it unwind the process; the engine wraps that as a typed
//     internal error and the server quarantines the offending cached plan.

// UserError marks an execution-time failure attributable to the submitted
// program rather than to the engine: the request was well-formed enough to
// parse and translate, but asks for something the algebra cannot do. The
// HTTP layer maps it to 400, not 500.
type UserError struct{ Msg string }

func (e *UserError) Error() string { return e.Msg }

// userErrf builds a *UserError.
func userErrf(format string, args ...any) error {
	return &UserError{Msg: fmt.Sprintf(format, args...)}
}

// PanicError is a panic during one statement's execution, contained at the
// interpreter's recovery boundary and converted into an error carrying the
// op trace: the statement that blew up, the original panic value, and the
// stack at the point of panic (the worker's stack when the panic happened
// on a parallel worker goroutine).
type PanicError struct {
	Index int    // statement index in the program
	Stmt  string // rendered MIL statement
	Value any    // original panic value
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic in stmt %d (%s): %v", e.Index, e.Stmt, e.Value)
}

// execHook is the interpreter's fault-injection point: when set, it runs
// before every statement (one atomic load per statement when unset). The
// chaos suite installs hooks that panic, sleep or cancel at chosen
// statements; production code never sets it.
type ExecHookFunc func(index int, op string)

var execHook atomic.Pointer[ExecHookFunc]

// SetExecHook installs (or, with nil, removes) the per-statement hook.
// Test-only: the hook runs on the interpreter goroutine of every live
// query, so installing one while queries run is safe but affects them all.
func SetExecHook(h ExecHookFunc) {
	if h == nil {
		execHook.Store(nil)
		return
	}
	execHook.Store(&h)
}

// validateStmt rejects, before execution, the statement shapes that would
// otherwise reach a class-1 panic site (see the audit above): they are
// user-program errors, not engine invariants.
func validateStmt(s *Stmt) error {
	switch s.Op {
	case OpMultiplex, OpCalc:
		f, ok := LookupFunc(s.Fn)
		if !ok {
			return userErrf("unknown function %q", s.Fn)
		}
		if f.Arity >= 0 && f.Arity != len(s.Args) {
			return userErrf("function %q wants %d args, got %d", s.Fn, f.Arity, len(s.Args))
		}
		if s.Op == OpMultiplex {
			hasBAT := false
			for _, a := range s.Args {
				if a.Var != "" {
					hasBAT = true
					break
				}
			}
			if !hasBAT {
				return userErrf("multiplex [%s] needs at least one BAT operand", s.Fn)
			}
		}
	case OpAggr, OpAggrScalar:
		switch s.Fn {
		case "count", "sum", "avg", "min", "max":
		default:
			return userErrf("unknown aggregate %q", s.Fn)
		}
	}
	return nil
}
