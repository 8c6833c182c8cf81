package mil

import (
	"fmt"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"repro/internal/bat"
)

// Op names for Stmt.Op. The set mirrors Fig. 4 plus the documented
// extensions (sort, slice) needed by the TPC-D suite.
const (
	OpMirror      = "mirror"
	OpSelect      = "select"      // equality select: Args = [bat, lit]
	OpSelectRange = "selectrange" // Args = [bat, lo?, hi?]; LoIncl/HiIncl
	OpSelectBit   = "selectbit"   // keep BUNs with true tail
	OpSemijoin    = "semijoin"
	OpJoin        = "join"
	OpUnique      = "unique"
	OpGroup       = "group"  // unary
	OpGroup2      = "group2" // binary refinement
	OpMultiplex   = "multiplex"
	OpAggr        = "aggr"       // set-aggregate {fn}
	OpAggrScalar  = "aggrscalar" // whole-BAT aggregate
	OpUnion       = "union"
	OpDiff        = "diff"
	OpIntersect   = "intersect"
	OpSort        = "sort" // Desc flag
	OpSlice       = "slice"
	OpJoinMulti   = "joinmulti" // composite-key join over LKeys/RKeys
	OpMark        = "mark"      // re-identify: [dense-void, head of operand]
	OpCalc        = "calc"      // scalar computation over literal/scalar args
)

// StmtArg is one operand of a statement: a variable holding a BAT, a
// literal, or a "scalar var" — a variable holding a one-BUN BAT whose single
// value is broadcast as a constant (scalar subqueries, TPC-D Q11/Q15).
type StmtArg struct {
	Var       string
	Lit       *bat.Value
	ScalarVar string
}

// VarArg references a BAT variable.
func VarArg(v string) StmtArg { return StmtArg{Var: v} }

// LitArg embeds a literal.
func LitArg(v bat.Value) StmtArg { return StmtArg{Lit: &v} }

// ScalarArg references a one-BUN BAT variable broadcast as a constant.
func ScalarArg(v string) StmtArg { return StmtArg{ScalarVar: v} }

// None is the absent bound of a half-open range select.
func None() StmtArg { return StmtArg{} }

func (a StmtArg) isNone() bool { return a.Var == "" && a.Lit == nil && a.ScalarVar == "" }

func (a StmtArg) String() string {
	switch {
	case a.Var != "":
		return a.Var
	case a.Lit != nil:
		return a.Lit.String()
	case a.ScalarVar != "":
		return "scalar(" + a.ScalarVar + ")"
	}
	return "nil"
}

// Stmt is one MIL assignment: Dst := Op(Args...).
type Stmt struct {
	Dst            string
	Op             string
	Fn             string // multiplex / aggregate function
	Args           []StmtArg
	Desc           bool // sort direction
	N              int  // slice length
	LoIncl, HiIncl bool // range-select bound inclusivity
	// LKeys/RKeys are the composite-key operands of OpJoinMulti: parallel
	// variable lists of key BATs [elemid, keyval]. The result pairs the
	// matching element ids: [left id, right id].
	LKeys, RKeys []string
}

// String renders the statement in the paper's MIL listing style (Fig. 10).
func (s Stmt) String() string {
	rhs := ""
	args := func(from, to int) string {
		parts := make([]string, 0, to-from)
		for _, a := range s.Args[from:to] {
			if !a.isNone() {
				parts = append(parts, a.String())
			}
		}
		return strings.Join(parts, ", ")
	}
	switch s.Op {
	case OpMirror:
		rhs = s.Args[0].String() + ".mirror"
	case OpSelect, OpSelectRange:
		rhs = fmt.Sprintf("select(%s)", args(0, len(s.Args)))
	case OpSelectBit:
		rhs = fmt.Sprintf("select(%s, true)", s.Args[0])
	case OpSemijoin, OpJoin, OpUnion, OpDiff, OpIntersect:
		rhs = fmt.Sprintf("%s(%s)", s.Op, args(0, len(s.Args)))
	case OpUnique:
		rhs = s.Args[0].String() + ".unique"
	case OpGroup:
		rhs = fmt.Sprintf("group(%s)", s.Args[0])
	case OpGroup2:
		rhs = fmt.Sprintf("group(%s, %s)", s.Args[0], s.Args[1])
	case OpMultiplex:
		rhs = fmt.Sprintf("[%s](%s)", s.Fn, args(0, len(s.Args)))
	case OpAggr:
		rhs = fmt.Sprintf("{%s}(%s)", s.Fn, s.Args[0])
	case OpAggrScalar:
		rhs = fmt.Sprintf("{%s}all(%s)", s.Fn, s.Args[0])
	case OpSort:
		dir := ""
		if s.Desc {
			dir = ", desc"
		}
		rhs = fmt.Sprintf("sort(%s%s)", s.Args[0], dir)
	case OpSlice:
		rhs = fmt.Sprintf("slice(%s, %d)", s.Args[0], s.N)
	case OpJoinMulti:
		rhs = fmt.Sprintf("joinmulti([%s], [%s])",
			strings.Join(s.LKeys, ","), strings.Join(s.RKeys, ","))
	case OpMark:
		rhs = fmt.Sprintf("mark(%s)", s.Args[0])
	case OpCalc:
		rhs = fmt.Sprintf("calc %s(%s)", s.Fn, args(0, len(s.Args)))
	default:
		rhs = fmt.Sprintf("%s(%s)", s.Op, args(0, len(s.Args)))
	}
	return fmt.Sprintf("%s := %s", s.Dst, rhs)
}

// Program is a straight-line MIL program: the output of the MOA→MIL
// rewriter. Keep lists the result variables referenced by the result
// structure function; the interpreter must not release them.
type Program struct {
	Stmts []Stmt
	Keep  []string
}

// String renders the whole program as a MIL listing.
func (p *Program) String() string {
	var sb strings.Builder
	for _, s := range p.Stmts {
		sb.WriteString(s.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Env maps MIL variable names to BATs: the execution environment holding
// both the persistent database BATs and the query's intermediates.
type Env map[string]*bat.BAT

// StmtTrace records the execution of one statement, matching the columns of
// the paper's Fig. 10 ("elapsed ms / faults / MIL statement") plus the
// algorithm variant the dynamic optimizer chose and the statement's
// resource profile. Faults and Hits are this query's own tracker deltas
// across the statement (never a concurrent query's), so per-statement deltas
// sum exactly to the query totals. The dispatch fields (Workers, Morsels,
// MaxShare, Sites) are populated when a dispatch of the statement engages
// more than one worker.
type StmtTrace struct {
	Index   int
	Text    string
	Elapsed time.Duration
	Faults  uint64
	Hits    uint64
	Rows    int
	Algo    string

	// OutBytes is the accounted size of the statement's result: the bytes
	// it newly owns (zero for mirrors, views and shared operand columns).
	OutBytes int64
	// AccelBuilds counts accelerator constructions this statement triggered
	// (hash-index slots) and AccelBuildNs the wall time spent inside those
	// builds.
	AccelBuilds  int
	AccelBuildNs int64
	// Workers is the largest number of workers engaged by any parallel
	// dispatch of this statement, Morsels the total morsels claimed, and
	// MaxShare the largest fraction of one dispatch's rows processed by a
	// single worker (1/Workers is perfect balance; the runtime skew
	// signal). Zero when the statement ran sequentially.
	Workers  int
	Morsels  int
	MaxShare float64
	// Sites names the parallel sites (bat.Sites) at which the statement
	// dispatched on more than one worker, in first-dispatch order. Nil
	// when it ran sequentially.
	Sites []string
	// Props are the properties the statement's result claims, and Facts
	// the grouping facts its columns carry ("h-groups=4").
	Props bat.Props
	Facts string
}

func (t StmtTrace) String() string {
	s := fmt.Sprintf("%8.3fms %6d faults %-8d rows  %-24s %s",
		float64(t.Elapsed.Microseconds())/1000.0, t.Faults, t.Rows, t.Algo, t.Text)
	if claims := t.Claims(); claims != "" {
		s += "  {" + claims + "}"
	}
	return s
}

// Claims renders the properties and grouping facts the result claims
// ("h-key,t-groups=4"), or "" when it claims none.
func (t StmtTrace) Claims() string {
	if t.Props == 0 {
		return t.Facts
	}
	return strings.TrimSuffix(t.Props.String()+","+t.Facts, ",")
}

// Exec is the single execution entry point: it runs the program in a fresh
// two-level scope whose base bindings resolve through env (shared,
// read-only — a plain Env, the engine's epoch env, anything implementing
// EnvReader) and returns the scope holding the surviving result bindings
// alongside the per-statement traces. The scope is returned even on error,
// carrying whatever bindings existed when execution stopped.
func Exec(ctx *Ctx, p *Program, env EnvReader) (*Scope, []StmtTrace, error) {
	scope := NewScope(env, len(p.Stmts))
	traces, err := runScope(ctx, p, scope)
	return scope, traces, err
}

// runScope executes the program inside a two-level scope: base BATs resolve
// through scope.Base (shared, read-only), every result lands in scope.Vars.
// It performs simple liveness analysis: a non-kept intermediate is released
// (for the Fig. 9 memory accounting) after its last use. Only Vars bindings
// are ever released, so the shared base env is structurally protected.
// MaterializeRetainRows bounds materialize-on-retain: kept results at or
// under this many rows are unshared from their operands' backing before
// they outlive the query plan. The threshold is a row count, not a byte
// size, because a string view's ByteSize includes the whole shared
// character heap — exactly the over-count materialization exists to fix.
var MaterializeRetainRows = 4096

func runScope(ctx *Ctx, p *Program, scope *Scope) ([]StmtTrace, error) {
	keep := make(map[string]bool, len(p.Keep))
	for _, k := range p.Keep {
		keep[k] = true
	}
	lastUse := make(map[string]int)
	for i, s := range p.Stmts {
		for _, a := range s.Args {
			if a.Var != "" {
				lastUse[a.Var] = i
			}
			if a.ScalarVar != "" {
				lastUse[a.ScalarVar] = i
			}
		}
		for _, k := range s.LKeys {
			lastUse[k] = i
		}
		for _, k := range s.RKeys {
			lastUse[k] = i
		}
	}

	// Results this run accounted, with the bytes charged: releasing must
	// debit exactly what was credited, no more. Mirror results are never
	// accounted (mirror is free — and mirroring a mirror returns the
	// original, possibly accounted, BAT), and a BAT bound under two names is
	// charged and released once.
	accounted := make(map[*bat.BAT]int64)

	traces := make([]StmtTrace, 0, len(p.Stmts))
	for i, s := range p.Stmts {
		// Operator-boundary cancellation check: between statements, one
		// amortized poll. Mid-statement, parallel dispatch polls per morsel
		// through the Sched.Stop hook, so a cancelled query stops within
		// one morsel either way.
		if ctx.Cancelled() {
			return traces, fmt.Errorf("stmt %d (%s): %w", i, s, ctx.CtxErr())
		}
		// Statement-boundary tracker snapshot: deltas of this query's own
		// fault/hit attribution, not the shared pool's aggregate — a
		// concurrent query's faults can never leak into this statement's
		// trace, and per-statement deltas sum exactly to the query totals.
		faults0, hits0 := ctx.PageFaults(), ctx.PageHits()
		start := time.Now()
		out, err := execStmtSafe(ctx, s, scope, i)
		if err != nil {
			return traces, fmt.Errorf("stmt %d (%s): %w", i, s, err)
		}
		elapsed := time.Since(start)
		tr := StmtTrace{
			Index: i, Text: s.String(), Elapsed: elapsed,
			Faults: ctx.PageFaults() - faults0, Hits: ctx.PageHits() - hits0,
			Rows: out.Len(), Algo: ctx.LastAlgo(), Props: out.Props, Facts: out.GroupFacts(),
		}
		if s.Op != OpMirror { // mirror is free: no materialization
			// Materialize-on-retain: a kept result that is a small view
			// would pin its operand's whole backing array — and, under
			// epochs, the retired epoch the operand belongs to — for as long
			// as the caller retains it. Copy it into compact storage of its
			// own before accounting; large views stay views, since copying
			// them would cost more memory than the sharing pins.
			if keep[s.Dst] && out.Shared() && out.Len() <= MaterializeRetainRows {
				out = out.Unshare()
			}
			if _, ok := accounted[out]; !ok {
				tr.OutBytes = chargedBytes(out, &s, scope)
				ctx.Account(tr.OutBytes)
				accounted[out] = tr.OutBytes
			}
		}
		scope.Vars[s.Dst] = out
		ctx.FillStmtProf(&tr)
		traces = append(traces, tr)
		if ctx != nil {
			ctx.lastAlgo = ""
		}
		// Release dead intermediates.
		for _, a := range s.Args {
			for _, v := range []string{a.Var, a.ScalarVar} {
				releaseIfDead(ctx, scope, keep, lastUse, accounted, v, i)
			}
		}
		for _, v := range s.LKeys {
			releaseIfDead(ctx, scope, keep, lastUse, accounted, v, i)
		}
		for _, v := range s.RKeys {
			releaseIfDead(ctx, scope, keep, lastUse, accounted, v, i)
		}
	}
	return traces, nil
}

// chargedBytes reports the backing bytes out newly owns as the result of s:
// its columns' owned bytes, less any column that is the very column object
// of an operand — a sync-join's head and tail, a group's or multiplex's
// head, a mark's tail. Such a column is base data or was charged when its
// operand was created, so, like a zero-copy view, it is charged nothing.
func chargedBytes(out *bat.BAT, s *Stmt, scope *Scope) int64 {
	var sz int64
	for _, c := range []bat.Column{out.H, out.T} {
		if !operandColumn(c, s, scope) {
			sz += c.OwnedBytes()
		}
	}
	return sz
}

// operandColumn reports whether c is a head or tail column of an operand of
// s.
func operandColumn(c bat.Column, s *Stmt, scope *Scope) bool {
	holds := func(v string) bool {
		b, ok := scope.Lookup(v)
		return ok && (b.H == c || b.T == c)
	}
	for _, a := range s.Args {
		if a.Var != "" && holds(a.Var) {
			return true
		}
	}
	return slices.ContainsFunc(s.LKeys, holds) || slices.ContainsFunc(s.RKeys, holds)
}

func releaseIfDead(ctx *Ctx, scope *Scope, keep map[string]bool, lastUse map[string]int, accounted map[*bat.BAT]int64, v string, i int) {
	if v == "" || keep[v] {
		return
	}
	if lastUse[v] == i {
		if b, ok := scope.Vars[v]; ok {
			if sz, ok := accounted[b]; ok {
				ctx.Release(sz)
				delete(accounted, b)
			}
			delete(scope.Vars, v)
		}
	}
}

func argBAT(scope *Scope, a StmtArg) (*bat.BAT, error) {
	b, ok := scope.Lookup(a.Var)
	if !ok {
		return nil, fmt.Errorf("undefined variable %q", a.Var)
	}
	return b, nil
}

// execStmtSafe runs one statement inside the interpreter's recovery
// boundary. A panic anywhere below — an invariant check in the kernel, a
// fault the chaos suite injects at this seam (SetExecHook), a bug in an
// operator, whether on this goroutine or forwarded from a parallel worker
// (bat.WorkerPanic) — is contained here and converted into a *PanicError
// carrying the op trace, instead of unwinding the process out from under
// every concurrent session. The cancellation sentinel bat.ErrAborted,
// raised by morsel dispatch when the query's stop hook fired, converts back
// into the context's own error.
//
// Shared state stays consistent across the unwind by construction: the
// accelerator singleflight slots unlock by defer and never publish a
// partial build, every touch call books its pool outcomes to the query's
// tracker before it returns, and gauge fold-back happens at the session
// boundary (DrainGauge) which runs on every exit path.
func execStmtSafe(ctx *Ctx, s Stmt, scope *Scope, i int) (out *bat.BAT, err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		var stack []byte
		// Unwrap panics forwarded from parallel workers (possibly nested
		// when a worker's own dispatch forwarded first).
		for {
			if wp, ok := r.(*bat.WorkerPanic); ok {
				r, stack = wp.Value, wp.Stack
				continue
			}
			break
		}
		if r == bat.ErrAborted && ctx.Cancelled() {
			out, err = nil, ctx.CtxErr()
			return
		}
		if stack == nil {
			stack = debug.Stack()
		}
		out, err = nil, &PanicError{Index: i, Stmt: s.String(), Value: r, Stack: stack}
	}()
	if h := execHook.Load(); h != nil {
		(*h)(i, s.Op)
	}
	if err := validateStmt(&s); err != nil {
		return nil, err
	}
	return execStmt(ctx, s, scope)
}

func execStmt(ctx *Ctx, s Stmt, scope *Scope) (*bat.BAT, error) {
	// Resolve the leading BAT operand, common to almost all ops.
	var b0 *bat.BAT
	if len(s.Args) > 0 && s.Args[0].Var != "" {
		var err error
		b0, err = argBAT(scope, s.Args[0])
		if err != nil {
			return nil, err
		}
	}
	need2 := func() (*bat.BAT, error) { return argBAT(scope, s.Args[1]) }

	switch s.Op {
	case OpMirror:
		ctx.chose("mirror")
		return b0.Mirror(), nil
	case OpSelect:
		v, err := resolveLit(scope, s.Args[1])
		if err != nil {
			return nil, err
		}
		return SelectEq(ctx, b0, v), nil
	case OpSelectRange:
		var lo, hi *bat.Value
		if !s.Args[1].isNone() {
			v, err := resolveLit(scope, s.Args[1])
			if err != nil {
				return nil, err
			}
			lo = &v
		}
		if !s.Args[2].isNone() {
			v, err := resolveLit(scope, s.Args[2])
			if err != nil {
				return nil, err
			}
			hi = &v
		}
		return SelectRange(ctx, b0, lo, hi, s.LoIncl, s.HiIncl), nil
	case OpSelectBit:
		return SelectBit(ctx, b0), nil
	case OpSemijoin:
		r, err := need2()
		if err != nil {
			return nil, err
		}
		return Semijoin(ctx, b0, r), nil
	case OpJoin:
		r, err := need2()
		if err != nil {
			return nil, err
		}
		return Join(ctx, b0, r), nil
	case OpUnique:
		return Unique(ctx, b0), nil
	case OpGroup:
		return GroupUnary(ctx, b0), nil
	case OpGroup2:
		r, err := need2()
		if err != nil {
			return nil, err
		}
		return GroupBinary(ctx, b0, r), nil
	case OpMultiplex:
		ops := make([]Operand, len(s.Args))
		for i, a := range s.Args {
			switch {
			case a.Var != "":
				b, err := argBAT(scope, a)
				if err != nil {
					return nil, err
				}
				ops[i] = BATArg(b)
			default:
				v, err := resolveLit(scope, a)
				if err != nil {
					return nil, err
				}
				ops[i] = ConstArg(v)
			}
		}
		return Multiplex(ctx, s.Fn, ops), nil
	case OpAggr:
		return Aggr(ctx, s.Fn, b0), nil
	case OpAggrScalar:
		return AggrScalar(ctx, s.Fn, b0), nil
	case OpUnion:
		r, err := need2()
		if err != nil {
			return nil, err
		}
		return Union(ctx, b0, r), nil
	case OpDiff:
		r, err := need2()
		if err != nil {
			return nil, err
		}
		return Diff(ctx, b0, r), nil
	case OpIntersect:
		r, err := need2()
		if err != nil {
			return nil, err
		}
		return Intersect(ctx, b0, r), nil
	case OpSort:
		return SortTail(ctx, b0, s.Desc), nil
	case OpSlice:
		return Slice(ctx, b0, s.N), nil
	case OpJoinMulti:
		return execJoinMulti(ctx, s, scope)
	case OpMark:
		return Mark(ctx, b0), nil
	case OpCalc:
		vals := make([]bat.Value, len(s.Args))
		for i, a := range s.Args {
			v, err := resolveLit(scope, a)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		ctx.chose("calc")
		v := CallFunc(s.Fn, vals)
		return bat.Derive(bat.New("calc", bat.NewOIDCol([]bat.OID{0}), bat.FromValues(v.K, []bat.Value{v}), 0), bat.One, nil, nil), nil
	}
	return nil, fmt.Errorf("unknown op %q", s.Op)
}

// Mark re-identifies the BUNs of b with fresh dense oids: the result is
// [void-dense, head of b]. It is how the translation of a generic join gives
// the produced pairs identities of their own.
func Mark(ctx *Ctx, b *bat.BAT) *bat.BAT {
	ctx.chose("mark")
	return bat.Derive(bat.New(b.Name+".mark", bat.NewVoid(0, b.Len()), b.H, 0), bat.Marked, b, nil)
}

func resolveLit(scope *Scope, a StmtArg) (bat.Value, error) {
	if a.Lit != nil {
		return *a.Lit, nil
	}
	if a.ScalarVar != "" {
		b, ok := scope.Lookup(a.ScalarVar)
		if !ok {
			return bat.Value{}, fmt.Errorf("undefined scalar variable %q", a.ScalarVar)
		}
		return ScalarOf(b), nil
	}
	return bat.Value{}, fmt.Errorf("operand %v is not a literal", a)
}

// execJoinMulti pairs left and right elements matching on all composite keys
// and returns their ids: [left id, right id].
func execJoinMulti(ctx *Ctx, s Stmt, scope *Scope) (*bat.BAT, error) {
	resolve := func(names []string) ([]*bat.BAT, error) {
		out := make([]*bat.BAT, len(names))
		for i, v := range names {
			b, ok := scope.Lookup(v)
			if !ok {
				return nil, fmt.Errorf("undefined variable %q", v)
			}
			out[i] = b
		}
		return out, nil
	}
	lKeys, err := resolve(s.LKeys)
	if err != nil {
		return nil, err
	}
	rKeys, err := resolve(s.RKeys)
	if err != nil {
		return nil, err
	}
	if len(lKeys) == 0 || len(rKeys) == 0 {
		return nil, fmt.Errorf("joinmulti needs at least one key pair")
	}
	return JoinMulti(ctx, lKeys, rKeys), nil
}

// Builder emits statements with generated variable names; the rewriter uses
// it to assemble programs.
type Builder struct {
	prog Program
	next int
}

// NewBuilder returns an empty program builder.
func NewBuilder() *Builder { return &Builder{} }

// Fresh allocates a new variable name with the given prefix.
func (b *Builder) Fresh(prefix string) string {
	b.next++
	return fmt.Sprintf("%s_%d", prefix, b.next)
}

// Emit appends a statement, assigning its result to a fresh variable derived
// from hint, and returns that variable name.
func (b *Builder) Emit(hint string, s Stmt) string {
	s.Dst = b.Fresh(hint)
	b.prog.Stmts = append(b.prog.Stmts, s)
	return s.Dst
}

// KeepVar marks a variable as a program result that must survive execution.
func (b *Builder) KeepVar(v string) {
	b.prog.Keep = append(b.prog.Keep, v)
}

// Program returns the assembled program.
func (b *Builder) Program() *Program { return &b.prog }
