package mil

import (
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/bat"
	"repro/internal/storage"
)

// Vectorized pipeline execution. A fusable statement chain — a select head
// feeding semijoin/diff/intersect filters, at most one join, and optionally a
// terminal aggregate — streams ~L1-sized vectors of selected positions
// through all its operators instead of materializing every intermediate BAT.
// Only the chain's final result materializes, so the peak intermediate
// footprint of a chain drops from the sum of its stage results to one vector
// working set plus the result.
//
// The pipeline is a plan shape, not a second set of kernels. Every operator
// has one kernel that takes its rows as a bat.Vector (see the contract in
// bat/vector.go): the select kernels of select.go, the probe kernels
// HashIndex.FilterVec / JoinVec, fetchVec, and the slotFold accumulators. A
// materializing operator calls its kernel over the identity selection of
// each morsel range; a chain stage calls the same kernel over the window
// the previous stage left. Stages here therefore only touch pages and call
// the kernel, and a chain hands the same rows in the same order to the same
// code as statement-at-a-time execution — which is why the un-fused plan
// (Ctx.Pipeline < 0: every statement materializes) is a trustworthy
// reference for the fused one, and the two are BUN-for-BUN identical.
// Parallel execution splits the source domain into the same morsel ranges a
// materializing scan would use; each morsel advances vector-at-a-time and
// partials stitch in range order. Statements whose operands or shapes the
// planner cannot prove fusable (multi-use intermediates, kept names,
// post-join filters, datavector corner cases) run statement-at-a-time.
//
// Terminals claim properties through the rows of bat.Derive their
// materialized counterparts use. The one known divergence is
// representational: a chain that composes to a contiguous run through a
// scattered stage may gain (or lose) the Dense bits and column view-ness the
// stage-by-stage gather would have decided differently.

// pchain marks one fusable chain: statements [head, terminal] execute as one
// pipeline, binding only the terminal's Dst.
type pchain struct {
	head, terminal int
}

// countVarRefs counts, per variable name, its uses as an operand and its
// definitions as a destination across the whole program.
func countVarRefs(p *Program) (uses, defs map[string]int) {
	uses = make(map[string]int, len(p.Stmts))
	defs = make(map[string]int, len(p.Stmts))
	for _, s := range p.Stmts {
		defs[s.Dst]++
		for _, a := range s.Args {
			if a.Var != "" {
				uses[a.Var]++
			}
			if a.ScalarVar != "" {
				uses[a.ScalarVar]++
			}
		}
		for _, v := range s.LKeys {
			uses[v]++
		}
		for _, v := range s.RKeys {
			uses[v]++
		}
	}
	return uses, defs
}

// isChainHead reports whether s can start a pipeline: a select cutting its
// operand, or a filter/join over two BAT variables (the stream is then the
// full scan of the first operand).
func isChainHead(s *Stmt) bool {
	switch s.Op {
	case OpSelect, OpSelectRange, OpSelectBit:
		return len(s.Args) > 0 && s.Args[0].Var != ""
	case OpSemijoin, OpDiff, OpIntersect, OpJoin:
		return len(s.Args) > 1 && s.Args[0].Var != "" && s.Args[1].Var != ""
	}
	return false
}

// planPipeline scans the program for fusable chains. A chain extends from
// its head through statements that consume the previous result as their
// first operand, as long as the intermediate is single-use, single-def and
// not a kept name (so skipping its materialization is unobservable):
//
//   - further selects and the filtering set ops (semijoin, diff, intersect)
//     keep the stream a position selection over the head's operand;
//   - one join switches the stream to (left, right) position pairs; filters
//     cannot follow it (they would probe the pair stream's gathered head,
//     which the planner does not model) — only an aggregate can;
//   - an aggregate (set or scalar) always terminates the chain.
//
// The map is keyed by chain head statement index.
func planPipeline(p *Program, keep map[string]bool) map[int]pchain {
	uses, defs := countVarRefs(p)
	var chains map[int]pchain
	for i := 0; i < len(p.Stmts); i++ {
		if !isChainHead(&p.Stmts[i]) {
			continue
		}
		end := i
		joined := p.Stmts[i].Op == OpJoin
		for j := i; ; {
			s := &p.Stmts[j]
			if keep[s.Dst] || uses[s.Dst] != 1 || defs[s.Dst] != 1 || j+1 >= len(p.Stmts) {
				break
			}
			nx := &p.Stmts[j+1]
			if len(nx.Args) == 0 || nx.Args[0].Var != s.Dst {
				break
			}
			ok := false
			switch nx.Op {
			case OpSelect, OpSelectRange, OpSelectBit:
				ok = !joined
			case OpSemijoin, OpDiff, OpIntersect, OpJoin:
				ok = !joined && len(nx.Args) > 1 && nx.Args[1].Var != ""
			case OpAggr, OpAggrScalar:
				ok = true
			}
			if !ok {
				break
			}
			j++
			end = j
			if nx.Op == OpJoin {
				joined = true
			}
			if nx.Op == OpAggr || nx.Op == OpAggrScalar {
				break
			}
		}
		if end > i {
			if chains == nil {
				chains = make(map[int]pchain)
			}
			chains[i] = pchain{head: i, terminal: end}
			i = end
		}
	}
	return chains
}

// Source modes: how the chain head cuts its stream from the operand.
const (
	srcRun  = iota // binary-search run [srcLo, srcHi) on an ordered tail
	srcPos         // existing tail-hash accelerator: explicit position list
	srcScan        // predicate scan over the whole operand
)

// Terminal modes: what the chain materializes.
const (
	termGather = iota // position gather of the operand (filters only)
	termJoin          // (left, right) pair gather
	termAggr          // grouped aggregate over the stream
	termScalar        // whole-stream scalar aggregate
)

// pfilter is one probing filter stage (semijoin / intersect: want=true,
// diff: want=false) against the right operand's head accelerator. probes is
// false when the stream's head kind cannot occur in r's head: nothing
// matches, so the stage keeps every row (diff) or none.
type pfilter struct {
	r      *bat.BAT
	want   bool
	idx    *bat.HashIndex
	pr     bat.Probe
	probes bool
}

// pjoin is the chain's join stage: positional identity when the operands'
// join columns correspond position by position (sync-join: the identity
// pair of the vector, no accelerator), positional fetch when the right head
// is dense (fetchVec, fetch-join's kernel), hash probe otherwise — which
// matches nothing when the stream's tail kind cannot occur in r's head
// (probes false).
type pjoin struct {
	r      *bat.BAT
	sync   bool
	fetch  bool
	idx    *bat.HashIndex
	pr     bat.Probe
	probes bool
}

// pstage is one chain statement between source and terminal. Exactly one of
// sel (select), filt (semijoin/diff/intersect) or join is set. rows counts
// the stage's surviving stream rows (pairs for a join) for the trace.
type pstage struct {
	stmt int // program statement index
	sel  selKernel
	filt *pfilter
	join *pjoin
	rows atomic.Int64
}

// pplan is one planned chain, ready to execute.
type pplan struct {
	head, terminal int
	b              *bat.BAT // the stream's base operand; positions index it
	name           string   // stage-composed result name (gather terminals)

	srcMode int
	srcLo   int // srcRun: window [srcLo, srcHi)
	srcHi   int
	srcPos  []int32 // srcPos: ascending absolute positions
	srcSel  selKernel
	srcRows atomic.Int64

	stages []*pstage // pre-join filter stages, in chain order
	join   *pstage   // the join stage, or nil

	term    int
	aggFn   string
	aggTail bat.Column // aggregate input: b.T, or join.r.T after a join
}

// buildChainPlan resolves and checks a chain without side effects: operands
// and literals resolve through the scope, predicates compile, the join mode
// is fixed. It reports false — leaving execution to the materializing
// interpreter — whenever any input is missing or the chain would hit a shape
// the pipeline does not model bit-identically:
//
//   - a join right operand carrying a datavector but no declared key head
//     (its hash probe would stand in for the datavector join only where
//     the extent makes the head key, which the planner does not check);
//   - an aggregate over a void tail (materialized gathers re-encode it
//     run-dependently);
//   - a group head without a row key representation.
func buildChainPlan(p *Program, ch pchain, scope *Scope) (*pplan, bool) {
	head := p.Stmts[ch.head]
	b, ok := scope.Lookup(head.Args[0].Var)
	if !ok {
		return nil, false
	}
	pl := &pplan{head: ch.head, terminal: ch.terminal, b: b, name: b.Name, term: termGather}

	resolveBound := func(a StmtArg) (*bat.Value, bool) {
		if a.isNone() {
			return nil, true
		}
		v, err := resolveLit(scope, a)
		if err != nil {
			return nil, false
		}
		return &v, true
	}

	stageStart := ch.head + 1
	switch head.Op {
	case OpSelect:
		if len(head.Args) < 2 {
			return nil, false
		}
		v, ok := resolveBound(head.Args[1])
		if !ok || v == nil {
			return nil, false
		}
		switch {
		case b.Props.Has(bat.TOrdered):
			pl.srcMode = srcRun
			pl.srcLo, pl.srcHi = binSearchRun(b, v, v, true, true)
		case b.HasTailHash():
			pl.srcMode = srcPos
			pl.srcPos = b.TailHash().Lookup(*v)
		default:
			pl.srcMode = srcScan
			pl.srcSel = tailKernel(b, v, v, true, true)
		}
		pl.name += ".sel"
	case OpSelectRange:
		if len(head.Args) < 3 {
			return nil, false
		}
		lo, ok1 := resolveBound(head.Args[1])
		hi, ok2 := resolveBound(head.Args[2])
		if !ok1 || !ok2 {
			return nil, false
		}
		if b.Props.Has(bat.TOrdered) {
			pl.srcMode = srcRun
			pl.srcLo, pl.srcHi = binSearchRun(b, lo, hi, head.LoIncl, head.HiIncl)
		} else {
			pl.srcMode = srcScan
			pl.srcSel = tailKernel(b, lo, hi, head.LoIncl, head.HiIncl)
		}
		pl.name += ".sel"
	case OpSelectBit:
		pl.srcMode = srcScan
		pl.srcSel = bitKernel(b)
		pl.name += ".sel"
	case OpSemijoin, OpDiff, OpIntersect, OpJoin:
		// Filter or join head: the stream is the full scan of the first
		// operand; the head op itself becomes the first stage. Never fuse
		// a head the materialized optimizer executes sub-linearly or
		// zero-copy — streaming would replace those variants with an
		// O(|stream|) scan:
		//   - synced operand pairs degenerate to a shared view
		//     (sync-semijoin / sync-join);
		//   - a datavector on the stream side drives the semijoin /
		//     intersect from the (small) right operand in O(|r|).
		r, rok := scope.Lookup(head.Args[1].Var)
		if !rok {
			return nil, false
		}
		if head.Op != OpDiff && bat.Synced(b, r) {
			return nil, false
		}
		if (head.Op == OpSemijoin || head.Op == OpIntersect) &&
			b.Datavector() != nil && oidHeaded(r) {
			return nil, false
		}
		pl.srcMode = srcRun
		pl.srcLo, pl.srcHi = 0, b.Len()
		stageStart = ch.head
	default:
		return nil, false
	}

	for k := stageStart; k <= ch.terminal; k++ {
		s := p.Stmts[k]
		switch s.Op {
		case OpSelect:
			if len(s.Args) < 2 {
				return nil, false
			}
			v, ok := resolveBound(s.Args[1])
			if !ok || v == nil {
				return nil, false
			}
			pl.stages = append(pl.stages, &pstage{stmt: k, sel: tailKernel(b, v, v, true, true)})
			pl.name += ".sel"
		case OpSelectRange:
			if len(s.Args) < 3 {
				return nil, false
			}
			lo, ok1 := resolveBound(s.Args[1])
			hi, ok2 := resolveBound(s.Args[2])
			if !ok1 || !ok2 {
				return nil, false
			}
			pl.stages = append(pl.stages, &pstage{stmt: k, sel: tailKernel(b, lo, hi, s.LoIncl, s.HiIncl)})
			pl.name += ".sel"
		case OpSelectBit:
			pl.stages = append(pl.stages, &pstage{stmt: k, sel: bitKernel(b)})
			pl.name += ".sel"
		case OpSemijoin, OpIntersect, OpDiff:
			r, ok := scope.Lookup(s.Args[1].Var)
			if !ok {
				return nil, false
			}
			pl.stages = append(pl.stages, &pstage{stmt: k, filt: &pfilter{r: r, want: s.Op != OpDiff}})
			if s.Op == OpDiff {
				pl.name += ".diff"
			} else {
				pl.name += ".sel"
			}
		case OpJoin:
			r, ok := scope.Lookup(s.Args[1].Var)
			if !ok {
				return nil, false
			}
			j := &pjoin{r: r}
			if syncJoinMatch(b, r) {
				// The full operands' join columns correspond position by
				// position and are duplicate-free (materialized execution
				// takes the zero-copy sync-join): stream position i joins
				// r position i, with no accelerator. Valid even after
				// filter stages — a duplicate-free pointwise-equal column
				// pair matches value i only at position i.
				j.sync = true
			} else {
				if r.Datavector() != nil && !r.Props.Has(bat.HKey) {
					return nil, false
				}
				j.fetch = r.Props.Has(bat.HDense)
			}
			pl.join = &pstage{stmt: k, join: j}
			pl.name += ".join"
			pl.term = termJoin
		case OpAggr, OpAggrScalar:
			pl.aggFn = s.Fn
			tail := b.T
			if pl.join != nil {
				tail = pl.join.join.r.T
			}
			if _, void := tail.(*bat.VoidCol); void {
				return nil, false
			}
			pl.aggTail = tail
			if s.Op == OpAggr {
				pl.term = termAggr
			} else {
				pl.term = termScalar
			}
		default:
			return nil, false
		}
	}
	return pl, true
}

// sourceRows reports the stream rows the source produced.
func (pl *pplan) sourceRows() int64 {
	switch pl.srcMode {
	case srcRun:
		return int64(pl.srcHi - pl.srcLo)
	case srcPos:
		return int64(len(pl.srcPos))
	}
	return pl.srcRows.Load()
}

// preJoinRows reports the stream rows entering the join (or terminal).
func (pl *pplan) preJoinRows() int {
	if n := len(pl.stages); n > 0 {
		return int(pl.stages[n-1].rows.Load())
	}
	return int(pl.sourceRows())
}

// rowCounts fabricates the per-statement row column of the chain's traces.
func (pl *pplan) rowCounts(out *bat.BAT) []int64 {
	rows := make([]int64, pl.terminal-pl.head+1)
	rows[0] = pl.sourceRows()
	for _, st := range pl.stages {
		rows[st.stmt-pl.head] = st.rows.Load()
	}
	if pl.join != nil {
		rows[pl.join.stmt-pl.head] = pl.join.rows.Load()
	}
	if out != nil {
		rows[len(rows)-1] = int64(out.Len())
	}
	return rows
}

// runRange advances one morsel range [lo, hi) of the source domain
// vector-at-a-time: cut a window, apply the filter stages, hand the
// surviving vector to emit. Positions are absolute rows of pl.b throughout.
// A cancelled context aborts with the morsel dispatch sentinel, so no
// partial result is ever stitched.
func (pl *pplan) runRange(ctx *Ctx, p *storage.Tracker, vr, lo, hi int, emit func(bat.Vector)) {
	b := pl.b
	var bufs [2][]int32
	bufs[0] = make([]int32, 0, vr)
	bufs[1] = make([]int32, 0, vr)
	for wlo := lo; wlo < hi; wlo += vr {
		if ctx.Cancelled() {
			panic(bat.ErrAborted)
		}
		whi := wlo + vr
		if whi > hi {
			whi = hi
		}
		var v bat.Vector
		fi := 0 // next free scratch buffer
		switch pl.srcMode {
		case srcRun:
			v = bat.Vector{Lo: pl.srcLo + wlo, Hi: pl.srcLo + whi}
		case srcPos:
			sel := pl.srcPos[wlo:whi]
			v = bat.Vector{Lo: int(sel[0]), Hi: int(sel[len(sel)-1]) + 1, Sel: sel}
		default:
			if p != nil {
				b.T.TouchRange(p, wlo, whi-wlo)
			}
			sel := pl.srcSel(bat.Vector{Lo: wlo, Hi: whi}, bufs[0][:0])
			bufs[0] = sel
			v = bat.Vector{Lo: wlo, Hi: whi, Sel: sel}
			pl.srcRows.Add(int64(len(sel)))
			fi = 1
		}
		for _, st := range pl.stages {
			if v.Rows() == 0 {
				break
			}
			out := pl.applyStage(p, st, v, bufs[fi][:0])
			bufs[fi] = out
			v = bat.Vector{Lo: v.Lo, Hi: v.Hi, Sel: out}
			fi ^= 1
		}
		if v.Rows() == 0 {
			continue
		}
		emit(v)
	}
}

// applyStage runs one filter stage over a vector, appending the surviving
// positions to out: touch, call the kernel.
func (pl *pplan) applyStage(p *storage.Tracker, st *pstage, v bat.Vector, out []int32) []int32 {
	switch f := st.filt; {
	case f == nil:
		v.Touch(p, pl.b.T)
		out = st.sel(v, out)
	case f.probes:
		v.Touch(p, pl.b.H)
		out = f.idx.FilterVec(f.pr, v, f.want, out)
	default:
		v.Touch(p, pl.b.H)
		if !f.want {
			out = v.AppendRows(out)
		}
	}
	st.rows.Add(int64(len(out)))
	return out
}

// applyJoin matches one vector against the join stage, appending (stream
// position, right position) pairs.
func (pl *pplan) applyJoin(p *storage.Tracker, v bat.Vector, lp, rp []int32) ([]int32, []int32) {
	j := pl.join.join
	v.Touch(p, pl.b.T)
	n0 := len(lp)
	switch {
	case j.sync:
		lp, rp = v.AppendRows(lp), v.AppendRows(rp)
	case j.fetch:
		lp, rp = fetchVec(pl.b.T, j.r, v, lp, rp)
	case j.probes:
		lp, rp = j.idx.JoinVec(j.pr, v, lp, rp)
	}
	pl.join.rows.Add(int64(len(lp) - n0))
	return lp, rp
}

// run executes the planned chain: prepare accelerators and probes (on the
// interpreter goroutine, like the materializing operators), stream the
// morsel ranges of the source domain, materialize the terminal.
func (pl *pplan) run(ctx *Ctx) (*bat.BAT, error) {
	p := ctx.pager()
	b := pl.b
	vr := ctx.vectorRows()
	for _, st := range pl.stages {
		if f := st.filt; f != nil {
			f.r.H.TouchAll(p)
			f.idx = f.r.HeadHashSched(ctx.sched(f.r.Len()))
			f.pr, f.probes = f.idx.NewProbe(b.H)
		}
	}
	if pl.join != nil {
		if j := pl.join.join; !j.fetch && !j.sync {
			j.r.H.TouchAll(p)
			j.idx = j.r.HeadHashSched(ctx.sched(j.r.Len()))
			if j.pr, j.probes = j.idx.NewProbe(b.T); j.probes {
				j.r.NoteHeadIndex(j.idx) // as hashJoin's joinCap does
			}
		}
	}

	var domain int
	switch pl.srcMode {
	case srcRun:
		domain = pl.srcHi - pl.srcLo
	case srcPos:
		domain = len(pl.srcPos)
	default:
		domain = b.Len()
	}

	// Position-scratch accounting: every morsel's runRange allocates two
	// ping-pong selection buffers of vr positions, and up to the dispatch's
	// worker count of morsels are in flight at once — working set the
	// admission gauge (and the peak-bytes profile) must see, since a wide
	// chain under many workers holds it for the whole streaming phase.
	scratch := int64(workersFor(ctx, domain)) * 2 * int64(vr) * 4
	ctx.AccountScratch(scratch)
	defer ctx.ReleaseScratch(scratch)

	collectPos := func() []int32 {
		return parallelCollect32(ctx, domain, domain,
			func(lo, hi int, out []int32) []int32 {
				pl.runRange(ctx, p, vr, lo, hi, func(v bat.Vector) { out = v.AppendRows(out) })
				return out
			})
	}
	collectPairs := func() ([]int32, []int32) {
		return parallelPairs(ctx, domain, domain,
			func(lo, hi int, lp, rp []int32) ([]int32, []int32) {
				pl.runRange(ctx, p, vr, lo, hi, func(v bat.Vector) {
					lp, rp = pl.applyJoin(p, v, lp, rp)
				})
				return lp, rp
			})
	}

	switch pl.term {
	case termGather:
		return gatherPositions(ctx, pl.name, b, collectPos()), nil
	case termJoin:
		lpos, rpos := collectPairs()
		return pl.joinAssemble(ctx, lpos, rpos), nil
	case termAggr:
		if pl.join != nil {
			hrows, trows := collectPairs()
			return pl.aggrTerminal(ctx, hrows, trows)
		}
		pos := collectPos()
		return pl.aggrTerminal(ctx, pos, pos)
	default: // termScalar
		if pl.join != nil {
			_, trows := collectPairs()
			return pl.scalarTerminal(ctx, trows)
		}
		return pl.scalarTerminal(ctx, collectPos())
	}
}

// joinAssemble materializes the join terminal from matched pairs under the
// property row of the join variant the materialized plan takes: the stream
// is a subset of b carrying b's order and key bits, so the rows read b where
// materialization reads the stream's materialized subset.
func (pl *pplan) joinAssemble(ctx *Ctx, lpos, rpos []int32) *bat.BAT {
	b, r := pl.b, pl.join.join.r
	p := ctx.pager()
	b.H.TouchPositions(p, lpos)
	r.T.TouchPositions(p, rpos)
	rel := bat.Pairs
	if pl.syncJoined(lpos, rpos) {
		rel = bat.Positional
	}
	return bat.Derive(bat.New(pl.name, bat.Gather(b.H, lpos), bat.Gather(r.T, rpos), 0), rel, b, r)
}

// syncJoined reports whether the materialized join of the stream against r
// takes the sync-join (syncJoinMatch over the stream's rows): oid join
// columns, duplicate-free on one side, and every stream row matched r's row
// at its own stream position, once.
func (pl *pplan) syncJoined(lpos, rpos []int32) bool {
	b, r := pl.b, pl.join.join.r
	_, lok := oidGetter(b.T)
	_, rok := oidGetter(r.H)
	if n := r.Len(); !lok || !rok || n == 0 || pl.preJoinRows() != n || len(rpos) != n ||
		!b.Props.Has(bat.TKey) && !r.Props.Has(bat.HKey) {
		return false
	}
	for i, x := range rpos {
		if int(x) != i || i > 0 && lpos[i] == lpos[i-1] {
			return false
		}
	}
	return true
}

// foldStream folds the stream — head rows hrows (into pl.b.H; nil for a
// scalar aggregate), tail rows trows (into pl.aggTail) — into f,
// sequentially and vector-at-a-time so order-sensitive accumulators
// (floating-point sums) add rows in exactly the materialized scan's order.
func (pl *pplan) foldStream(ctx *Ctx, f slotFold, hrows, trows []int32, slots slotter) error {
	p := ctx.pager()
	vr := ctx.vectorRows()
	buf := make([]int32, min(vr, len(trows)))
	for w := 0; w < len(trows); w += vr {
		if ctx.Cancelled() {
			return ctx.CtxErr()
		}
		we := min(w+vr, len(trows))
		var hv bat.Vector
		if hrows != nil {
			hv.Sel = hrows[w:we]
			pl.b.H.TouchPositions(p, hv.Sel)
		}
		pl.aggTail.TouchPositions(p, trows[w:we])
		foldVec(f, hv, bat.Vector{Sel: trows[w:we]}, buf, slots)
	}
	return nil
}

// aggrTerminal folds the stream into the grouped aggregate: groups form over
// the head rows in first-occurrence order, as in Aggr's unordered scan — by
// direct index over the streamed head rows when their keys span few values
// (dense-aggr), through the bucket+link grouper otherwise.
func (pl *pplan) aggrTerminal(ctx *Ctx, hrows, trows []int32) (*bat.BAT, error) {
	headCol := pl.b.H
	f := newSlotFold(pl.aggTail, pl.aggFn)
	var slots slotter
	var first func() []int32
	if d := bat.NewDenseGrouper(bat.Vector{Sel: hrows}, headCol); d != nil {
		ctx.chose("dense-aggr")
		slots, first = d.Slots, d.Rows
	} else {
		rep, eq := bat.RowRep(headCol)
		g := bat.NewGrouper(eq)
		slots, first = grouperSlots(g, rep), g.Rows
	}
	if err := pl.foldStream(ctx, f, hrows, trows, slots); err != nil {
		return nil, err
	}
	rows := first()
	// The grouped heads are b's (a join carries them over in b's order).
	return bat.Derive(bat.New("{"+pl.aggFn+"}", bat.Gather(headCol, rows), f.tail(len(rows)), 0), bat.Groups, pl.b, nil), nil
}

// scalarTerminal folds the stream's tail rows into the whole-BAT aggregate:
// AggrScalar's one-slot fold over the stream.
func (pl *pplan) scalarTerminal(ctx *Ctx, trows []int32) (*bat.BAT, error) {
	f := newScalarFold(pl.aggTail, pl.aggFn)
	if err := pl.foldStream(ctx, f, nil, trows, nil); err != nil {
		return nil, err
	}
	return scalarResult(pl.aggFn, f), nil
}

// execChainSafe plans and executes one chain inside the interpreter's
// recovery boundary. fused=false means the chain could not be planned and
// produced no side effects: the caller falls back to statement-at-a-time
// materialization. Once fused, the per-statement hooks and validations fire
// in statement order before any kernel runs, and errors/panics report
// against errIdx (the statement being validated, or the terminal once
// streaming started).
// execChain runs one planned chain inside runScope: execute fused, bind the
// terminal result under the interpreter's usual retain/account rules,
// fabricate the chain statements' traces (the terminal carries the chain's
// elapsed time and pooled fault delta; intermediates report their stream row
// counts under the "pipeline" algo tag), and release dead operands at each
// chain statement's own index, exactly as statement-at-a-time execution
// would have. done=false means the chain was not fused and nothing happened.
func execChain(ctx *Ctx, p *Program, ch pchain, scope *Scope, keep map[string]bool, lastUse map[string]int, accounted map[*bat.BAT]bool) (bool, []StmtTrace, error) {
	// Tracker-delta snapshot across the whole chain, like runScope's
	// per-statement snapshot: this query's own attribution, never a
	// concurrent query's.
	faults0, hits0 := ctx.PageFaults(), ctx.PageHits()
	start := time.Now()
	out, rows, errIdx, fused, err := execChainSafe(ctx, p, ch, scope)
	if !fused {
		return false, nil, nil
	}
	if err != nil {
		return true, nil, fmt.Errorf("stmt %d (%s): %w", errIdx, p.Stmts[errIdx], err)
	}
	elapsed := time.Since(start)
	faults, hits := ctx.PageFaults()-faults0, ctx.PageHits()-hits0
	term := p.Stmts[ch.terminal]
	if keep[term.Dst] && out.Shared() && out.Len() <= MaterializeRetainRows {
		out = out.Unshare()
	}
	ctx.Account(out)
	accounted[out] = true
	scope.Vars[term.Dst] = out
	// The terminal names the chain and, after a slash, a variant its
	// kernel chose (pipeline/dense-aggr).
	termAlgo := "pipeline"
	if a := ctx.LastAlgo(); a != "" {
		termAlgo += "/" + a
		ctx.lastAlgo = ""
	}
	traces := make([]StmtTrace, 0, ch.terminal-ch.head+1)
	for k := ch.head; k < ch.terminal; k++ {
		traces = append(traces, StmtTrace{
			Index: k, Text: p.Stmts[k].String(),
			Rows: int(rows[k-ch.head]), Algo: "pipeline",
		})
	}
	// The chain executes as one unit, so its whole resource profile — time,
	// fault/hit deltas, result bytes, builds, dispatch — and its result's
	// claims are carried by the terminal trace; the fused statements report
	// only their stream row counts.
	tr := StmtTrace{
		Index: ch.terminal, Text: term.String(),
		Rows: int(rows[len(rows)-1]), Algo: termAlgo,
		Elapsed: elapsed, Faults: faults, Hits: hits,
		OutBytes: out.OwnedByteSize(), Props: out.Props,
	}
	ctx.FillStmtProf(&tr)
	traces = append(traces, tr)
	for k := ch.head; k <= ch.terminal; k++ {
		s := p.Stmts[k]
		for _, a := range s.Args {
			for _, v := range []string{a.Var, a.ScalarVar} {
				releaseIfDead(ctx, scope, keep, lastUse, accounted, v, k)
			}
		}
		for _, v := range s.LKeys {
			releaseIfDead(ctx, scope, keep, lastUse, accounted, v, k)
		}
		for _, v := range s.RKeys {
			releaseIfDead(ctx, scope, keep, lastUse, accounted, v, k)
		}
	}
	return true, traces, nil
}

func execChainSafe(ctx *Ctx, p *Program, ch pchain, scope *Scope) (out *bat.BAT, rows []int64, errIdx int, fused bool, err error) {
	pl, ok := buildChainPlan(p, ch, scope)
	if !ok {
		return nil, nil, 0, false, nil
	}
	fused = true
	errIdx = ch.head
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		var stack []byte
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
		out, err = nil, &PanicError{Index: errIdx, Stmt: p.Stmts[errIdx].String(), Value: r, Stack: stack}
	}()
	for k := ch.head; k <= ch.terminal; k++ {
		errIdx = k
		// Per-statement boundary check, exactly as statement-at-a-time
		// execution performs between statements: a cancellation observed
		// mid-chain stops before the next statement's hook fires.
		if k > ch.head && ctx.Cancelled() {
			return nil, nil, k, true, ctx.CtxErr()
		}
		if h := execHook.Load(); h != nil {
			(*h)(k, p.Stmts[k].Op)
		}
		s := p.Stmts[k]
		if verr := validateStmt(&s); verr != nil {
			return nil, nil, k, true, verr
		}
	}
	errIdx = ch.terminal
	out, err = pl.run(ctx)
	rows = pl.rowCounts(out)
	return out, rows, errIdx, true, err
}
