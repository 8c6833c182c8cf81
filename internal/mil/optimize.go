package mil

import (
	"math"

	"repro/internal/bat"
)

// Optimize rewrites a straight-line MIL program so that it computes each
// value once, and returns the optimized program together with the alias map
// from every eliminated variable to the surviving variable that holds the
// same value (nil when nothing was eliminated). The input is never modified.
//
// Every MIL operator is a pure function of immutable BATs (Boncz & Kersten,
// MIL Primitives), so two statements with the same operator, the same
// operands and the same constants denote the same BAT. The rules:
//
//  1. Common-subexpression elimination by hash-consing: statements are
//     visited in order, their operands rewritten through the alias map, and
//     keyed on a comparable struct of every Stmt field but Dst. A repeated
//     key aliases the statement's Dst to the first one and drops it.
//  2. Dead-binding elimination: one backward pass from Keep (rewritten
//     through the alias map and de-duplicated) drops every statement whose
//     result nothing live reads.
//
// Operands are keyed by value number: every variable and every distinct
// literal is numbered once, and an eliminated variable takes its twin's
// number, so each name is hashed once per occurrence and the statement key
// stays small.
//
// Release points need no adjusting: the interpreter computes liveness of the
// program it is given at run time. Both rules assume single assignment — a
// variable defined once, and never read before its definition — which the
// rewriter's Builder guarantees. A hand-written script that reassigns a
// variable (or reads a name it defines later, shadowing a base BAT) is
// returned as is, since a name would then denote different values at
// different points.
func Optimize(p *Program) (*Program, map[string]string) {
	n := len(p.Stmts)
	nb := numbering{vn: make(map[string]int32, 2*n), names: make([]string, 0, 2*n)}
	seen := make(map[stmtKey]int32, n)
	var alias map[string]string
	stmts := make([]Stmt, 0, n)
	reads := make([]int32, 0, 2*n) // value numbers read, in operand order
	// spans[i] holds the value number stmts[i] defines and the end of what
	// it reads: reads[spans[i-1].end:spans[i].end].
	spans := make([]span, 0, n)
	for _, s := range p.Stmts {
		if _, defined := nb.vn[s.Dst]; defined || s.Dst == "" {
			return p, nil // not single assignment
		}
		start := len(reads)
		var k stmtKey
		k, reads = nb.key(&s, reads)
		if k.op != unkeyed {
			if first, dup := seen[k]; dup {
				if alias == nil {
					alias = make(map[string]string)
				}
				nb.vn[s.Dst] = first
				alias[s.Dst] = nb.names[first]
				reads = reads[:start]
				continue
			}
		}
		s = nb.rename(s, reads[start:])
		d := nb.fresh(s.Dst)
		if k.op != unkeyed {
			seen[k] = d
		}
		stmts = append(stmts, s)
		spans = append(spans, span{d, int32(len(reads))})
	}

	for _, v := range p.Keep {
		nb.of(v)
	}
	live := make([]bool, len(nb.names))
	keep := make([]string, 0, len(p.Keep))
	for _, v := range p.Keep {
		if d := nb.vn[v]; !live[d] {
			live[d] = true
			keep = append(keep, nb.names[d])
		}
	}
	for i := len(stmts) - 1; i >= 0; i-- {
		if !live[spans[i].dst] {
			spans[i].dst = -1
			continue
		}
		lo := int32(0)
		if i > 0 {
			lo = spans[i-1].end
		}
		for _, r := range reads[lo:spans[i].end] {
			live[r] = true
		}
	}
	out := stmts[:0]
	for i, s := range stmts {
		if spans[i].dst >= 0 {
			out = append(out, s)
		}
	}
	return &Program{Stmts: out, Keep: keep}, alias
}

type span struct{ dst, end int32 }

// numbering assigns value numbers: vn maps each variable to the number of
// the value it holds, names maps each number back to the variable that
// holds it in the optimized program, and lits numbers distinct literals.
type numbering struct {
	vn    map[string]int32
	names []string
	lits  map[litKey]int32
}

// of returns v's value number, numbering v afresh on first sight.
func (nb *numbering) of(v string) int32 {
	if d, ok := nb.vn[v]; ok {
		return d
	}
	return nb.fresh(v)
}

// fresh gives v, not yet numbered, a new value number.
func (nb *numbering) fresh(v string) int32 {
	d := int32(len(nb.names))
	nb.vn[v] = d
	nb.names = append(nb.names, v)
	return d
}

// litKey is a literal in comparable form: its kind and exact bits, so 0.0
// and -0.0, two NaN payloads, and int 1 and flt 1.0 all stay distinct.
type litKey struct {
	k bat.Kind
	i int64
	f uint64
	s string
}

func (nb *numbering) lit(l *bat.Value) int32 {
	k := litKey{l.K, l.I, math.Float64bits(l.F), l.S}
	if d, ok := nb.lits[k]; ok {
		return d
	}
	if nb.lits == nil {
		nb.lits = make(map[litKey]int32)
	}
	d := int32(len(nb.lits))
	nb.lits[k] = d
	return d
}

// The statement key holds every Stmt field but Dst in comparable form.
// Operand lists are held inline up to these widths; a wider statement is
// left unkeyed (never merged), which is always sound. Every Figure-9 plan
// fits; a variadic function over more operands, or a composite join on more
// key pairs, is computed as often as it is written.
const (
	keyArgs = 4
	keyKeys = 2
)

// unkeyed marks a statement too wide to key (no Op is empty).
const unkeyed = ""

// argKey is one operand as value numbers of each StmtArg field; -1 marks an
// absent field.
type argKey struct{ v, sv, lit int32 }

// stmtKey stays within 128 bytes, above which a map stores each key behind
// a pointer of its own.
type stmtKey struct {
	op, fn         string
	args           [keyArgs]argKey
	lkeys, rkeys   [keyKeys]int32
	n              int
	nargs, nl, nr  uint8
	desc           bool
	loIncl, hiIncl bool
}

// key numbers every variable s reads, appending the numbers to reads in
// operand order (each Arg's Var then ScalarVar, then LKeys, then RKeys), and
// returns s's key (Op unkeyed when s is too wide).
func (nb *numbering) key(s *Stmt, reads []int32) (stmtKey, []int32) {
	k := stmtKey{op: s.Op, fn: s.Fn, n: s.N, desc: s.Desc, loIncl: s.LoIncl, hiIncl: s.HiIncl,
		nargs: uint8(len(s.Args)), nl: uint8(len(s.LKeys)), nr: uint8(len(s.RKeys))}
	if len(s.Args) > keyArgs || len(s.LKeys) > keyKeys || len(s.RKeys) > keyKeys {
		k.op = unkeyed
	}
	for i, a := range s.Args {
		ak := argKey{-1, -1, -1}
		if a.Var != "" {
			ak.v = nb.of(a.Var)
			reads = append(reads, ak.v)
		}
		if a.ScalarVar != "" {
			ak.sv = nb.of(a.ScalarVar)
			reads = append(reads, ak.sv)
		}
		if a.Lit != nil {
			ak.lit = nb.lit(a.Lit)
		}
		if i < keyArgs {
			k.args[i] = ak
		}
	}
	for i, v := range s.LKeys {
		d := nb.of(v)
		reads = append(reads, d)
		if i < keyKeys {
			k.lkeys[i] = d
		}
	}
	for i, v := range s.RKeys {
		d := nb.of(v)
		reads = append(reads, d)
		if i < keyKeys {
			k.rkeys[i] = d
		}
	}
	return k, reads
}

// rename returns s reading the surviving variable of each value it reads
// (nums, in operand order). Operand slices are copied only when a name
// changes, so the input program is never written.
func (nb *numbering) rename(s Stmt, nums []int32) Stmt {
	j := 0
	var args []StmtArg // s.Args, copied on the first change
	for i, a := range s.Args {
		v, sv := a.Var, a.ScalarVar
		if v != "" {
			v, j = nb.names[nums[j]], j+1
		}
		if sv != "" {
			sv, j = nb.names[nums[j]], j+1
		}
		if v != a.Var || sv != a.ScalarVar {
			if args == nil {
				args = append([]StmtArg(nil), s.Args...)
			}
			args[i].Var, args[i].ScalarVar = v, sv
		}
	}
	if args != nil {
		s.Args = args
	}
	s.LKeys, j = nb.renameList(s.LKeys, nums, j)
	s.RKeys, _ = nb.renameList(s.RKeys, nums, j)
	return s
}

func (nb *numbering) renameList(vs []string, nums []int32, j int) ([]string, int) {
	copied := false
	for i, v := range vs {
		if w := nb.names[nums[j+i]]; w != v {
			if !copied {
				vs = append([]string(nil), vs...)
				copied = true
			}
			vs[i] = w
		}
	}
	return vs, j + len(vs)
}
