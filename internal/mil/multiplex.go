package mil

import (
	"fmt"

	"repro/internal/bat"
)

// The multiplex constructor [f](AB, …) and its compile step.
//
// A multiplex never interprets a row. Once per statement compileMap turns
// (Func, operand kinds, column/constant shape) into a mapKernel that writes
// the result column's backing slice over the morsel loop's ranges:
//
//   - the built-in functions carry a typed family (Func.typed; the generic
//     loops are in mapkernel.go), each operand a column or a broadcast
//     constant;
//   - every other shape — a function registered at run time, operand kinds a
//     family does not cover, string results — runs the one row-at-a-time
//     adapter (adaptMap): box the row's operands, call Func.Apply, store into
//     a typed builder. There is no second adapter and no boxed staging.
//
// The families:
//
//	compare  = != < <= > >=   one ordered fixed kind or str; int/flt mixed  → bit
//	logic    and or not       bit operands (and, or: two of them)           → bit
//	arith    + - * /          int, flt; mixed widens, / always widens → int | flt
//	string   strstarts strends strcontains    str operands                  → bit
//	date     year month       a date column                                 → int
//	cast     flt int          an int or flt column                    → flt | int
//	if       a bit condition and two branches of one fixed kind       → that kind
//
// Func.Apply stays the definition: a typed primitive must equal it row by
// row, bit for bit. For the comparisons that means reproducing bat.Compare,
// which decides from < and > only — so a NaN operand compares "equal" to
// anything — and compares mixed int/flt operands as floats. The result kind
// is a function of (function, operand kinds), fixed before a row is read
// (resultKind), so an empty operand yields the same kind as a full one.

// Operand is one argument of a multiplexed operation: either a BAT (a value
// set) or a constant lifted over it.
type Operand struct {
	B     *bat.BAT
	Const *bat.Value
}

// BATArg wraps a BAT operand.
func BATArg(b *bat.BAT) Operand { return Operand{B: b} }

// ConstArg wraps a constant operand.
func ConstArg(v bat.Value) Operand { return Operand{Const: &v} }

// Multiplex implements the multiplex constructor [f](AB, …, XY):
// {a·f(b,…,y) | ab ∈ AB, …, xy ∈ XY ∧ a = … = x} (Fig. 4). It vectorizes
// computation of expressions and method invocations (Section 4.2). Constant
// operands are broadcast.
//
// When all BAT operands are positionally synced (the common case: they all
// stem from semijoins with the same candidate set, cf. the Fig. 10
// discussion of synced prices/discount), the natural join on heads
// degenerates to an aligned scan. Otherwise operands are matched on head
// value via hash lookup.
func Multiplex(ctx *Ctx, fn string, args []Operand) *bat.BAT {
	f, ok := LookupFunc(fn)
	if !ok {
		panic(fmt.Sprintf("mil: multiplex of unknown function %q", fn))
	}
	var first *bat.BAT
	for _, a := range args {
		if a.B != nil && first == nil {
			first = a.B
		}
	}
	if first == nil {
		panic("mil: multiplex needs at least one BAT operand")
	}
	if f.Arity >= 0 && f.Arity != len(args) {
		panic(fmt.Sprintf("mil: function %q wants %d args, got %d", fn, f.Arity, len(args)))
	}

	aligned := true
	for _, a := range args {
		if a.B != nil && a.B != first && !bat.Synced(first, a.B) {
			aligned = false
			break
		}
	}
	if aligned {
		return multiplexAligned(ctx, f, first, args)
	}
	return multiplexHash(ctx, f, first, args)
}

func multiplexAligned(ctx *Ctx, f *Func, first *bat.BAT, args []Operand) *bat.BAT {
	ctx.chose("aligned-multiplex")
	p := ctx.pager()
	for _, a := range args {
		if a.B != nil {
			a.B.T.TouchAll(p)
		}
	}
	tail := compileMap(f, args)(ctx, first.Len())
	return bat.Derive(bat.New("["+f.Name+"]", first.H, tail, 0), bat.NewTail, first, nil)
}

// compileMap compiles [f] over aligned operands into its map primitive: the
// function's typed one for these operand kinds and shapes, else the adapter.
func compileMap(f *Func, args []Operand) mapKernel {
	if f.typed != nil {
		if k := f.typed(args); k != nil {
			return k
		}
	}
	return adaptMap(f, args)
}

// resultKind is the tail kind of [f] over args: a function of f and the
// operand kinds alone, read off one application of f to the operand kinds'
// zero values (constants as given) — before, and whether or not, there is a
// row to read.
func resultKind(f *Func, args []Operand) bat.Kind {
	zeros := make([]bat.Value, len(args))
	for j, a := range args {
		if a.Const != nil {
			zeros[j] = *a.Const
		} else {
			zeros[j] = bat.Value{K: a.kind()}
		}
	}
	return f.Apply(zeros).K
}

// adaptMap is the one row-at-a-time path: it boxes each row's operands,
// calls f.Apply and stores the result into a typed builder of the declared
// result kind. Only shapes without a typed primitive get here (functions
// registered at run time, operand kinds a family does not cover, string
// results).
func adaptMap(f *Func, args []Operand) mapKernel {
	kind := resultKind(f, args)
	return func(ctx *Ctx, n int) bat.Column {
		b := bat.NewBuilder(kind, n)
		morselLoop(ctx, n, func(lo, hi int) (_ struct{}) {
			buf := make([]bat.Value, len(args))
			for i := lo; i < hi; i++ {
				for j, a := range args {
					if a.B != nil {
						buf[j] = a.B.T.Get(i)
					} else {
						buf[j] = *a.Const
					}
				}
				b.Set(i, f.Apply(buf))
			}
			return
		}, nil)
		return b.Column()
	}
}

// multiplexHash is the natural join on heads (assuming key heads — true for
// value sets, which are identified value sets by construction): the rows of
// the first BAT operand whose head occurs in every other one survive, each
// other operand's tail is fetched at its first matching row, and the aligned
// primitive runs over the matched rows.
func multiplexHash(ctx *Ctx, f *Func, first *bat.BAT, args []Operand) *bat.BAT {
	ctx.chose("hash-multiplex")
	p := ctx.pager()
	n := first.Len()
	at := make([][]int32, len(args))
	for j, a := range args {
		if a.B != nil && a.B != first {
			a.B.H.TouchAll(p)
			a.B.T.TouchAll(p)
			at[j] = alignHeads(ctx, first, a.B)
		}
	}
	rows := alignedRows(n, at)
	first.H.TouchAll(p)
	first.T.TouchAll(p)

	matched := make([]Operand, len(args))
	for j, a := range args {
		switch {
		case a.B == nil:
			matched[j] = a
		case a.B == first:
			matched[j] = BATArg(bat.New("", bat.NewVoid(0, len(rows)), bat.Gather(first.T, rows), 0))
		default:
			matched[j] = BATArg(bat.New("", bat.NewVoid(0, len(rows)), bat.Gather(a.B.T, at[j]), 0))
		}
	}
	tail := compileMap(f, matched)(ctx, len(rows))
	head := first.H // every row kept, in order
	if len(rows) < n {
		head = bat.Gather(first.H, rows)
	}
	return bat.Derive(bat.New("["+f.Name+"]", head, tail, 0), bat.NewTail, first, nil)
}
