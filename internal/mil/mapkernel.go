package mil

import "repro/internal/bat"

// The typed map primitives of the aligned multiplex (the compile step is
// described in the header of multiplex.go). A primitive is one generic loop
// over the operands' backing slices, instantiated per element type; a
// family's compile function tries its instantiations against the operand
// kinds and shapes, once per statement, and yields nil when none fits.

// mapKernel is one compiled aligned multiplex: it computes the n-row result
// column, filling the morsel loop's ranges of its backing slice directly.
type mapKernel func(ctx *Ctx, n int) bat.Column

// firstKernel returns the first instantiation that accepted the operands.
func firstKernel(ks ...mapKernel) mapKernel {
	for _, k := range ks {
		if k != nil {
			return k
		}
	}
	return nil
}

// kind reports the kind of the values the operand supplies (the entries of
// a void tail are oids).
func (a Operand) kind() bat.Kind {
	if a.Const != nil {
		return a.Const.K
	}
	if k := a.B.T.Kind(); k != bat.KVoid {
		return k
	}
	return bat.KOID
}

// vec is one operand of a typed primitive over element type E: a column's
// backing slice, or a constant broadcast over the rows.
type vec[E any] struct {
	col     []E
	c       E
	isConst bool
}

func (v vec[E]) at(i int) E {
	if v.isConst {
		return v.c
	}
	return v.col[i]
}

// vecOf views operand a as a vec[E]; ok is false unless a supplies values of
// E's kind, from a fixed-width column or a constant.
func vecOf[E bat.Fixed](a Operand) (v vec[E], ok bool) {
	if a.B != nil {
		c, ok := a.B.T.(*bat.FixedCol[E])
		if ok {
			v.col = c.V
		}
		return v, ok
	}
	return vec[E]{c: bat.Unbox[E](*a.Const), isConst: true}, a.Const.K == (*bat.FixedCol[E])(nil).Kind()
}

// un compiles the unary map out[i] = f(x[i]) over a FixedCol[A] operand.
func un[A, R bat.Fixed](args []Operand, f func(A) R) mapKernel {
	c, ok := args[0].B.T.(*bat.FixedCol[A])
	if !ok {
		return nil
	}
	return func(ctx *Ctx, n int) bat.Column {
		out := make([]R, n)
		morselLoop(ctx, n, func(lo, hi int) (_ struct{}) {
			for i, x := range c.V[lo:hi] {
				out[lo+i] = f(x)
			}
			return
		}, nil)
		return &bat.FixedCol[R]{V: out}
	}
}

// bin compiles the binary map out[i] = f(x[i], y[i]), each operand a column
// or a broadcast constant (at least one is a column), one loop per shape.
func bin[A, B, R bat.Fixed](args []Operand, f func(A, B) R) mapKernel {
	x, ok1 := vecOf[A](args[0])
	y, ok2 := vecOf[B](args[1])
	if !ok1 || !ok2 {
		return nil
	}
	return func(ctx *Ctx, n int) bat.Column {
		out := make([]R, n)
		morselLoop(ctx, n, func(lo, hi int) (_ struct{}) {
			o := out[lo:hi]
			switch {
			case x.isConst:
				ys := y.col[lo:hi]
				for i := range o {
					o[i] = f(x.c, ys[i])
				}
			case y.isConst:
				xs := x.col[lo:hi]
				for i := range o {
					o[i] = f(xs[i], y.c)
				}
			default:
				xs, ys := x.col[lo:hi], y.col[lo:hi]
				for i := range o {
					o[i] = f(xs[i], ys[i])
				}
			}
			return
		}, nil)
		return &bat.FixedCol[R]{V: out}
	}
}

// widened lifts a float function over operands of which either may be an
// integer: numeric operands of mixed kinds meet in float64.
func widened[A, B int64 | float64, R any](f func(a, b float64) R) func(A, B) R {
	return func(a A, b B) R { return f(float64(a), float64(b)) }
}

// numericBin compiles a binary map over int and float operands: fi where
// both are ints (nil: those widen too), ff — operands widened — otherwise. An
// int constant facing a float operand is widened here, once, so the common
// column-against-literal shape runs the unmixed loop.
func numericBin[R bat.Fixed](args []Operand, fi func(a, b int64) R, ff func(a, b float64) R) mapKernel {
	for j, a := range args[:2] {
		if a.Const != nil && a.Const.K == bat.KInt && args[1-j].kind() == bat.KFlt {
			args = append([]Operand(nil), args...)
			args[j] = ConstArg(bat.F(a.Const.AsFloat()))
		}
	}
	if fi == nil {
		fi = widened[int64, int64](ff)
	}
	return firstKernel(bin(args, ff), bin(args, fi),
		bin(args, widened[int64, float64](ff)), bin(args, widened[float64, int64](ff)))
}

// arithKernel is the family of + - *: exact over two ints, in float64 as
// soon as either operand is a float.
func arithKernel(fi func(a, b int64) int64, ff func(a, b float64) float64) func(args []Operand) mapKernel {
	return func(args []Operand) mapKernel {
		return firstKernel(bin(args, fi), numericBin(args, nil, ff))
	}
}

// castKernel is the family of flt / int: an int or float column widened to
// float64, then converted.
func castKernel[R bat.Fixed](conv func(float64) R) func(args []Operand) mapKernel {
	return func(args []Operand) mapKernel {
		return firstKernel(un(args, conv), un(args, func(a int64) R { return conv(float64(a)) }))
	}
}

// cmpOp is comparison name as a predicate on E, phrased — like bat.Compare,
// which it must reproduce — from < and > alone: an unordered operand (NaN)
// is neither below nor above anything, hence "equal" to everything.
func cmpOp[E bat.Ordered | string](name string) func(a, b E) bool {
	switch name {
	case "=":
		return func(a, b E) bool { return !(a < b) && !(a > b) }
	case "!=":
		return func(a, b E) bool { return a < b || a > b }
	case "<":
		return func(a, b E) bool { return a < b }
	case "<=":
		return func(a, b E) bool { return !(a > b) }
	case ">":
		return func(a, b E) bool { return a > b }
	default: // ">="
		return func(a, b E) bool { return !(a < b) }
	}
}

// compareKernel is the family of = != < <= > >=: two operands of one ordered
// kind, or of mixed int/float kinds (compared as floats).
func compareKernel(name string) func(args []Operand) mapKernel {
	strOp := cmpOp[string](name)
	switch name { // strings are totally ordered: plain, length-first equality
	case "=":
		strOp = func(a, b string) bool { return a == b }
	case "!=":
		strOp = func(a, b string) bool { return a != b }
	}
	return func(args []Operand) mapKernel {
		return firstKernel(strBin(args, strOp),
			numericBin(args, cmpOp[int64](name), cmpOp[float64](name)),
			bin(args, cmpOp[int32](name)), bin(args, cmpOp[bat.OID](name)), bin(args, cmpOp[byte](name)))
	}
}

// strAt returns the row accessor of a string operand — a StrCol read in
// place, or a constant — or nil for an operand of another kind.
func strAt(a Operand) func(i int) string {
	if a.B != nil {
		if c, ok := a.B.T.(*bat.StrCol); ok {
			return c.At
		}
	} else if s := a.Const.S; a.Const.K == bat.KStr {
		return func(int) string { return s }
	}
	return nil
}

// strBin compiles the binary string predicate out[i] = f(x[i], y[i]) — the
// string comparisons, strstarts / strends / strcontains.
func strBin(args []Operand, f func(a, b string) bool) mapKernel {
	x, y := strAt(args[0]), strAt(args[1])
	if x == nil || y == nil {
		return nil
	}
	return func(ctx *Ctx, n int) bat.Column {
		out := make([]bool, n)
		morselLoop(ctx, n, func(lo, hi int) (_ struct{}) {
			if args[0].B != nil && args[1].B == nil {
				// Column against literal: straight over the offsets and the
				// character heap.
				c, lit := args[0].B.T.(*bat.StrCol), args[1].Const.S
				off, chars := c.Off, c.Chars
				for i := lo; i < hi; i++ {
					out[i] = f(chars[off[i]:off[i+1]], lit)
				}
				return
			}
			for i := lo; i < hi; i++ {
				out[i] = f(x(i), y(i))
			}
			return
		}, nil)
		return bat.NewBitCol(out)
	}
}

// ifKernel is the family of if: a bit condition choosing, row by row,
// between two branches of one fixed kind.
func ifKernel(args []Operand) mapKernel {
	return firstKernel(choose[int64](args), choose[float64](args), choose[int32](args),
		choose[bat.OID](args), choose[byte](args), choose[bool](args))
}

func choose[E bat.Fixed](args []Operand) mapKernel {
	cond, ok0 := vecOf[bool](args[0])
	x, ok1 := vecOf[E](args[1])
	y, ok2 := vecOf[E](args[2])
	if !ok0 || !ok1 || !ok2 {
		return nil
	}
	return func(ctx *Ctx, n int) bat.Column {
		out := make([]E, n)
		morselLoop(ctx, n, func(lo, hi int) (_ struct{}) {
			for i := lo; i < hi; i++ {
				if out[i] = y.at(i); cond.at(i) {
					out[i] = x.at(i)
				}
			}
			return
		}, nil)
		return &bat.FixedCol[E]{V: out}
	}
}
