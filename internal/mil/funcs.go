package mil

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/bat"
)

// Func is a scalar function usable inside the multiplex constructor [f]
// (Section 4.2: "allows bulk application of any algebraic operation on all
// tail values of a BAT") and inside selection predicates.
//
// Apply is the function's scalar form and its definition. Its result kind
// must depend on the kinds of its arguments only, never on their values: the
// multiplex derives a result column's kind from the operand kinds before it
// reads a row (resultKind).
type Func struct {
	Name  string
	Arity int // -1 = variadic
	Apply func(args []bat.Value) bat.Value

	// typed compiles an aligned multiplex of the function over the given
	// operands into a typed map primitive equal to Apply row by row, or
	// returns nil when it has none for their kinds and shapes (mapkernel.go).
	// Only the built-in functions carry one.
	typed func(args []Operand) mapKernel
}

var funcs = map[string]*Func{}

// RegisterFunc adds a scalar function to the multiplex registry; it is the
// Go analogue of Monet's run-time operator extensibility (Section 2,
// "algebra commands and operators can be added").
func RegisterFunc(f *Func) { funcs[f.Name] = f }

// LookupFunc finds a registered scalar function.
func LookupFunc(name string) (*Func, bool) {
	f, ok := funcs[name]
	return f, ok
}

func numeric2(name string, fi func(a, b int64) int64, ff func(a, b float64) float64) *Func {
	return &Func{Name: name, Arity: 2, typed: arithKernel(fi, ff), Apply: func(a []bat.Value) bat.Value {
		x, y := a[0], a[1]
		if x.K == bat.KInt && y.K == bat.KInt {
			return bat.I(fi(x.I, y.I))
		}
		return bat.F(ff(x.AsFloat(), y.AsFloat()))
	}}
}

func cmp(name string, ok func(c int) bool) *Func {
	return &Func{Name: name, Arity: 2, typed: compareKernel(name), Apply: func(a []bat.Value) bat.Value {
		return bat.B(ok(bat.Compare(a[0], a[1])))
	}}
}

// strPred is a binary string predicate, typed over string operands.
func strPred(name string, f func(a, b string) bool) *Func {
	return &Func{Name: name, Arity: 2,
		typed: func(args []Operand) mapKernel { return strBin(args, f) },
		Apply: func(a []bat.Value) bat.Value { return bat.B(f(a[0].S, a[1].S)) }}
}

// logic is the variadic and (unit true) / or (unit false): the unit unless
// an argument differs from it. Its usual two bit operands run typed.
func logic(name string, unit bool, f func(a, b bool) bool) *Func {
	return &Func{Name: name, Arity: -1,
		typed: func(args []Operand) mapKernel {
			if len(args) != 2 {
				return nil
			}
			return bin(args, f)
		},
		Apply: func(a []bat.Value) bat.Value {
			for _, v := range a {
				if v.Bool() != unit {
					return bat.B(!unit)
				}
			}
			return bat.B(unit)
		}}
}

// divide is "/": always a float, and zero when the divisor is.
func divide(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func yearOf(d int32) int64  { return int64(dayToTime(int64(d)).Year()) }
func monthOf(d int32) int64 { return int64(dayToTime(int64(d)).Month()) }

func init() {
	RegisterFunc(numeric2("+", func(a, b int64) int64 { return a + b }, func(a, b float64) float64 { return a + b }))
	RegisterFunc(numeric2("-", func(a, b int64) int64 { return a - b }, func(a, b float64) float64 { return a - b }))
	RegisterFunc(numeric2("*", func(a, b int64) int64 { return a * b }, func(a, b float64) float64 { return a * b }))
	RegisterFunc(&Func{Name: "/", Arity: 2,
		typed: func(args []Operand) mapKernel { return numericBin(args, nil, divide) },
		Apply: func(a []bat.Value) bat.Value { return bat.F(divide(a[0].AsFloat(), a[1].AsFloat())) }})
	RegisterFunc(cmp("=", func(c int) bool { return c == 0 }))
	RegisterFunc(cmp("!=", func(c int) bool { return c != 0 }))
	RegisterFunc(cmp("<", func(c int) bool { return c < 0 }))
	RegisterFunc(cmp("<=", func(c int) bool { return c <= 0 }))
	RegisterFunc(cmp(">", func(c int) bool { return c > 0 }))
	RegisterFunc(cmp(">=", func(c int) bool { return c >= 0 }))
	RegisterFunc(logic("and", true, func(a, b bool) bool { return a && b }))
	RegisterFunc(logic("or", false, func(a, b bool) bool { return a || b }))
	RegisterFunc(&Func{Name: "not", Arity: 1,
		typed: func(args []Operand) mapKernel { return un(args, func(a bool) bool { return !a }) },
		Apply: func(a []bat.Value) bat.Value { return bat.B(!a[0].Bool()) }})
	RegisterFunc(&Func{Name: "if", Arity: 3, typed: ifKernel, Apply: func(a []bat.Value) bat.Value {
		if a[0].Bool() {
			return a[1]
		}
		return a[2]
	}})
	RegisterFunc(&Func{Name: "year", Arity: 1,
		typed: func(args []Operand) mapKernel { return un(args, yearOf) },
		Apply: func(a []bat.Value) bat.Value { return bat.I(yearOf(int32(a[0].I))) }})
	RegisterFunc(&Func{Name: "month", Arity: 1,
		typed: func(args []Operand) mapKernel { return un(args, monthOf) },
		Apply: func(a []bat.Value) bat.Value { return bat.I(monthOf(int32(a[0].I))) }})
	RegisterFunc(&Func{Name: "adddays", Arity: 2, Apply: func(a []bat.Value) bat.Value {
		return bat.D(int32(a[0].I + a[1].I))
	}})
	RegisterFunc(&Func{Name: "addmonths", Arity: 2, Apply: func(a []bat.Value) bat.Value {
		t := dayToTime(a[0].I).AddDate(0, int(a[1].I), 0)
		return bat.D(int32(t.Unix() / 86400))
	}})
	RegisterFunc(strPred("strstarts", strings.HasPrefix))
	RegisterFunc(strPred("strcontains", strings.Contains))
	RegisterFunc(strPred("strends", strings.HasSuffix))
	RegisterFunc(&Func{Name: "length", Arity: 1, Apply: func(a []bat.Value) bat.Value {
		return bat.I(int64(len(a[0].S)))
	}})
	RegisterFunc(&Func{Name: "neg", Arity: 1, Apply: func(a []bat.Value) bat.Value {
		if a[0].K == bat.KInt {
			return bat.I(-a[0].I)
		}
		return bat.F(-a[0].AsFloat())
	}})
	RegisterFunc(&Func{Name: "flt", Arity: 1, typed: castKernel(func(f float64) float64 { return f }),
		Apply: func(a []bat.Value) bat.Value { return bat.F(a[0].AsFloat()) }})
	RegisterFunc(&Func{Name: "int", Arity: 1, typed: castKernel(func(f float64) int64 { return int64(f) }),
		Apply: func(a []bat.Value) bat.Value { return bat.I(int64(a[0].AsFloat())) }})
	// snd projects its second argument; multiplexing [snd](AB, const) lifts
	// a constant into a value set synced with AB (used by the rewriter to
	// materialize constant-valued projection fields).
	RegisterFunc(&Func{Name: "snd", Arity: 2, Apply: func(a []bat.Value) bat.Value {
		return a[1]
	}})
}

func dayToTime(days int64) time.Time {
	return time.Unix(days*86400, 0).UTC()
}

// CallFunc applies a registered scalar function, panicking on unknown names
// or arity mismatch: the rewriter type-checks calls before emitting them, so
// a failure here is a translator bug, not user error.
func CallFunc(name string, args []bat.Value) bat.Value {
	f, ok := funcs[name]
	if !ok {
		panic(fmt.Sprintf("mil: unknown function %q", name))
	}
	if f.Arity >= 0 && f.Arity != len(args) {
		panic(fmt.Sprintf("mil: function %q wants %d args, got %d", name, f.Arity, len(args)))
	}
	return f.Apply(args)
}
